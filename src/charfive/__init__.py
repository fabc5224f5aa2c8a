"""Exact-arithmetic toolkit for even lattices, discriminant forms and
sextic double planes in characteristic 5.

Every name is imported from the module that defines it (for example
`from charfive.lattice import build_S0`); the package itself exports
nothing but its version, so `import charfive` loads no submodule.
"""

__version__ = "0.1.0"
