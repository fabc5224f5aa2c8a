"""Roots with multiplicities, as `charfive.ffpoly` found them before it
took squarefree input only and Frobenius orbits: the test oracle.

`roots_in_field` lists every root of a polynomial in its own coefficient
field, as `ffpoly._embedding_image` did before it took one orbit of
x -> x^5, with the multiplicity `root_multiplicity` reads from the Taylor
expansion, as `ffpoly.roots_in_extension` did before it took squarefree
input only.  `test_ffpoly.py` checks `roots_in_field` against an
exhaustive scan and reads the multiplicities of non-squarefree inputs
and the images of field embeddings off it.
"""

import itertools

from charfive.ffpoly import (
    GFPoly,
    _fifth_power_table,
    _split_orbits,
    poly_gcd,
    taylor_coefficients,
)


def root_multiplicity(u, r):
    """The multiplicity of r as a root of u (0 when u(r) != 0): the index of
    the first nonzero coefficient of u(x + r)."""
    for mult, c in enumerate(taylor_coefficients(u, r, len(u.coeffs))):
        if c:
            return mult
    raise ValueError("zero polynomial")


def roots_in_field(u, seed=0):
    """All roots of u inside its own coefficient field GF(q), with
    multiplicities.

    The product of the distinct linear factors, gcd(u, x^q - x), is split
    by `_split_orbits` into orbits of length one; roots are sorted in
    element order.
    """
    if u.is_zero():
        raise ValueError("zero polynomial")
    f = u.field
    m = u.monic()
    table = list(itertools.islice(_fifth_power_table(m), f.degree + 1))
    lin = poly_gcd(table[-1] - GFPoly.x(f), m)
    orbits = _split_orbits(lin, [h % lin for h in table[:-1]], f.degree, 1, seed)
    return [(r, root_multiplicity(u, r)) for r in sorted(orbit[0] for orbit in orbits)]
