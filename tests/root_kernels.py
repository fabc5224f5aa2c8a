"""Root finding as `charfive.ffpoly` did it before Frobenius orbits: the
test oracle.

`fifth_power_table` raises each entry of the table x^(5^j) mod `mod` to
the fifth power by a long division of a degree-5d polynomial, where
`ffpoly._fifth_power_table` takes one semilinear combination of the rows
x^(5i) mod `mod`.  `trace_split` follows every branch of the trace gcds
down to linear factors, where `ffpoly._split_orbits` follows one branch
to one root per irreducible factor and takes the rest of its orbit from
the Frobenius map.  `roots_in_field` lists every root of a polynomial in
its own coefficient field, as `ffpoly._embedding_image` did before it took
one orbit of x -> x^5.  `test_ffpoly.py` checks the fast forms against these.
"""

import itertools
import random

from charfive.ffpoly import (
    P,
    GFPoly,
    _fifth_power_table,
    _root_multiplicity,
    _split_orbits,
    poly_gcd,
)


def fifth_power_table(mod, top, table=None):
    """[x^(5^j) mod `mod` for j = 0..top], extending `table` if one is given.

    Each entry is the fifth power of the one before: Frobenius on the
    coefficients, x -> x^5, and one reduction mod `mod`.
    """
    f = mod.field
    if table is None:
        table = [GFPoly.x(f) % mod]
    while len(table) <= top:
        coeffs = [f.zero] * (P * len(table[-1].coeffs))
        coeffs[::P] = [f.frobenius(c) for c in table[-1].coeffs]
        table.append(GFPoly(f, coeffs) % mod)
    return table


def trace_split(lin, powers, seed):
    """The roots of lin, a monic product of distinct linear factors over its
    coefficient field GF(5^K), in no particular order; powers[j] is
    x^(5^j) mod lin for j < K.

    Berlekamp's trace algorithm: for a seeded random b the polynomial
    T = sum_j b^(5^j) x^(5^j) takes the value Tr(b r) in F5 at every root r,
    so the gcds of a factor g with T - c (c in F5) split g unless all its
    roots share one trace, which happens with probability at most 1/5.
    Every factor found is split again.
    """
    f = lin.field
    rng = random.Random(seed)
    roots = []
    stack = [lin] if lin.degree > 0 else []
    while stack:
        g = stack.pop()
        if g.degree == 1:
            roots.append(f.neg(g.coeffs[0]))
            continue
        while True:
            b = f.rand_elem(rng)
            coeffs = [f.zero] * lin.degree
            for power in powers:
                for i, c in enumerate(power.coeffs):
                    coeffs[i] = f.add(coeffs[i], f.mul(b, c))
                b = f.frobenius(b)
            trace = GFPoly(f, coeffs) % g
            if trace.degree > 0:
                break
        found = 0
        for c in range(P):
            d = poly_gcd(g, trace - GFPoly(f, [f.elem(c)]))
            if d.degree > 0:
                stack.append(d)
                found += d.degree
                if found == g.degree:
                    break
    return roots


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
    return [(r, _root_multiplicity(u, r)) for r in sorted(orbit[0] for orbit in orbits)]
