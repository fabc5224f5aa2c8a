"""Reference intersection multiplicities of plane curves: the test oracle.

These are the sparse polynomial class, the projective closure, the polar
and Fulton's recursion that `charfive.curvecheck` used before the polar
multiplicity became a univariate valuation.  Fulton's procedure
(*Algebraic Curves*, section 3.3) works for any two plane curves and
uses no fact special to y^5 = f(x); `test_curvecheck.py` checks the
univariate `_corrections_for` against `fulton_corrections_for` below,
draw by draw, rejections included.
"""

import math

from charfive.ffpoly import GFPoly, embedding

INF = math.inf


# ---------------------------------------------------------------------------
# Sparse polynomials in several variables
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial over a GF(5^k), as {exponent tuple: coefficient}.

    Every key of one polynomial has the same length, its number of
    variables; zero coefficients are never stored, so a monomial is
    present iff its coefficient is nonzero.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(k) for k in self.terms), default=-1)

    def __add__(self, other):
        return _collect(self.field, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        f = self.field
        return Poly(f, {k: f.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c, monomial=None):
        """c * m * p for the monomial m with exponents `monomial` (m = 1
        when it is omitted)."""
        f = self.field
        if monomial is None:
            return Poly(f, {k: f.mul(cc, c) for k, cc in self.terms.items()})
        return Poly(f, {tuple(a + b for a, b in zip(k, monomial)): f.mul(cc, c)
                        for k, cc in self.terms.items()})

    def partial(self, var):
        f = self.field
        return _collect(f, (
            (k[:var] + (k[var] - 1,) + k[var + 1:], f.mul(c, f.elem(k[var] % 5)))
            for k, c in self.terms.items() if k[var] % 5))

    def eval(self, point):
        f = self.field
        acc = f.zero
        for key, c in self.terms.items():
            for a, e in zip(point, key):
                if e:
                    c = f.mul(c, f.pow(a, e))
            acc = f.add(acc, c)
        return acc

    def map_coeffs(self, fn, new_field):
        return Poly(new_field, {k: fn(c) for k, c in self.terms.items()})

    def chart(self, var):
        """The dehomogenisation at variable `var` = 1: that exponent is
        dropped from every key, the remaining variables keep their order."""
        return _collect(self.field,
                        ((k[:var] + k[var + 1:], c) for k, c in self.terms.items()))

    # -- two-variable operations of the Fulton recursion ---------------------

    def shift(self, a, b):
        """The polynomial p(x + a, y + b)."""
        f = self.field
        max_i = max((i for i, _ in self.terms), default=0)
        max_j = max((j for _, j in self.terms), default=0)
        # binomial expansions of (x+a)^i and (y+b)^j
        pow_a = _binomial_rows(f, a, max_i)
        pow_b = _binomial_rows(f, b, max_j)
        return _collect(f, (
            ((ii, jj), f.mul(c, f.mul(ca, cb)))
            for (i, j), c in self.terms.items()
            for ii, ca in enumerate(pow_a[i]) if ca
            for jj, cb in enumerate(pow_b[j]) if cb))

    def restrict_y0(self):
        """p(x, 0) as a univariate polynomial in x."""
        f = self.field
        max_i = max((i for i, j in self.terms if j == 0), default=-1)
        coeffs = [f.zero] * (max_i + 1)
        for (i, j), c in self.terms.items():
            if j == 0:
                coeffs[i] = c
        return GFPoly(f, coeffs)

    def div_y(self):
        """p / y, exact (every term must contain y)."""
        if any(j == 0 for _, j in self.terms):
            raise ValueError("polynomial is not divisible by y")
        return Poly(self.field, {(i, j - 1): c for (i, j), c in self.terms.items()})


def _collect(field, items):
    """The sum of the terms (key, coefficient); keys may repeat."""
    out = {}
    for key, c in items:
        out[key] = field.add(out[key], c) if key in out else c
    return Poly(field, out)


def _binomial_rows(field, a, max_e):
    """Row e holds the coefficients of (x + a)^e, ascending in x."""
    rows = [[field.one]]
    for e in range(1, max_e + 1):
        prev = rows[-1]
        row = [field.zero] * (e + 1)
        for i, c in enumerate(prev):
            row[i] = field.add(row[i], field.mul(c, a))
            row[i + 1] = field.add(row[i + 1], c)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The projective sextic, its points at infinity and its polars
# ---------------------------------------------------------------------------

def homogeneous_equation(m):
    """w2*w1^5 - sum_j a_j w0^j w2^(6-j), the projective closure of y^5 - f(x)."""
    f = m.field
    terms = {(j, 0, 6 - j): f.neg(a) for j, a in enumerate(m.f.coeffs)}
    terms[(0, 5, 1)] = f.one
    return Poly(f, terms)


def check_infinity(m):
    """(single_point, smooth): the line at infinity meets the curve only at
    [0:1:0], and the curve is smooth there.  Both facts are recomputed."""
    big = homogeneous_equation(m)
    # single point iff the restriction to w2 = 0 is a nonzero multiple of w0^6
    single = [k for k in big.terms if k[2] == 0] == [(6, 0, 0)]
    chart = big.chart(1).terms          # (u, v) = (w0, w2), [0:1:0] at the origin
    # on the curve: no constant term; smooth there: a nonzero linear term
    smooth = (0, 0) not in chart and ((1, 0) in chart or (0, 1) in chart)
    return single, smooth


def polar_of(m, q):
    """The polar q0 dF/dw0 + q1 dF/dw1 + q2 dF/dw2 of the projective curve.

    dF/dw1 vanishes identically in characteristic 5 (checked), so the
    polar depends only on [q0 : q2].
    """
    big = homogeneous_equation(m)
    d0 = big.partial(0)
    d1 = big.partial(1)
    d2 = big.partial(2)
    if not d1.is_zero():
        raise AssertionError("dF/dw1 must vanish identically in characteristic 5")
    return d0.scale(q[0]) + d2.scale(q[2])


# ---------------------------------------------------------------------------
# Local intersection multiplicities
# ---------------------------------------------------------------------------

def local_intersection_multiplicity(f2, g2, point=None):
    """Intersection multiplicity of two affine curves at a point.

    Fulton's recursive procedure on the translated equations; returns
    math.inf when the curves share a component through the point.  The
    budget argument to the recursion is the Bezout bound: a finite
    multiplicity cannot exceed deg(F) * deg(G).
    """
    if point is not None:
        f2 = f2.shift(point[0], point[1])
        g2 = g2.shift(point[0], point[1])
    budget = max(f2.total_degree(), 0) * max(g2.total_degree(), 0) + 1
    return _imult_origin(f2, g2, budget)


def _imult_origin(F, G, budget):
    fld = F.field
    total = 0
    while True:
        if F.is_zero() or G.is_zero():
            return INF
        if (0, 0) in F.terms or (0, 0) in G.terms:
            return total                   # a nonzero constant term
        f0 = F.restrict_y0()
        g0 = G.restrict_y0()
        if f0.is_zero() and g0.is_zero():
            return INF                     # both divisible by y
        if f0.is_zero():
            # F = y * F1 and I(y, G) = ord_0 G(x, 0)
            ord_g = next(i for i, c in enumerate(g0.coeffs) if c)
            total += ord_g
            if total > budget:
                return INF
            F = F.div_y()
            continue
        if g0.is_zero():
            F, G = G, F
            continue
        if f0.degree > g0.degree:
            F, G = G, F
            f0, g0 = g0, f0
        c = fld.mul(g0.leading(), fld.inv(f0.leading()))
        G = G - F.scale(c, (g0.degree - f0.degree, 0))


def fulton_corrections_for(m, points, q):
    """Local multiplicities of the curve with the polar at every singular
    point, or None when q is degenerate for one of the explicit reasons."""
    fld = m.field
    big = homogeneous_equation(m)
    polar = polar_of(m, q)
    if polar.is_zero():
        return None
    if not big.eval(q):
        return None                         # polar point lies on the curve
    mults = []
    for pt in points:
        ext = pt.field
        emb = embedding(fld, ext)
        curve2 = big.map_coeffs(emb, ext).chart(2)
        polar2 = polar.map_coeffs(emb, ext).chart(2)
        a, b = pt.alpha, pt.beta
        dx = polar2.partial(0).eval((a, b))
        dy = polar2.partial(1).eval((a, b))
        if not (dx or dy):
            return None                     # polar is singular at the point
        mult = local_intersection_multiplicity(curve2, polar2, (a, b))
        if mult == INF:
            return None
        mults.append(mult)
    return mults
