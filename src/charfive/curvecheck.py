"""Degree-6 plane curves y^5 = f(x) in characteristic 5: the squarefree
derivative test, location and certification of the five A4 singular
points, local intersection multiplicities with a polar curve, the
30 - sum(corrections) product, and the rank-22 sublattice model of the
Neron-Severi group.

All point computations take place over explicit finite extensions; a
point whose first coordinate generates a degree-m extension of the base
field is handled entirely inside that field, so that the curve, the
polar and the point share one coefficient ring.
"""

import math
import random
from dataclasses import dataclass

from .discform import CHAIN_LEN, N_CHAINS, build_S0
from .ffpoly import (
    GF,
    GFPoly,
    embedding,
    is_squarefree,
    roots_in_extension,
)
from .lattice import GramLattice

INF = math.inf


class GenericityError(RuntimeError):
    """No admissible polar point was found within the retry budget."""


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
        self.terms = {k: tuple(c) for k, c in (terms or {}).items() if any(c)}

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
            (k[:var] + (k[var] - 1,) + k[var + 1:], f.mul(c, f.elem(k[var])))
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
            for ii, ca in enumerate(pow_a[i]) if any(ca)
            for jj, cb in enumerate(pow_b[j]) if any(cb)))

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
# The sextic models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SexticModel:
    field: GF
    f: GFPoly

    def __post_init__(self):
        if self.f.field != self.field:
            raise ValueError("polynomial field mismatch")
        if self.f.degree != 6:
            raise ValueError("defining polynomial must have degree 6")


def is_in_U(f):
    """True iff deg f = 6 and f' (a quintic in characteristic 5) is squarefree."""
    if f.degree != 6:
        raise ValueError("polynomial must have degree 6")
    return is_squarefree(f.derivative())


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


@dataclass(frozen=True)
class SingularPointReport:
    alpha: tuple
    beta: tuple
    field: GF
    subfield_degree: int
    multiplicity_in_fprime: int
    is_A4: bool
    g_at_alpha: tuple
    local_mult_with_polar: object     # int, or math.inf

    def to_json_dict(self):
        mult = self.local_mult_with_polar
        return {
            "alpha": _elem_json(self.alpha),
            "beta": _elem_json(self.beta),
            "field_degree": self.field.degree,
            "subfield_degree": self.subfield_degree,
            "is_A4": self.is_A4,
            "mult": mult if mult != INF else "inf",
        }


def _elem_json(a):
    if len(a) == 1:
        return a[0]
    return list(a)


def verify_A4(f, alpha):
    """Certify the singular point above a critical value.

    Writes f = f(alpha) + (x - alpha)^2 g(x) (requires f'(alpha) = 0) and
    returns (g(alpha) != 0, g(alpha)).  A nonzero g(alpha) is exactly the
    A4 condition for the point (alpha, f(alpha)^(1/5)).
    """
    fld = f.field
    if any(f.derivative().eval(alpha)):
        raise ValueError("alpha is not a critical point of f")
    shifted = f - GFPoly(fld, [f.eval(alpha)])
    lin = GFPoly(fld, [fld.neg(alpha), fld.one])
    q1, r1 = divmod(shifted, lin)
    if not r1.is_zero():
        raise AssertionError("f - f(alpha) not divisible by (x - alpha)")
    g, r2 = divmod(q1, lin)
    if not r2.is_zero():
        raise AssertionError("simple critical point division failed")
    val = g.eval(alpha)
    return any(val), val


def _find_singular_points(m, max_ext):
    """Points (alpha, f(alpha)^(1/5)) with the A4 certificate, each over the
    minimal extension containing alpha; no polar data yet."""
    if not is_in_U(m.f):
        raise ValueError("polynomial is outside the admissible open set")
    single, smooth = check_infinity(m)
    if not (single and smooth):
        raise AssertionError("infinity check failed for a degree-6 model")
    roots = roots_in_extension(m.f.derivative(), max_ext)
    points = []
    for rec in roots:
        ext = rec.field
        emb = embedding(m.field, ext)
        f_ext = m.f.map_coeffs(emb, ext)
        alpha = rec.value
        beta = ext.fifth_root(f_ext.eval(alpha))
        is_a4, g_val = verify_A4(f_ext, alpha)
        points.append({
            "alpha": alpha, "beta": beta, "field": ext,
            "subfield_degree": rec.subfield_degree,
            "multiplicity": rec.multiplicity,
            "is_A4": is_a4, "g_at_alpha": g_val,
        })
    points.sort(key=lambda p: (p["field"].degree, p["alpha"]))
    return points


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
            ord_g = next(i for i, c in enumerate(g0.coeffs) if any(c))
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
        c = fld.div(g0.leading(), f0.leading())
        G = G - F.scale(c, (g0.degree - f0.degree, 0))


# ---------------------------------------------------------------------------
# Polar curves and the degree product
# ---------------------------------------------------------------------------

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


def _corrections_for(m, points, q):
    """Local multiplicities of the curve with the polar at every singular
    point, or None when q is degenerate for one of the explicit reasons."""
    fld = m.field
    big = homogeneous_equation(m)
    polar = polar_of(m, q)
    if polar.is_zero():
        return None
    if not any(big.eval(q)):
        return None                         # polar point lies on the curve
    mults = []
    for pt in points:
        ext = pt["field"]
        emb = embedding(fld, ext)
        curve2 = big.map_coeffs(emb, ext).chart(2)
        polar2 = polar.map_coeffs(emb, ext).chart(2)
        a, b = pt["alpha"], pt["beta"]
        dx = polar2.partial(0).eval((a, b))
        dy = polar2.partial(1).eval((a, b))
        if not (any(dx) or any(dy)):
            return None                     # polar is singular at the point
        mult = local_intersection_multiplicity(curve2, polar2, (a, b))
        if mult == INF:
            return None
        mults.append(mult)
    return mults


@dataclass(frozen=True)
class WallReport:
    degree: int
    total: int                  # d(d-1)
    corrections: tuple
    product: int                # total - sum(corrections)
    polar_point: tuple
    attempts: int

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "total": self.total,
            "corrections": list(self.corrections),
            "product": self.product,
            "polar_point": [_elem_json(c) for c in self.polar_point],
            "attempts": self.attempts,
        }


def _polar_corrections(m, points, seed, max_retries):
    """Draw polar points from the base field until one passes every
    degeneracy check; returns (q, multiplicities, attempts)."""
    fld = m.field
    rng = random.Random(seed)
    for attempt in range(1, max_retries + 1):
        q = (fld.rand_elem(rng), fld.rand_elem(rng), fld.rand_elem(rng))
        if not any(any(c) for c in q):
            continue
        mults = _corrections_for(m, points, q)
        if mults is not None:
            return q, mults, attempt
    raise GenericityError(
        f"no admissible polar point after {max_retries} draws (seed {seed})")


@dataclass(frozen=True)
class CurveReport:
    points: tuple               # SingularPointReport, in deterministic order
    wall: WallReport


def analyze(m, max_ext=8, seed=0, max_retries=24):
    """The singular points and the degree product of one sextic, from a
    single root-finding pass and a single polar draw.

    The points are certified over the algebraic closure (realized as
    explicit finite extensions) and carry their local polar
    multiplicities.  The polar point is drawn from the base field with an
    explicit seed and rejected on any detected degeneracy (point on the
    curve, polar singular at a singular point of the curve, identically
    zero polar, or a shared component).  Every draw stays base-rational so
    that each singular point is handled inside its own extension tower.
    """
    points = _find_singular_points(m, max_ext)
    q, mults, attempts = _polar_corrections(m, points, seed, max_retries)
    reports = tuple(
        SingularPointReport(
            alpha=pt["alpha"],
            beta=pt["beta"],
            field=pt["field"],
            subfield_degree=pt["subfield_degree"],
            multiplicity_in_fprime=pt["multiplicity"],
            is_A4=pt["is_A4"],
            g_at_alpha=pt["g_at_alpha"],
            local_mult_with_polar=mult,
        )
        for pt, mult in zip(points, mults))
    total = 6 * 5
    wall = WallReport(
        degree=6,
        total=total,
        corrections=tuple(mults),
        product=total - sum(mults),
        polar_point=q,
        attempts=attempts,
    )
    return CurveReport(points=reports, wall=wall)


def wall_invariant(m, max_ext=8, seed=0, max_retries=24):
    """30 minus the sum of the five local polar multiplicities (the wall
    part of `analyze`)."""
    return analyze(m, max_ext, seed, max_retries).wall


def singular_points(m, max_ext=8, seed=0, max_retries=24):
    """The certified singular points with their local polar multiplicities
    (the point part of `analyze`), as a list."""
    return list(analyze(m, max_ext, seed, max_retries).points)


# ---------------------------------------------------------------------------
# The rank-22 sublattice model and sampling
# ---------------------------------------------------------------------------

def ns_gram_model(m, max_ext=8):
    """Gram matrix of the rank-22 sublattice spanned by the resolution
    curves of the five singular points together with the polarization
    pair: five negative A4 chains plus [[2,1],[1,-2]], with chain labels
    tied to the singular points in their deterministic order."""
    points = _find_singular_points(m, max_ext)
    if len(points) != 5 or not all(p["is_A4"] for p in points):
        raise ValueError("model does not have five certified A4 points")
    labels = [f"e_{i + 1}^(P{j + 1})"
              for j in range(N_CHAINS) for i in range(CHAIN_LEN)]
    return GramLattice(gram=build_S0().gram, labels=tuple(labels + ["h", "l"]))


def random_in_U(field, seed, max_tries=1000):
    """Seeded rejection sampling of degree-6 polynomials with squarefree
    derivative; deterministic for a fixed seed."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        coeffs = [field.rand_elem(rng) for _ in range(6)]
        lead = field.zero
        while not any(lead):
            lead = field.rand_elem(rng)
        f = GFPoly(field, coeffs + [lead])
        if is_in_U(f):
            return SexticModel(field=field, f=f)
    raise RuntimeError("rejection sampling failed to find an admissible sextic")
