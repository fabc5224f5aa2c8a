"""Degree-6 plane curves y^5 = f(x) in characteristic 5: the squarefree
derivative test, location and certification of the five A4 singular
points, local intersection multiplicities with a polar curve, the
30 - sum(corrections) product, and the rank-22 sublattice model of the
Neron-Severi group.

All point computations take place over explicit finite extensions; a
point whose first coordinate generates a degree-m extension of the base
field is handled entirely inside that field, so that the curve, the
polar and the point share one coefficient ring.  The model and the
reports are named tuples.
"""

import random
from collections import namedtuple

from .ffpoly import (
    GFPoly,
    NotSquarefreeError,
    embedding,
    is_squarefree,
    roots_in_extension,
    taylor_coefficients,
)
from .lattice import CHAIN_LEN, N_CHAINS, GramLattice, build_S0


class GenericityError(RuntimeError):
    """No admissible polar point was found within MAX_POLAR_DRAWS draws."""


class OutsideUError(ValueError):
    """f' has a repeated root: the sextic lies outside U."""


#: polar points drawn from the base field before `analyze` gives up
MAX_POLAR_DRAWS = 24


# ---------------------------------------------------------------------------
# The sextic models
# ---------------------------------------------------------------------------

class SexticModel(namedtuple("SexticModel", "f")):
    """The plane curve y^5 = f(x), f a GFPoly; deg f = 6 makes [0:1:0] its
    only, and smooth, point at infinity."""

    __slots__ = ()

    def __new__(cls, f):
        if f.degree != 6:
            raise ValueError("defining polynomial must have degree 6")
        return super().__new__(cls, f)

    @property
    def field(self):
        return self.f.field


def is_in_U(f):
    """True iff deg f = 6 and f' (a quintic in characteristic 5) is squarefree."""
    if f.degree != 6:
        raise ValueError("polynomial must have degree 6")
    return is_squarefree(f.derivative())


class SingularPointReport(namedtuple(
        "SingularPointReport",
        "alpha beta field subfield_degree is_A4 g_at_alpha orbit_leader local_mult_with_polar",
        defaults=(None,))):
    """The point (alpha, beta) over `field` with its A4 certificate g(alpha),
    the index of the first point of its orbit, and the local multiplicity
    with the polar that `analyze` fills in."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "alpha": _elem_json(self.field, self.alpha),
            "beta": _elem_json(self.field, self.beta),
            "field_degree": self.field.degree,
            "subfield_degree": self.subfield_degree,
            "is_A4": self.is_A4,
            "mult": self.local_mult_with_polar,
        }


def _elem_json(field, a):
    return a if field.degree == 1 else list(field.coefficients(a))


def verify_A4(f, alpha):
    """Certify the singular point above a critical value.

    Reads f'(alpha) (which must vanish) and g(alpha), where
    f = f(alpha) + (x - alpha)^2 g(x), from f(x + alpha), and returns
    (g(alpha) != 0, g(alpha)).  A nonzero g(alpha) is exactly the A4
    condition for the point (alpha, f(alpha)^(1/5)).
    """
    _f_alpha, d1, g_val = taylor_coefficients(f, alpha, 3)
    if d1:
        raise ValueError("alpha is not a critical point of f")
    return g_val != 0, g_val


def singular_points(m, max_ext):
    """Points (alpha, f(alpha)^(1/5)) with the A4 certificate, each over the
    minimal extension containing alpha, in the order of `roots_in_extension`
    (field degree, then alpha); no polar data yet.  Each sextic is
    root-found here once: `analyze` and `ns_gram_model` read these records.

    f has coefficients in the base field GF(5^k), so the Frobenius
    x -> x^(5^k) carries the facts at alpha to those at its conjugates:
    they are computed at the first point of each orbit, its leader, and
    mapped to the others.

    f is in U iff its derivative, of degree 5, is squarefree.
    `roots_in_extension` decides that with the one gcd(f', f'') it takes
    per monic f' and process, before any splitting, and raises
    NotSquarefreeError, which becomes OutsideUError, for f outside U; a
    SplittingFieldError therefore means f is in U.
    """
    try:
        roots = roots_in_extension(m.f.derivative(), max_ext)
    except NotSquarefreeError:
        raise OutsideUError("polynomial is outside the admissible open set") from None
    k = m.field.degree
    f_in = {ext: m.f.map_coeffs(embedding(m.field, ext), ext)
            for ext in {rec.field for rec in roots}}
    # (field, alpha) -> (beta, g(alpha), leader): equal ints in two fields
    # are different elements
    points, facts = [], {}
    for rec in roots:
        fld, alpha = rec.field, rec.value
        if (fld, alpha) not in facts:
            g_val = verify_A4(f_in[fld], alpha)[1]
            beta = fld.fifth_root(f_in[fld].eval(alpha))
            while (fld, alpha) not in facts:
                facts[fld, alpha] = beta, g_val, len(points)
                alpha, beta, g_val = (fld.frobenius(c, k) for c in (alpha, beta, g_val))
        beta, g_val, leader = facts[fld, rec.value]
        points.append(SingularPointReport(
            alpha=rec.value, beta=beta, field=fld, subfield_degree=rec.subfield_degree,
            is_A4=g_val != 0, g_at_alpha=g_val, orbit_leader=leader))
    return points


# ---------------------------------------------------------------------------
# Polar curves and the degree product
# ---------------------------------------------------------------------------

def _corrections_for(m, points, q):
    """Local multiplicities of the curve with the polar of q at every
    singular point, or None when q is degenerate: the polar is zero, q lies
    on the curve, or the polar is singular at one of the points.

    In the chart w2 = 1 the polar q0 dF/dw0 + q2 dF/dw2 of
    F = w2 w1^5 - sum_j a_j w0^j w2^(6-j) is q2 y^5 + B(x) (dF/dw1 = 5 w1^4 w2
    vanishes), and on y^5 = f it restricts to h = q2 f + B = (q2 x - q0) f'.
    y^5 - f(alpha) is a fifth power, so the curve has one point above a root
    alpha of f' and the multiplicity there is 5 ord_alpha h (the resultant
    in y; Fulton, Algebraic Curves, 3.3).  One expansion of h(x + alpha)
    gives both: its constant term is zero with f'(alpha) (checked), and its
    x-coefficient q2 f'(alpha) + B'(alpha) = B'(alpha) is zero iff the
    polar is singular there; otherwise ord_alpha h = 1.  h has
    base-field coefficients, so a conjugate point takes both from its
    orbit leader.
    """
    fld = m.field
    q0, q1, q2 = q
    if not (q0 or q2):
        return None                         # the polar is zero
    f = m.f
    at_q = fld.mul(q2, fld.pow(q1, 5))      # F(q)
    for j, a in enumerate(f.coeffs):
        at_q = fld.sub(at_q, fld.mul(a, fld.mul(fld.pow(q0, j), fld.pow(q2, 6 - j))))
    if not at_q:
        return None                         # polar point lies on the curve
    fp = f.derivative()
    weighted = GFPoly(fld, [fld.mul(a, fld.elem((6 - j) % 5)) for j, a in enumerate(f.coeffs)])
    b = -(fp * q0) - weighted * q2
    h = f * q2 + b
    if h != GFPoly(fld, [fld.neg(q0), q2]) * fp:
        raise AssertionError("polar restriction is not (q2 x - q0) f'")
    h_in = {ext: h.map_coeffs(embedding(fld, ext), ext)
            for ext in {pt.field for pt in points}}
    mults = []
    for pt in points:
        if pt.orbit_leader < len(mults):
            mults.append(mults[pt.orbit_leader])
            continue
        h0, h1 = taylor_coefficients(h_in[pt.field], pt.alpha, 2)
        if not h1:
            return None                     # polar is singular at the point
        if h0:
            raise AssertionError("polar restriction does not vanish at a root of f'")
        mults.append(5)                     # 5 ord_alpha h, and h1 != 0
    return mults


class WallReport(namedtuple(
        "WallReport", "degree total corrections product polar_point attempts field")):
    """The degree product: total = d(d-1) minus the corrections gives
    product, for the polar of polar_point (three elements of `field`),
    found at draw number `attempts`."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "total": self.total,
            "corrections": list(self.corrections),
            "product": self.product,
            "polar_point": [_elem_json(self.field, c) for c in self.polar_point],
            "attempts": self.attempts,
        }


def _polar_corrections(m, points, seed):
    """Draw polar points from the base field until one passes every
    degeneracy check; returns (q, multiplicities, attempts)."""
    fld = m.field
    rng = random.Random(seed)
    for attempt in range(1, MAX_POLAR_DRAWS + 1):
        q = (fld.rand_elem(rng), fld.rand_elem(rng), fld.rand_elem(rng))
        mults = _corrections_for(m, points, q)
        if mults is not None:
            return q, mults, attempt
    raise GenericityError(
        f"no admissible polar point after {MAX_POLAR_DRAWS} draws (seed {seed})")


#: the SingularPointReports of one sextic, in deterministic order, and its WallReport
CurveReport = namedtuple("CurveReport", "points wall")


def analyze(m, max_ext=8, seed=0):
    """The singular points and the degree product of one sextic, from a
    single root-finding pass and a single polar draw.

    The points are certified over the algebraic closure (realized as
    explicit finite extensions) and carry their local polar
    multiplicities.  The polar point is drawn from the base field with an
    explicit seed and rejected on any detected degeneracy (point on the
    curve, polar singular at a singular point of the curve, or identically
    zero polar), and GenericityError is raised after MAX_POLAR_DRAWS
    rejected draws.  Every draw stays base-rational so that each singular
    point is handled inside its own extension tower.  A sextic outside U
    raises OutsideUError.
    """
    points = singular_points(m, max_ext)
    q, mults, attempts = _polar_corrections(m, points, seed)
    reports = tuple(pt._replace(local_mult_with_polar=mult)
                    for pt, mult in zip(points, mults))
    total = 6 * 5
    wall = WallReport(
        degree=6,
        total=total,
        corrections=tuple(mults),
        product=total - sum(mults),
        polar_point=q,
        attempts=attempts,
        field=m.field,
    )
    return CurveReport(points=reports, wall=wall)


# ---------------------------------------------------------------------------
# The rank-22 sublattice model and sampling
# ---------------------------------------------------------------------------

def ns_gram_model(points):
    """Gram matrix of the rank-22 sublattice spanned by the resolution
    curves of the five singular points together with the polarization
    pair: five negative A4 chains plus [[2,1],[1,-2]], with chain labels
    tied to the singular points in their deterministic order.  `points`
    are the records of `singular_points` or `CurveReport.points`."""
    if len(points) != 5 or not all(p.is_A4 for p in points):
        raise ValueError("model does not have five certified A4 points")
    labels = [f"e_{i + 1}^(P{j + 1})"
              for j in range(N_CHAINS) for i in range(CHAIN_LEN)]
    return GramLattice(gram=build_S0().gram, labels=tuple(labels + ["h", "l"]))


def random_in_U(field, seed):
    """Seeded rejection sampling of degree-6 polynomials with squarefree
    derivative; deterministic for a fixed seed."""
    rng = random.Random(seed)
    for _ in range(1000):
        coeffs = [field.rand_elem(rng) for _ in range(6)]
        lead = field.zero
        while not lead:
            lead = field.rand_elem(rng)
        f = GFPoly(field, coeffs + [lead])
        if is_in_U(f):
            return SexticModel(f)
    raise RuntimeError("rejection sampling failed to find an admissible sextic")
