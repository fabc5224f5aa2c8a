"""Sextic curve pipeline: the admissibility test, singular points, local
intersection multiplicities, the degree product, and the lattice model.

The polar multiplicities are checked against Fulton's recursion in
`fulton_kernels.py`, which knows nothing of y^5 = f(x); their closed form,
one base-field test of f'(q0/q2), against the polar restriction h built
the long way and divided by x - alpha at every point."""

import itertools
import math
import random

import pytest

import charfive.curvecheck as curvecheck
from charfive.curvecheck import (
    GenericityError,
    SexticModel,
    _corrections_for,
    _polar_corrections,
    analyze,
    is_in_U,
    ns_gram_model,
    random_in_U,
    singular_points,
    verify_A4,
)
from charfive.ffpoly import (
    GF,
    GFPoly,
    NotSquarefreeError,
    embedding,
    parse_poly_literal,
    roots_in_extension,
)
from point_kernels import point_facts
from root_kernels import root_multiplicity, roots_in_field
from fulton_kernels import (
    Poly,
    check_infinity,
    fulton_corrections_for,
    homogeneous_equation,
    local_intersection_multiplicity,
    polar_of,
)

F5 = GF(1)
F25 = GF(2)

FIXTURE = parse_poly_literal("[0,0,1,0,0,0,1]@5")        # x^6 + x^2
#: the golden seed-7 sextic over GF(25): five conjugate points in GF(5^10)
SEED7 = parse_poly_literal("[[0,2],[4,0],[2,2],[0,4],[1,0],[2,0],[2,3]]@5^2")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_is_in_u_examples():
    assert not is_in_U(GFPoly.from_ints(F5, [0, 0, 0, 0, 0, 0, 1]))   # x^6
    assert not is_in_U(GFPoly.from_ints(F5, [0, 1, 0, 0, 0, 0, 1]))   # x^6 + x
    assert is_in_U(FIXTURE)
    with pytest.raises(ValueError):
        is_in_U(GFPoly.from_ints(F5, [1, 1]))


def test_is_in_u_matches_simple_roots():
    # gcd test against root multiplicities in the splitting field
    for seed in range(20):
        m = random_in_U(F5, seed)
        fp = m.f.derivative()
        recs = roots_in_extension(fp, 8)
        assert len(recs) == 5
        for r in recs:
            assert root_multiplicity(fp.map_coeffs(embedding(F5, r.field), r.field), r.value) == 1
    bad = GFPoly.from_ints(F5, [0, 0, 0, 0, 0, 0, 1])
    assert roots_in_field(bad.derivative()) == [(F5.zero, 5)]
    with pytest.raises(NotSquarefreeError):
        roots_in_extension(bad.derivative(), 8)


def test_sextic_model_validation():
    with pytest.raises(ValueError):
        SexticModel(GFPoly.from_ints(F5, [1, 1]))
    assert SexticModel(SEED7).field == SEED7.field == F25


# ---------------------------------------------------------------------------
# geometry at infinity and the vanishing y-derivative
# ---------------------------------------------------------------------------

def test_check_infinity():
    assert check_infinity(SexticModel(FIXTURE)) == (True, True)
    for seed in range(5):
        assert check_infinity(random_in_U(F25, seed)) == (True, True)


def test_y_partial_vanishes_identically():
    big = homogeneous_equation(SexticModel(FIXTURE))
    assert big.partial(1).is_zero()
    affine = big.chart(2)
    assert affine.partial(1).is_zero()


# ---------------------------------------------------------------------------
# singular points and A4 certificates
# ---------------------------------------------------------------------------

def test_singular_points_fixture():
    pts = analyze(SexticModel(FIXTURE)).points
    assert len(pts) == 5
    origin = pts[0]
    assert origin.alpha == F5.zero and origin.beta == F5.zero
    for p in pts:
        ext = p.field
        emb = embedding(F5, ext)
        f_ext = FIXTURE.map_coeffs(emb, ext)
        assert ext.pow(p.beta, 5) == f_ext.eval(p.alpha)
        assert not f_ext.derivative().eval(p.alpha)
        assert p.is_A4
        assert root_multiplicity(f_ext.derivative(), p.alpha) == 1
        assert p.local_mult_with_polar == 5


def test_singular_points_rejects_inadmissible():
    with pytest.raises(ValueError):
        analyze(SexticModel(GFPoly.from_ints(F5, [0, 0, 0, 0, 0, 0, 1])))


def test_verify_a4_examples():
    ok, g0 = verify_A4(FIXTURE, F5.zero)
    assert ok and g0 == F5.one                     # g = x^4 + 1 at 0
    # reconstruction oracle: f(alpha) + (x - alpha)^2 g(x) = f(x)
    x6 = GFPoly.from_ints(F5, [0, 0, 0, 0, 0, 0, 1])
    ok, g0 = verify_A4(x6, F5.zero)
    assert not ok and g0 == F5.zero
    with pytest.raises(ValueError):
        verify_A4(FIXTURE, F5.elem(1))             # f'(1) = 3 != 0


def test_verify_a4_reconstruction():
    fld = FIXTURE.field
    alpha = fld.zero
    shifted = FIXTURE - GFPoly(fld, [FIXTURE.eval(alpha)])
    lin = GFPoly(fld, [fld.neg(alpha), fld.one])
    g = (shifted // lin) // lin
    assert GFPoly(fld, [FIXTURE.eval(alpha)]) + lin * lin * g == FIXTURE
    assert g.eval(alpha) == verify_A4(FIXTURE, alpha)[1]


def _order_at(h, alpha):
    """The order of vanishing of a nonzero univariate h at x = alpha, by
    division by x - alpha: the oracle for `root_multiplicity`."""
    fld = h.field
    lin = GFPoly(fld, [fld.neg(alpha), fld.one])
    order = 0
    while True:
        h, rem = divmod(h, lin)
        if not rem.is_zero():
            return order
        order += 1


def verify_a4_by_division(f, alpha):
    """`verify_A4` by two divisions by x - alpha: the oracle."""
    fld = f.field
    if f.derivative().eval(alpha):
        raise ValueError("alpha is not a critical point of f")
    shifted = f - GFPoly(fld, [f.eval(alpha)])
    lin = GFPoly(fld, [fld.neg(alpha), fld.one])
    q1, r1 = divmod(shifted, lin)
    assert r1.is_zero()
    g, r2 = divmod(q1, lin)
    assert r2.is_zero()
    val = g.eval(alpha)
    return val != 0, val


def corrections_by_division(m, points, q):
    """`_corrections_for` with B'(alpha) evaluated from the derivative of B
    and ord_alpha h by division, each polynomial embedded at every point:
    the oracle.  It asserts the identity h = (q2 x - q0) f' on every draw
    that reaches it."""
    fld = m.field
    q0, q1, q2 = q
    if not (q0 or q2):
        return None
    f = m.f
    at_q = fld.mul(q2, fld.pow(q1, 5))
    for j, a in enumerate(f.coeffs):
        at_q = fld.sub(at_q, fld.mul(a, fld.mul(fld.pow(q0, j), fld.pow(q2, 6 - j))))
    if not at_q:
        return None
    fp = f.derivative()
    weighted = GFPoly(fld, [fld.mul(a, fld.elem((6 - j) % 5)) for j, a in enumerate(f.coeffs)])
    b = -(fp * q0) - weighted * q2
    h = f * q2 + b
    assert h == GFPoly(fld, [fld.neg(q0), q2]) * fp, "polar restriction is not (q2 x - q0) f'"
    db = b.derivative()
    mults = []
    for pt in points:
        emb = embedding(fld, pt.field)
        if not db.map_coeffs(emb, pt.field).eval(pt.alpha):
            return None
        mults.append(5 * _order_at(h.map_coeffs(emb, pt.field), pt.alpha))
    return mults


def _batch_models():
    """The 80 sextics of `tests/golden/curve_check_batch.jsonl`."""
    return [random_in_U(GF(k), seed) for k in (2, 1) for seed in range(40)]


def test_taylor_forms_match_division_oracles():
    """`verify_A4`, `_corrections_for` and `root_multiplicity`, which reads
    `taylor_coefficients`, against their division forms at every singular
    point of the 80 batch sextics, with ten seeded polar draws on each."""
    points_seen = draws = 0
    for m in _batch_models():
        fld = m.field
        points = singular_points(m, 8)
        for p in points:
            f_ext = m.f.map_coeffs(embedding(fld, p.field), p.field)
            assert verify_A4(f_ext, p.alpha) == verify_a4_by_division(f_ext, p.alpha)
            assert verify_A4(f_ext, p.alpha) == (p.is_A4, p.g_at_alpha)
            fp_ext = f_ext.derivative()
            assert root_multiplicity(fp_ext, p.alpha) == _order_at(fp_ext, p.alpha) == 1
            # f - f(alpha) vanishes doubly: the division loop runs past one step
            tail = f_ext - GFPoly(p.field, [f_ext.eval(p.alpha)])
            assert root_multiplicity(tail, p.alpha) == _order_at(tail, p.alpha) == 2
            points_seen += 1
        rng = random.Random(str(m.f))
        for _ in range(10):
            q = tuple(fld.rand_elem(rng) for _ in range(3))
            assert _corrections_for(m, points, q) == corrections_by_division(m, points, q)
            draws += 1
    assert points_seen == 400 and draws == 800


def test_beta_is_the_fifth_root_of_f_at_alpha_in_its_own_field():
    """beta^5 = f(alpha) and f'(alpha) = 0 at every point of the 80 batch
    sextics, each evaluated in the point's own field.  Equal element ints
    of two fields are different elements, so facts keyed by alpha alone
    would carry a beta across fields (seed 12 over GF(25), seeds 15 and 19
    over GF(5))."""
    checked = 0
    for m in _batch_models():
        for p in singular_points(m, 8):
            f_ext = m.f.map_coeffs(embedding(m.field, p.field), p.field)
            assert p.field.pow(p.beta, 5) == f_ext.eval(p.alpha), (m.f, p)
            assert not f_ext.derivative().eval(p.alpha)
            checked += 1
    assert checked == 400


#: (field degree, seeds) of the sextics for the orbit-leader checks; seed 6
#: over GF(625) has one orbit of five points in GF(5^20)
ORBIT_SEXTICS = ((1, range(30)), (2, range(30)), (3, range(10)), (4, (6, 0, 1, 2)))


def test_orbit_facts_match_per_point_oracle():
    """Facts mapped along Frobenius orbits against the facts computed at
    every point, and `_corrections_for` against the division oracle, which
    embeds h at every point, None included, draw by draw: ten seeded polar
    draws per sextic and, at each base-rational point alpha, three with
    q0 = q2 alpha, where the polar is singular.  A point counts as a
    conjugate when an earlier point of its field maps onto it under
    x -> x^(5^k)."""
    conjugates = draws = rejected = 0
    for k, seeds in ORBIT_SEXTICS:
        fld = GF(k)
        for seed in seeds:
            m = random_in_U(fld, seed)
            points = singular_points(m, 8)
            assert [(p.alpha, p.beta, p.is_A4, p.g_at_alpha)
                    for p in points] == point_facts(m, 8)
            for i, p in enumerate(points):
                images = set()
                for e in points[:i]:
                    if e.field == p.field:
                        alpha = e.alpha
                        for _ in range(p.field.degree // k):
                            alpha = p.field.frobenius(alpha, k)
                            images.add(alpha)
                conjugates += p.alpha in images
            rng = random.Random(f"{k}:{seed}")
            qs = [tuple(fld.rand_elem(rng) for _ in range(3)) for _ in range(10)]
            for p in points:
                if p.field == fld:
                    for _ in range(3):
                        q2 = fld.rand_elem(rng)
                        qs.append((fld.mul(q2, p.alpha), fld.rand_elem(rng), q2))
            for q in qs:
                got = _corrections_for(m, points, q)
                assert got == corrections_by_division(m, points, q), (m.f, q)
                draws += 1
                rejected += got is None
    assert conjugates > 150 and draws > 900 and rejected > 100, (conjugates, draws, rejected)


def test_a4_iff_simple_critical_point():
    for seed in range(10):
        m = random_in_U(F25, seed + 100)
        for rec in roots_in_extension(m.f.derivative(), 8):
            ext = rec.field
            f_ext = m.f.map_coeffs(embedding(F25, ext), ext)
            ok, _ = verify_A4(f_ext, rec.value)
            assert ok == (root_multiplicity(f_ext.derivative(), rec.value) == 1)


# ---------------------------------------------------------------------------
# local intersection multiplicities
# ---------------------------------------------------------------------------

def p2(field, terms):
    return Poly(field, {k: field.elem(c % 5) for k, c in terms.items()})


def test_imult_basic():
    y = p2(F5, {(0, 1): 1})
    x = p2(F5, {(1, 0): 1})
    assert local_intersection_multiplicity(y, x) == 1
    cusp = p2(F5, {(0, 2): 1, (3, 0): -1})
    assert local_intersection_multiplicity(cusp, y) == 3
    assert local_intersection_multiplicity(cusp, x) == 2
    # away from the intersection the multiplicity vanishes
    assert local_intersection_multiplicity(y, x, (F5.elem(1), F5.elem(1))) == 0


def test_imult_shared_component():
    x = p2(F5, {(1, 0): 1})
    xy = p2(F5, {(1, 1): 1})
    assert local_intersection_multiplicity(x, x) == math.inf
    assert local_intersection_multiplicity(xy, x) == math.inf
    zero = Poly(F5)
    assert local_intersection_multiplicity(zero, x) == math.inf


def test_imult_translation():
    # the parabola y = x^2 meets its tangent line y = 0 doubly at the origin;
    # translating both curves moves the multiplicity with the point
    parabola = p2(F5, {(0, 1): 1, (2, 0): -1})
    line = p2(F5, {(0, 1): 1})
    assert local_intersection_multiplicity(parabola, line) == 2
    moved_parabola = parabola.shift(F5.elem(-2 % 5), F5.elem(-1 % 5))
    moved_line = line.shift(F5.elem(-2 % 5), F5.elem(-1 % 5))
    assert local_intersection_multiplicity(
        moved_parabola, moved_line, (F5.elem(2), F5.elem(1))) == 2


def test_imult_a4_point_with_polar():
    m = SexticModel(FIXTURE)
    big = homogeneous_equation(m)
    polar = polar_of(m, (F5.one, F5.zero, F5.zero))  # the f'-polar
    curve2 = big.chart(2)
    polar2 = polar.chart(2)
    assert local_intersection_multiplicity(
        curve2, polar2, (F5.zero, F5.zero)) == 5


def _polar_draws():
    """(model, points, q): every nonzero q in F5^3 on twelve GF(5) sextics;
    on four GF(25) sextics 60 seeded q each and, at each base-rational
    singular point alpha, ten planted q with q0 = q2 alpha, where the polar
    is singular at the point; on the first three of them also [1:0:0],
    [0:0:1] and two q from one shared seeded stream; and the fixture with
    [0:0:1], whose polar x f' is degenerate at the origin."""
    for seed in range(12):
        m = random_in_U(F5, seed)
        points = singular_points(m, 8)
        for q in itertools.product(range(5), repeat=3):
            if any(q):
                yield m, points, tuple(F5.elem(c) for c in q)
    for seed in range(4):
        m = random_in_U(F25, seed)
        points = singular_points(m, 8)
        rng = random.Random(seed)
        for _ in range(60):
            yield m, points, tuple(F25.rand_elem(rng) for _ in range(3))
        for p in points:
            if p.field == F25:
                for _ in range(10):
                    q2 = F25.rand_elem(rng)
                    yield m, points, (F25.mul(q2, p.alpha), F25.rand_elem(rng), q2)
    rng = random.Random(2)
    for seed in range(3):
        m = random_in_U(F25, seed)
        points = singular_points(m, 8)
        qs = [(1, 0, 0), (0, 0, 1)] + [
            tuple(F25.coefficients(F25.rand_elem(rng)) for _ in range(3)) for _ in range(2)]
        for q in qs:
            yield m, points, tuple(F25.elem(c) for c in q)
    m = SexticModel(FIXTURE)
    yield m, singular_points(m, 8), (F5.zero, F5.zero, F5.one)


def test_corrections_match_fulton_draw_by_draw():
    """The same draws are rejected and the rest get the same multiplicities,
    so `attempts` and `polar_point` of every report are Fulton's."""
    draws = rejected = 0
    for m, points, q in _polar_draws():
        got = _corrections_for(m, points, q)
        assert got == fulton_corrections_for(m, points, q), (m.f, q)
        draws += 1
        rejected += got is None
    assert draws == 1771 and rejected > 500


# ---------------------------------------------------------------------------
# the degree product
# ---------------------------------------------------------------------------

def test_wall_fixture():
    w = analyze(SexticModel(FIXTURE)).wall
    assert w.total == 30
    assert w.corrections == (5, 5, 5, 5, 5)
    assert w.product == 5
    again = analyze(SexticModel(FIXTURE)).wall
    assert again == w                       # deterministic for a fixed seed


def test_each_polynomial_embedded_once_per_field(monkeypatch):
    """On the seed-7 sextic, whose five points share GF(5^10), f is embedded
    once per `singular_points` call, and the polar pass, decided in the
    base field, embeds nothing."""
    calls = []
    real = curvecheck.embedding
    monkeypatch.setattr(curvecheck, "embedding",
                        lambda src, dst: calls.append(dst) or real(src, dst))
    m = SexticModel(SEED7)
    points = singular_points(m, 8)
    assert len(points) == 5 and {p.field.degree for p in points} == {10}
    assert len(calls) == 1
    rng = random.Random(7)
    calls.clear()
    accepted = 0
    for _ in range(30):
        q = tuple(F25.rand_elem(rng) for _ in range(3))
        mults = _corrections_for(m, points, q)
        if mults is not None:
            assert mults == [5] * 5
            accepted += 1
    assert accepted > 20
    _q, mults, _attempts = _polar_corrections(m, points, 0)
    assert mults == [5] * 5 and calls == []


def test_wall_retry_budget(monkeypatch):
    monkeypatch.setattr(curvecheck, "MAX_POLAR_DRAWS", 0)
    with pytest.raises(GenericityError):
        analyze(SexticModel(FIXTURE))


# ---------------------------------------------------------------------------
# the lattice model and sampling
# ---------------------------------------------------------------------------

def test_ns_gram_model():
    points = singular_points(SexticModel(FIXTURE), 8)
    lat = ns_gram_model(points)
    assert lat.rank == 22
    assert lat.det() == -(5 ** 6)
    assert lat.signature() == (1, 21)
    assert all(lat.gram[i][i] % 2 == 0 for i in range(22))
    # five chains tied to the points, orthogonal to the rank-2 block
    assert lat.labels[0] == "e_1^(P1)"
    assert lat.labels[16] == "e_1^(P5)"
    assert lat.labels[20:] == ("h", "l")
    for i in range(20):
        for j in (20, 21):
            assert lat.gram[i][j] == 0
    assert ns_gram_model(analyze(SexticModel(FIXTURE)).points) == lat
    for bad in (points[:4], [*points[:4], points[4]._replace(is_A4=False)]):
        with pytest.raises(ValueError):
            ns_gram_model(bad)


def test_each_sextic_is_root_found_once(monkeypatch):
    """`analyze` and then `ns_gram_model` on its points, as the demo runs
    them: one `roots_in_extension` call in all."""
    calls = []
    real = curvecheck.roots_in_extension
    monkeypatch.setattr(curvecheck, "roots_in_extension",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for f in (FIXTURE, SEED7):
        calls.clear()
        report = analyze(SexticModel(f))
        assert ns_gram_model(report.points).rank == 22
        assert len(calls) == 1


def test_random_in_u_deterministic():
    a = random_in_U(F5, 1)
    b = random_in_U(F5, 1)
    assert a.f == b.f
    assert is_in_U(a.f)
    c = random_in_U(F5, 2)
    assert c.f != a.f


def test_random_in_u_batch_count():
    """Batch self-check: seeded samples always have five singular points
    over the closure (the derivative is a squarefree quintic)."""
    for seed in range(1000):
        m = random_in_U(F25, seed)
        pts = singular_points(m, 8)
        assert len(pts) == 5
        assert all(p.is_A4 for p in pts)
