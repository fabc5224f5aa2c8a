"""Field arithmetic in GF(5^k), polynomial gcds, fifth roots, root finding."""

import itertools
import random

import pytest

import charfive.ffpoly as ffpoly
import gf_kernels as oracle
import root_kernels
from charfive.ffpoly import (
    GF,
    GFPoly,
    MAX_LITERAL_DEGREE,
    P,
    TABLE_MAX_ORDER,
    NotSquarefreeError,
    RootInExtension,
    SplittingFieldError,
    _embedding_image,
    _f5_is_irreducible,
    _fifth_power_table,
    _search_modulus,
    _split_orbits,
    embedding,
    format_poly_literal,
    is_squarefree,
    parse_poly_literal,
    poly_gcd,
    roots_in_extension,
    subfield_degree,
    taylor_coefficients,
)

F5 = GF(1)
F25 = GF(2)


def test_prime_field_basics():
    assert F5.add(F5.elem(2), F5.elem(4)) == F5.elem(1)
    assert F5.inv(F5.elem(2)) == F5.elem(3)
    assert F5.mul(F5.elem(3), F5.elem(4)) == F5.elem(2)
    assert F5.pow(F5.elem(2), 4) == F5.elem(1)
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5.zero)
    # an int is a residue 0..4, not an element int read mod 5
    with pytest.raises(ValueError):
        F25.elem(7)
    with pytest.raises(ValueError):
        F25.elem(F25.one)


def test_field_axioms_random():
    rng = random.Random(12)
    for k in (1, 2, 3, 4):
        fld = GF(k)
        for _ in range(200):
            a = fld.rand_elem(rng)
            b = fld.rand_elem(rng)
            c = fld.rand_elem(rng)
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.mul(a, b) == fld.mul(b, a)
            if a:
                assert fld.mul(a, fld.inv(a)) == fld.one
            assert fld.sub(fld.add(a, b), b) == a


#: every shipped degree, both sides of the widening of the packed kernel's
#: one-byte slots (k <= 15), and two folds on two-byte slots (20, 30, 60)
CORE_DEGREES = tuple(range(1, 13)) + (15, 16, 20, 30, 60)

#: dense moduli, which the packed kernel folds k - 1 times: (t^7 - 1)/(t - 1),
#: irreducible since 5 has order 6 mod 7, and one of degree 12
DENSE_MODULI = ((1,) * 7, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 1))


@pytest.mark.parametrize("k", tuple(range(1, 13)) + (16, 20))
def test_elements_are_big_endian_coefficient_ints(k):
    """An element is the int with base-256 digits c0, c1, ... (c0 highest):
    `coefficients` inverts `elem`, int order is tuple order on 500 seeded
    elements, `from_int(code)` has the base-5 digits of code with c0
    lowest, and zero is the only falsy element."""
    fld = GF(k)
    rng = random.Random(4000 + k)
    tuples = [tuple(rng.randrange(P) for _ in range(k)) for _ in range(500)]
    tuples += [(0,) * k, (1,) + (0,) * (k - 1), (P - 1,) * k]
    elems = [fld.elem(t) for t in tuples]
    assert [fld.coefficients(a) for a in elems] == tuples
    assert all(a == int.from_bytes(bytes(t), "big") for a, t in zip(elems, tuples))
    assert sorted(elems) == [fld.elem(t) for t in sorted(tuples)]
    assert (fld.zero, fld.one) == (fld.elem((0,) * k), fld.elem((1,))) == (0, 256 ** (k - 1))
    for code in [rng.randrange(fld.order) for _ in range(100)] + [0, 1, fld.order - 1]:
        assert fld.coefficients(fld.from_int(code)) == tuple(code // P ** i % P for i in range(k))
    assert [bool(a) for a in elems] == [any(t) for t in tuples]


@pytest.mark.parametrize("k, modulus", [pytest.param(k, None, id=str(k)) for k in CORE_DEGREES]
                         + [pytest.param(len(m) - 1, m, id=f"{len(m) - 1}-dense")
                            for m in DENSE_MODULI])
def test_core_matches_tuple_oracle(k, modulus):
    """Tables (q <= TABLE_MAX_ORDER) and the packed kernel (above) against
    the schoolbook tuple arithmetic, on seeded random pairs, each element
    compared through its coefficient tuple; the default modulus of each
    degree, and the dense ones."""
    fld = GF(k, modulus)
    m, co = fld.modulus, fld.coefficients
    rng = random.Random(1000 + k)
    top = fld.elem((P - 1,) * k)    # the largest slot sums the packed kernel forms
    pairs = [(top, top), (top, fld.one)]
    pairs += [(fld.rand_elem(rng), fld.rand_elem(rng)) for _ in range(120)]
    for a, b in pairs:
        ta, tb = co(a), co(b)
        assert co(fld.mul(a, b)) == oracle.mul(m, ta, tb)
        assert co(fld.add(a, b)) == oracle.add(ta, tb)
        assert co(fld.sub(a, b)) == oracle.sub(ta, tb)
        assert co(fld.neg(b)) == oracle.sub(co(fld.zero), tb)
        if b:
            assert co(fld.inv(b)) == oracle.inv(m, tb)
            assert co(fld.mul(a, fld.inv(b))) == oracle.mul(m, ta, oracle.inv(m, tb))
        e = rng.randrange(-7, 40)
        if a:
            base = ta if e >= 0 else oracle.inv(m, ta)
            assert co(fld.pow(a, e)) == oracle.pow_(m, base, abs(e))


def test_zech_sums_match_tuple_oracle():
    """`add`, `sub` and `neg` of the table fields (Zech logarithms) against
    the tuple oracle: every pair in GF(5), GF(25) and GF(125); 2000 seeded
    pairs in GF(625) and GF(3125), a quarter each with a zero operand, with
    a = b and with a = -b."""
    for k in (1, 2, 3, 4, 5):
        fld = GF(k)
        co = fld.coefficients
        assert fld._zech is not None
        if k <= 3:
            elems = [fld.from_int(i) for i in range(fld.order)]
            pairs = list(itertools.product(elems, repeat=2))
        else:
            rng = random.Random(3000 + k)
            pairs = [(fld.zero, fld.zero)]
            for i in range(1999):
                a = fld.rand_elem(rng)
                minus_a = fld.elem(oracle.sub(co(fld.zero), co(a)))
                b = (fld.zero, a, minus_a, fld.rand_elem(rng))[i % 4]
                pairs.append((a, b) if i % 8 < 4 else (b, a))
        for a, b in pairs:
            assert co(fld.add(a, b)) == oracle.add(co(a), co(b))
            assert co(fld.sub(a, b)) == oracle.sub(co(a), co(b))
            assert co(fld.neg(b)) == oracle.sub(co(fld.zero), co(b))


@pytest.mark.parametrize("k", CORE_DEGREES)
def test_core_field_laws(k):
    fld = GF(k)
    zero, one = fld.zero, fld.one
    rng = random.Random(2000 + k)
    assert fld.mul(zero, zero) == zero and fld.mul(one, one) == one
    assert fld.pow(zero, 0) == one and fld.pow(zero, 3) == zero
    with pytest.raises(ZeroDivisionError):
        fld.inv(zero)
    with pytest.raises(ZeroDivisionError):
        fld.pow(zero, -1)
    for _ in range(60):
        a, b, c = fld.rand_elem(rng), fld.rand_elem(rng), fld.rand_elem(rng)
        assert fld.mul(a, zero) == zero and fld.mul(one, a) == a
        assert fld.add(a, zero) == a and fld.sub(a, a) == zero
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.coefficients(fld.frobenius(a)) \
            == oracle.pow_(fld.modulus, fld.coefficients(a), 5)
        assert fld.fifth_root(fld.frobenius(a)) == a
        if a:
            assert fld.mul(a, fld.inv(a)) == one


@pytest.mark.parametrize("a, b", [(a, b) for b in range(1, 11) for a in range(1, b + 1)
                                  if b % a == 0])
def test_embedding_is_a_ring_homomorphism(a, b):
    src, dst = GF(a), GF(b)
    emb = embedding(src, dst)
    rng = random.Random(100 * a + b)
    assert emb(src.zero) == dst.zero and emb(src.one) == dst.one
    for _ in range(25):
        x, y = src.rand_elem(rng), src.rand_elem(rng)
        assert emb(src.add(x, y)) == dst.add(emb(x), emb(y))
        assert emb(src.mul(x, y)) == dst.mul(emb(x), emb(y))


def test_antilog_lists_each_nonzero_element_once():
    for k in range(1, 13):
        fld = GF(k)
        if fld.order > TABLE_MAX_ORDER:
            assert fld._log is None
            continue
        q = fld.order
        powers = fld._antilog[:q - 1]
        assert sorted(powers) == sorted(map(fld.from_int, range(q)))[1:]
        assert fld._antilog[q - 1:2 * (q - 1)] == powers
        assert all(fld._log[x] == i for i, x in enumerate(powers))
        assert fld._log[fld.zero] == 2 * (q - 1)
        assert set(fld._antilog[2 * (q - 1):]) == {fld.zero}
    assert GF(6)._log is None    # the cap is 5^5


#: the default modulus (c0, c1, ..., 1) of each degree a literal may name,
#: the smallest monic irreducible in (c0, c1, ...) order
MODULI = {
    1: (0, 1),
    2: (2, 0, 1),
    3: (1, 1, 0, 1),
    4: (2, 0, 0, 0, 1),
    5: (1, 4, 0, 0, 0, 1),
    6: (2, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (2, 0, 0, 0, 0, 0, 0, 0, 1),
    9: (3, 2, 1, 0, 0, 0, 0, 0, 0, 1),
    10: (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


def test_moduli_are_the_canonical_data():
    """The searched default of every literal degree against the table, and
    for k <= 3 every smaller candidate against the brute-force factor search."""
    assert sorted(MODULI) == list(range(1, MAX_LITERAL_DEGREE + 1))
    for k, mod in MODULI.items():
        assert _f5_is_irreducible(mod)
        assert GF(k).modulus == _search_modulus(k) == mod
    for k in (2, 3):
        for low in itertools.product(range(P), repeat=k):
            m = list(reversed(low)) + [1]
            if tuple(m) == MODULI[k]:
                break
            assert _has_monic_factor(m), m
    # an irreducible whose fold would carry out of a one-byte slot: with
    # -r = 1 + 4t + ... + 4t^16, t^16 * 4(1 + ... + t^16) sums 260 in slot 16
    with pytest.raises(ValueError, match="past degree 16"):
        GF(17, (4,) + (1,) * 17)


def test_rabin_builds_one_kronecker_per_candidate(monkeypatch):
    """Rabin's test reads the map x -> x^5 from one `_Kronecker` per
    candidate: 9 for the 9 candidates of degree 9 it tests, 14 for the 14
    of degree 10.  The moduli found are the canonical ones."""
    GF(1)                               # the gcds run over GF(5), built first
    built, tested = [], []
    real_kronecker, real_test = ffpoly._Kronecker, ffpoly._f5_is_irreducible
    monkeypatch.setattr(ffpoly, "_Kronecker",
                        lambda m: built.append(len(m) - 1) or real_kronecker(m))
    monkeypatch.setattr(ffpoly, "_f5_is_irreducible",
                        lambda m: tested.append(len(m) - 1) or real_test(m))
    try:
        for k, candidates in ((9, 9), (10, 14)):
            built.clear(), tested.clear()
            _search_modulus.cache_clear()
            assert _search_modulus(k) == MODULI[k]
            # clearing the cache also makes GF(5) search again, with no kernel
            assert [d for d in tested if d > 1] == built == [k] * candidates
    finally:
        _search_modulus.cache_clear()


#: k -> {i: c_i}, the nonzero coefficients of the modulus `_search_modulus(k)`
#: returns for fields past MAX_LITERAL_DEGREE, recorded from the search without
#: its filter on roots in F5
SEARCHED_MODULI = {
    13: {0: 2, 1: 3, 2: 1, 13: 1},
    16: {0: 2, 16: 1},
    20: {0: 1, 1: 1, 2: 1, 20: 1},
    24: {0: 1, 1: 4, 3: 1, 24: 1},
    30: {0: 3, 1: 1, 3: 1, 30: 1},
}


@pytest.mark.parametrize("k", sorted(SEARCHED_MODULI))
def test_searched_moduli_are_pinned(k):
    expected = tuple(SEARCHED_MODULI[k].get(i, 0) for i in range(k + 1))
    assert _search_modulus(k) == expected


def _has_monic_factor(m):
    """Brute force: some monic polynomial of degree 1..deg(m)/2 divides m."""
    k = len(m) - 1
    return any(not oracle.f5_mod(m, list(low) + [1])
               for d in range(1, k // 2 + 1)
               for low in itertools.product(range(P), repeat=d))


def test_irreducibility_matches_factor_search():
    """Rabin's test on all 780 monic polynomials of degree 1-4 over F5,
    against a search for a monic factor with the schoolbook division."""
    counts = {}
    for k in range(1, 5):
        for low in itertools.product(range(P), repeat=k):
            m = list(low) + [1]
            irreducible = _f5_is_irreducible(m)
            assert irreducible == (not _has_monic_factor(m)), m
            counts[k] = counts.get(k, 0) + irreducible
    # (1/k) sum_{d | k} mu(k/d) 5^d monic irreducibles of degree k
    assert counts == {1: 5, 2: 10, 3: 40, 4: 150}


def test_irreducibility_gcd_step_rejects_product_of_cubics():
    """(t^3 + t + 1)(t^3 + t^2 + 1) satisfies t^(5^6) = t: only the gcd
    with t^(5^3) - t sees that it is reducible."""
    cubics = ([1, 1, 0, 1], [1, 0, 1, 1])
    assert all(_f5_is_irreducible(c) and not _has_monic_factor(c) for c in cubics)
    m = oracle.f5_mul(*cubics)
    t = (0, 1, 0, 0, 0, 0)
    assert oracle.pow_(tuple(m), t, P ** 6) == t
    assert not _f5_is_irreducible(m)
    with pytest.raises(ValueError):
        GF(6, m)


def test_gf_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GF(2, (1, 0, 1))          # t^2 + 1 = (t-2)(t-3) over F5


def test_poly_gcd_examples():
    u = GFPoly.from_ints(F5, [4, 0, 1])      # x^2 + 4 = (x-1)(x+1)
    v = GFPoly.from_ints(F5, [4, 1])         # x + 4 = x - 1
    assert poly_gcd(u, v) == v.monic()
    zero = GFPoly(F5, [])
    w = GFPoly.from_ints(F5, [0, 3])
    assert poly_gcd(w, zero) == w.monic()
    with pytest.raises(ValueError):
        poly_gcd(zero, zero)


def test_poly_gcd_divides_both():
    rng = random.Random(9)
    for _ in range(100):
        fld = GF(rng.choice((1, 2)))
        u = GFPoly(fld, [fld.rand_elem(rng) for _ in range(rng.randint(1, 7))])
        v = GFPoly(fld, [fld.rand_elem(rng) for _ in range(rng.randint(1, 7))])
        if u.is_zero() and v.is_zero():
            continue
        g = poly_gcd(u, v)
        if not u.is_zero():
            assert (u % g).is_zero()
        if not v.is_zero():
            assert (v % g).is_zero()


def test_poly_divmod_roundtrip():
    rng = random.Random(10)
    for _ in range(100):
        fld = GF(rng.choice((1, 2, 3)))
        u = GFPoly(fld, [fld.rand_elem(rng) for _ in range(rng.randint(0, 8))])
        v = GFPoly(fld, [fld.rand_elem(rng) for _ in range(rng.randint(1, 5))])
        if v.is_zero():
            continue
        q, r = divmod(u, v)
        assert q * v + r == u
        assert r.is_zero() or r.degree < v.degree


def test_is_squarefree_examples():
    assert not is_squarefree(GFPoly.from_ints(F5, [1, 0, 0, 0, 0, 1]))  # (x+1)^5
    assert is_squarefree(GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1]))      # x^5 + 2x
    assert not is_squarefree(GFPoly.from_ints(F5, [0, 0, 1]))           # x^2
    assert is_squarefree(GFPoly.from_ints(F5, [3]))
    with pytest.raises(ValueError):
        is_squarefree(GFPoly(F5, []))


def test_fifth_root():
    for c in range(5):
        assert F5.fifth_root(F5.elem(c)) == F5.elem(c)    # Fermat: c^5 = c
    assert F25.fifth_root(F25.zero) == F25.zero
    for a in map(F25.from_int, range(F25.order)):
        r = F25.fifth_root(a)
        assert F25.pow(r, 5) == a
    rng = random.Random(4)
    f125 = GF(3)
    for _ in range(100):
        a = f125.rand_elem(rng)
        b = f125.rand_elem(rng)
        assert f125.fifth_root(f125.mul(a, b)) \
            == f125.mul(f125.fifth_root(a), f125.fifth_root(b))


def test_roots_in_field_exhaustive_and_cz():
    u = GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1])          # x(x^4 + 2)
    assert root_kernels.roots_in_field(u) == [(F5.zero, 1)]
    big = GF(6)
    rng = random.Random(8)
    for _ in range(10):
        a = big.rand_elem(rng)
        b = big.rand_elem(rng)
        if a == b:
            continue
        poly = GFPoly(big, [big.mul(a, b), big.neg(big.add(a, b)), big.one])
        assert [r for r, _ in root_kernels.roots_in_field(poly)] == sorted([a, b])


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_roots_in_field_matches_scan(k):
    """Equal-degree splitting against an exhaustive scan of the field, on
    seeded products of planted linear factors (some of multiplicity 5 or
    more) and a random cofactor."""
    fld = GF(k)
    rng = random.Random(300 + k)
    for _ in range(12):
        u = GFPoly(fld, [fld.rand_elem(rng) for _ in range(rng.randint(1, 4))])
        if u.is_zero():
            continue
        for _ in range(rng.randint(0, 4)):
            lin = GFPoly(fld, [fld.neg(fld.rand_elem(rng)), fld.one])
            for _ in range(rng.choice((1, 1, 2, 6))):
                u = u * lin
        scan = []
        for a in map(fld.from_int, range(fld.order)):
            mult, v = 0, u
            while not v.eval(a):
                v = v // GFPoly(fld, [fld.neg(a), fld.one])
                mult += 1
            if mult:
                scan.append((a, mult))
        assert root_kernels.roots_in_field(u, seed=k) == sorted(scan)


def test_roots_in_extension_quintic():
    u = GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1])          # x^5 + 2x
    recs = roots_in_extension(u, 8)
    assert len(recs) == 5
    assert recs[0].value == F5.zero and recs[0].subfield_degree == 1
    assert all(r.subfield_degree == 4 for r in recs[1:])
    # independent oracle: exhaustive evaluation over the 625-element field
    f625 = GF(4)
    emb = embedding(F5, f625)
    u625 = u.map_coeffs(emb, f625)
    assert [mult for _, mult in root_kernels.roots_in_field(u625)] == [1] * 5
    brute = sorted(a for a in map(f625.from_int, range(f625.order))
                   if not u625.eval(a))
    assert sorted(emb(r.value) if r.field.degree == 1 else r.value
                  for r in recs) == brute


def test_roots_in_extension_multiplicity():
    """(x+1)^5, whose derivative vanishes, has the one root 4, of
    multiplicity 5 by the oracle; `roots_in_extension` refuses it."""
    u = GFPoly.from_ints(F5, [1, 0, 0, 0, 0, 1])          # (x+1)^5
    assert root_kernels.roots_in_field(u) == [(F5.elem(4), 5)]
    with pytest.raises(NotSquarefreeError):
        roots_in_extension(u, 3)


def test_roots_in_extension_quadratic():
    u = GFPoly.from_ints(F5, [1, 0, 1])                   # x^2 + 1
    recs = roots_in_extension(u, 2)
    assert [r.value for r in recs] == [F5.elem(2), F5.elem(3)]


def test_roots_in_extension_reconstruction():
    u = GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1])
    recs = roots_in_extension(u, 8)
    top = max(recs, key=lambda r: r.field.degree).field
    prod = GFPoly(top, [top.one])
    u_top = u.map_coeffs(embedding(F5, top), top)
    for rec in recs:
        val = embedding(rec.field, top)(rec.value)
        lin = GFPoly(top, [top.neg(val), top.one])
        for _ in range(root_kernels.root_multiplicity(u_top, val)):
            prod = prod * lin
    assert prod == u_top.monic()


@pytest.fixture
def cold_roots():
    """The root memo emptied before and after the test, so that every call
    it counts below `roots_in_extension` happens and no record built by a
    patched helper stays behind."""
    ffpoly._monic_roots.cache_clear()
    yield
    ffpoly._monic_roots.cache_clear()


def test_roots_in_extension_partial_error(monkeypatch, cold_roots):
    """A root in F5 beside an irreducible quartic, searched up to degree 3:
    the error comes straight from distinct-degree splitting, so the linear
    part is never split."""
    calls = []
    real = ffpoly._split_orbits
    monkeypatch.setattr(ffpoly, "_split_orbits", lambda *a: calls.append(a) or real(*a))
    quartic = GFPoly.from_ints(F5, [2, 0, 0, 0, 1])       # irreducible
    u = quartic * GFPoly.from_ints(F5, [4, 1])
    with pytest.raises(SplittingFieldError):
        roots_in_extension(u, 3)
    assert calls == []
    assert len(roots_in_extension(u, 4)) == 5 and len(calls) == 2


def test_roots_in_extension_refuses_repeated_roots(monkeypatch, cold_roots):
    """x^2 (x^2 + 2) searched up to degree 1 is both not squarefree and
    beyond the search: NotSquarefreeError wins, because it comes from the
    one gcd(u, u') before any distinct-degree split.  It is raised on every
    call and never stored; a constant is squarefree and has no roots."""
    quadratic = GFPoly.from_ints(F5, [2, 0, 1])           # irreducible: 2 is not a square
    with pytest.raises(SplittingFieldError):
        roots_in_extension(GFPoly.x(F5) * quadratic, 1)
    gcds = []
    real = ffpoly.poly_gcd
    monkeypatch.setattr(ffpoly, "poly_gcd", lambda a, b: gcds.append(1) or real(a, b))
    u = GFPoly.from_ints(F5, [0, 0, 1]) * quadratic
    for calls in (1, 2):
        with pytest.raises(NotSquarefreeError):
            roots_in_extension(u, 1)
        assert len(gcds) == calls
        assert ffpoly._monic_roots.cache_info().currsize == 0
    assert roots_in_extension(GFPoly.from_ints(F5, [3]), 1) == []


def test_roots_are_memoised_per_monic_polynomial(monkeypatch, cold_roots):
    """u, 2u and 3u give equal records from one `_split_orbits` pass (one
    call per distinct-degree part); each call returns a new list, so
    mutating one leaves the next intact; a SplittingFieldError is raised
    on every call, never stored, and a larger max_degree succeeds after it."""
    calls = []
    real = ffpoly._split_orbits
    monkeypatch.setattr(ffpoly, "_split_orbits", lambda *a: calls.append(a) or real(*a))
    u = GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1])          # x^5 + 2x: parts of degree 1 and 4
    first = roots_in_extension(u, 8)
    assert len(first) == 5 and len(calls) == 2
    for c in (2, 3):
        assert roots_in_extension(GFPoly(F5, [F5.mul(c, a) for a in u.coeffs]), 8) == first
    assert len(calls) == 2
    expected = list(first)
    first.pop()
    first[0] = None
    assert roots_in_extension(u, 8) == expected
    for _ in range(2):
        with pytest.raises(SplittingFieldError):
            roots_in_extension(u, 3)
    assert len(calls) == 2
    assert roots_in_extension(u, 4) == expected and len(calls) == 4


def test_distinct_degree_splitting_stops_at_an_irreducible_remainder(monkeypatch, cold_roots):
    """x^5 - x - 1 is irreducible over GF(5) (Artin-Schreier).  With no
    factor of degree 1 or 2 left, a quintic is irreducible, so root finding
    takes three gcds (one for the squarefree test, two for distinct
    degrees) where a search up to degree 5 took seven, and hands the whole
    quintic to `_split_orbits` with the five table entries it reads."""
    u = GFPoly.from_ints(F5, [4, 4, 0, 0, 0, 1])
    ext = GF(5)
    emb = embedding(F5, ext)          # the modulus search and embedding take gcds too
    gcds, parts = [], []
    real = ffpoly.poly_gcd
    monkeypatch.setattr(ffpoly, "poly_gcd", lambda a, b: gcds.append(1) or real(a, b))
    monkeypatch.setattr(ffpoly, "_split_orbits",
                        lambda g, powers, k, m, seed: parts.append((g.degree, len(powers), m)) or [])
    assert roots_in_extension(u, 8) == []
    assert len(gcds) == 3 and parts == [(5, 5, 5)]
    with pytest.raises(SplittingFieldError):
        roots_in_extension(u, 4)
    assert len(gcds) == 6 and len(parts) == 1
    monkeypatch.undo()
    ffpoly._monic_roots.cache_clear()
    recs = roots_in_extension(u, 5)
    u_ext = u.map_coeffs(emb, ext)
    assert len(recs) == 5
    assert all(r.field == ext and r.subfield_degree == 5
               and root_kernels.root_multiplicity(u_ext, r.value) == 1 for r in recs)


# ---------------------------------------------------------------------------
# The root-finding oracle: square-and-multiply powers mod a polynomial and
# Cantor-Zassenhaus equal-degree splitting, as `ffpoly` found roots before
# its fifth-power table and trace splitting.
# ---------------------------------------------------------------------------

def pow_mod(base, e, mod):
    """base^e mod `mod` by square-and-multiply."""
    result = GFPoly(base.field, [base.field.one]) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def split_linear(lin, seed):
    """The roots of a monic product of distinct linear factors over its
    coefficient field: gcd((x + a)^((q-1)/2) - 1, g) for seeded random a."""
    f = lin.field
    rng = random.Random(seed)
    roots, stack = [], [lin]
    while stack:
        g = stack.pop()
        if g.degree == 0:
            continue
        if g.degree == 1:
            roots.append(f.neg(g.monic().coeffs[0]))
            continue
        while True:
            probe = pow_mod(GFPoly(f, [f.rand_elem(rng), f.one]), (f.order - 1) // 2, g)
            d = poly_gcd(probe - GFPoly(f, [f.one]), g)
            if 0 < d.degree < g.degree:
                stack += [d, g // d]
                break
    return roots


def oracle_roots_in_extension(u, max_degree, seed=0):
    """`roots_in_extension` of a squarefree u by x^(Q^m) mod v from `pow_mod`
    and splitting by `split_linear`: (records, remaining factor)."""
    base = u.field
    x = GFPoly.x(base)
    v, h, m, chunks = u.monic(), x, 0, []
    while v.degree > 0 and m < max_degree:
        m += 1
        h = pow_mod(h, base.order, v)
        g = poly_gcd(h - x, v)
        if g.degree > 0:
            chunks.append((m, g))
            v = (v // g).monic()
            h = h % v
    records = []
    for m, g in chunks:
        ext = GF(base.degree * m)
        emb = embedding(base, ext)
        for r in split_linear(g.map_coeffs(emb, ext), seed):
            records.append(RootInExtension(r, subfield_degree(ext, r), ext))
    records.sort(key=lambda rec: (rec.field.degree, rec.value))
    return records, v


def _random_poly(fld, rng, degree):
    return GFPoly(fld, [fld.rand_elem(rng) for _ in range(degree)] + [fld.one])


def _random_squarefree(fld, rng, degree):
    while True:
        u = _random_poly(fld, rng, degree)
        if is_squarefree(u):
            return u


@pytest.mark.parametrize("k", (1, 2, 3, 4, 10))
def test_fifth_power_table_matches_pow_mod(k):
    """x^(5^j) mod sf from the semilinear rows against square-and-multiply,
    for seeded squarefree sf over GF(5^k), the constant and the linear
    modulus included."""
    fld = GF(k)
    rng = random.Random(500 + k)
    top = 3 * k if k < 10 else k
    x = GFPoly.x(fld)
    mods = [GFPoly(fld, [fld.one]), GFPoly(fld, [fld.rand_elem(rng), fld.one])]
    mods += [_random_squarefree(fld, rng, rng.randint(2, 6)) for _ in range(3)]
    for sf in mods:
        table = list(itertools.islice(_fifth_power_table(sf), top + 1))
        assert table == [pow_mod(x, P ** j, sf) for j in range(top + 1)]


def _planted_product(fld, roots):
    product = GFPoly(fld, [fld.one])
    for a in roots:
        product = product * GFPoly(fld, [fld.neg(a), fld.one])
    return product


@pytest.mark.parametrize("k", range(1, 13))
def test_trace_split_matches_cantor_zassenhaus(k):
    """`_split_orbits` with orbits of length one, which is trace splitting
    along one branch, and the Cantor-Zassenhaus oracle find the planted
    roots of seeded products of distinct linear factors over GF(5^k)."""
    fld = GF(k)
    rng = random.Random(700 + k)
    x = GFPoly.x(fld)
    for trial in range(4):
        planted = sorted({fld.rand_elem(rng) for _ in range(rng.randint(1, 7))})
        lin = _planted_product(fld, planted)
        powers = [pow_mod(x, P ** j, lin) for j in range(k)]
        orbits = _split_orbits(lin, powers, k, 1, trial)
        assert all(len(orbit) == 1 for orbit in orbits)
        assert sorted(orbit[0] for orbit in orbits) == planted
        assert sorted(split_linear(lin, trial)) == planted


#: (k, m) with k * m <= 12: a degree-m part over GF(5^k), split in GF(5^(km))
ORBIT_CASES = [(k, m) for k in range(1, 13) for m in range(1, 12 // k + 1)]


@pytest.mark.parametrize("k, m", ORBIT_CASES)
def test_split_orbits_finds_planted_orbits(k, m):
    """Products of irreducible degree-m factors over GF(5^k), embedded in
    GF(5^(km)): each factor is the product over a planted orbit
    r, r^q, ..., r^(q^(m-1)) (q = 5^k) of length m.  `_split_orbits`
    returns exactly those orbits, each in Frobenius order.  m = 1 parts
    carry 1-5 roots, and for m <= 6 a part also holds two factors (for
    m = 2, two irreducible quadratics)."""
    ext = GF(k * m)
    rng = random.Random(1100 + 13 * k + m)
    counts = (1, 2, 3, 4, 5) if m == 1 else (1, 2) if 2 * m <= 12 else (1,)
    for trial, count in enumerate(counts):
        planted = []
        while len(planted) < count:
            orbit = [ext.rand_elem(rng)]
            for _ in range(m - 1):
                orbit.append(ext.frobenius(orbit[-1], k))
            if ext.frobenius(orbit[-1], k) != orbit[0] or len(set(orbit)) < m:
                continue                # degree below m over GF(5^k)
            if any(r in done for done in planted for r in orbit):
                continue
            planted.append(orbit)
        g = _planted_product(ext, [r for orbit in planted for r in orbit])
        # the coefficients lie in GF(5^k): the Frobenius x -> x^(5^k) fixes them
        assert all(ext.frobenius(c, k) == c for c in g.coeffs)
        powers = list(itertools.islice(_fifth_power_table(g), k * m))
        found = _split_orbits(g, powers, k, m, trial)
        assert len(found) == count
        for orbit in found:
            assert [ext.frobenius(r, k) for r in orbit] == orbit[1:] + orbit[:1]
        assert sorted(map(sorted, found)) == sorted(map(sorted, planted))


def test_split_orbits_rejects_a_false_orbit():
    """The division by the product of the conjugates is the certificate:
    given powers from GF(5^2) for a part whose roots lie in GF(5), the
    second "conjugate" of a root is the root itself, and the division
    raises."""
    fld = GF(2)
    a, b = fld.elem(1), fld.elem(2)
    g = _planted_product(fld, [a, b])
    powers = list(itertools.islice(_fifth_power_table(g), 2))
    with pytest.raises(AssertionError):
        _split_orbits(g, powers, 1, 2, 0)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_roots_in_extension_matches_oracle(k):
    """Records against the oracle, and SplittingFieldError exactly when the
    oracle leaves a factor of degree above max_degree; NotSquarefreeError
    on the inputs with a repeated factor."""
    fld = GF(k)
    rng = random.Random(900 + k)
    raised = refused = 0
    for trial in range(6):
        u = _random_poly(fld, rng, rng.randint(2, 5))
        if trial % 2:
            u = u * u * GFPoly(fld, [fld.rand_elem(rng), fld.one])
        for max_degree in (1, 2, 5):
            if not is_squarefree(u):
                refused += 1
                with pytest.raises(NotSquarefreeError):
                    roots_in_extension(u, max_degree, seed=trial)
                continue
            want, rest = oracle_roots_in_extension(u, max_degree, seed=trial)
            if rest.degree > 0:
                raised += 1
                with pytest.raises(SplittingFieldError):
                    roots_in_extension(u, max_degree, seed=trial)
            else:
                assert roots_in_extension(u, max_degree, seed=trial) == want
    assert raised > 0 and refused >= 9


def _irreducible_quadratic(fld, rng):
    """A seeded monic quadratic with no root in fld: gcd(x^q - x, u) = 1."""
    x = GFPoly.x(fld)
    while True:
        u = _random_poly(fld, rng, 2)
        if poly_gcd(pow_mod(x, fld.order, u) - x, u).degree == 0:
            return u


def _power(p, e):
    out = GFPoly(p.field, [p.field.one])
    for _ in range(e):
        out = out * p
    return out


@pytest.mark.parametrize("k", (1, 2, 3))
def test_roots_in_extension_non_squarefree_matches_oracle(k):
    """`roots_in_extension` refuses every input on which the oracle, over
    the quadratic extension that holds all the repeated roots, finds a
    root of multiplicity above 1, whether or not the search reaches them:
    (x^2 + 1)^5, an irreducible quadratic to the fifth power, roots of
    multiplicity 2, 6 and 7, and simple and multiple roots mixed."""
    fld = GF(k)
    rng = random.Random(1300 + k)
    shift = fld.rand_elem(rng)
    lin = [GFPoly(fld, [fld.neg(fld.add(shift, fld.elem(i))), fld.one]) for i in range(4)]
    quad = _irreducible_quadratic(fld, rng)
    cases = [
        _power(GFPoly.from_ints(fld, [1, 0, 1]), 5),
        _power(quad, 5),
        _power(lin[0], 2) * lin[1],
        _power(lin[0], 6) * quad,
        _power(lin[1], 7) * lin[0] * _random_poly(fld, rng, 3),
        _power(lin[0], 2) * _power(lin[1], 6) * _power(lin[2], 7) * lin[3] * quad,
        _power(_random_poly(fld, rng, 2), 2) * _random_poly(fld, rng, 3),
    ]
    ext = GF(2 * k)
    seen = set()
    for trial, u in enumerate(cases):
        mults = {m for _, m in root_kernels.roots_in_field(u.map_coeffs(embedding(fld, ext), ext))}
        assert max(mults) > 1
        seen |= mults
        for max_degree in (1, 6):
            with pytest.raises(NotSquarefreeError):
                roots_in_extension(u, max_degree, seed=trial)
    assert {1, 2, 5, 6, 7} <= seen


@pytest.mark.parametrize("k", (1, 2, 6, 10))
def test_taylor_coefficients_match_shifted_polynomial(k):
    """The coefficients of u(x + r) against u(x + r) built by Horner's rule
    from GFPoly products, with `count` below, at and past the degree (table
    arithmetic for k <= 5, packed above)."""
    fld = GF(k)
    rng = random.Random(700 + k)
    for degree in (0, 1, 2, 5, 6):
        for _ in range(3):
            u = GFPoly(fld, [fld.rand_elem(rng) for _ in range(degree)] + [fld.one])
            r = fld.rand_elem(rng)
            shifted = GFPoly(fld, [])
            for c in reversed(u.coeffs):
                shifted = shifted * GFPoly(fld, [r, fld.one]) + GFPoly(fld, [c])
            want = list(shifted.coeffs) + [fld.zero] * 4
            assert len(want) == degree + 5
            for count in (0, 2, degree + 1, degree + 5):
                assert list(taylor_coefficients(u, r, count)) == want[:count]
    zero = GFPoly(fld, [])
    assert list(taylor_coefficients(zero, fld.one, 3)) == [fld.zero] * 3


def test_embedding_properties():
    rng = random.Random(15)
    src, dst = F25, GF(4)
    emb = embedding(src, dst)
    # the image of the generator is a root of the source modulus
    gen_img = emb(src.elem([0, 1]))
    mod = GFPoly.from_ints(dst, list(src.modulus))
    assert not mod.eval(gen_img)
    for _ in range(100):
        a = src.rand_elem(rng)
        b = src.rand_elem(rng)
        assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
        assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
    with pytest.raises(ValueError):
        embedding(F25, GF(3))


#: (a, b) with a | b <= 12 and a > 1, and three targets past MAX_LITERAL_DEGREE,
#: GF(5^16) and GF(5^20) with two-byte slots
IMAGE_CASES = [(a, b) for b in range(2, 13) for a in range(2, b) if b % a == 0]
IMAGE_CASES += [(3, 15), (4, 16), (4, 20)]


@pytest.mark.parametrize("a, b", IMAGE_CASES)
def test_embedding_image_matches_all_roots_oracle(a, b):
    """The smallest root of one Frobenius orbit is the smallest of all the
    roots of the source modulus in the target, which splits it."""
    src, dst = GF(a), GF(b)
    roots = root_kernels.roots_in_field(GFPoly.from_ints(dst, src.modulus))
    assert len(roots) == a and all(mult == 1 for _r, mult in roots)
    assert _embedding_image(src, dst) == roots[0][0]


def _embedding_cases():
    """(a, b, all elements?): every a | b <= 12, and (4, 20)."""
    cases = [(a, b) for b in range(1, 13) for a in range(1, b + 1) if b % a == 0]
    return [(a, b, (a, b) in ((2, 4), (3, 15))) for a, b in cases + [(3, 15), (4, 20)]]


@pytest.mark.parametrize("a, b, exhaustive", _embedding_cases())
def test_embedding_map_matches_horner_oracle(a, b, exhaustive):
    """The linear map against Horner's rule with the same image of the
    generator: on every element of GF(25) -> GF(5^4) and GF(125) ->
    GF(5^15), on seeded elements elsewhere."""
    src, dst = GF(a), GF(b)
    if a == 1:
        rho = dst.one                   # a constant has no generator to map
    elif a == b:
        rho = dst.elem([0, 1])          # the identity
    else:
        rho = _embedding_image(src, dst)
    horner = oracle.horner_embedding(dst.modulus, dst.coefficients(rho))
    emb = embedding(src, dst)
    if exhaustive:
        elems = [src.from_int(i) for i in range(src.order)]
    else:
        rng = random.Random(40 * a + b)
        elems = [src.zero, src.one, src.elem((P - 1,) * a)]
        elems += [src.rand_elem(rng) for _ in range(60)]
    for x in elems:
        assert dst.coefficients(emb(x)) == horner(src.coefficients(x))


def test_subfield_degree():
    assert subfield_degree(F25, F25.elem(3)) == 1
    assert subfield_degree(F25, F25.elem([0, 1])) == 2
    f16 = GF(4)
    emb = embedding(F25, f16)
    assert subfield_degree(f16, emb(F25.elem([0, 1]))) == 2


def test_literals_roundtrip():
    p = parse_poly_literal("[0,0,1,0,0,0,1]@5")
    assert p.field == F5 and p.degree == 6
    assert format_poly_literal(p) == "[0,0,1,0,0,0,1]@5"
    q = parse_poly_literal("[[1,2],[0,1],3]@5^2")
    assert q.field == F25 and q.degree == 2
    assert parse_poly_literal(format_poly_literal(q)) == q
    custom = parse_poly_literal("[1,2]@5^2;mod=[1,1,1]")
    assert custom.field.modulus == (1, 1, 1)
    assert parse_poly_literal(format_poly_literal(custom)) == custom
    with pytest.raises(ValueError):
        parse_poly_literal("[1,2,3]")
    with pytest.raises(ValueError):
        parse_poly_literal("[1]@7")
    # a coefficient or modulus entry that is not an int is refused, not truncated
    for bad in ("[1.5,0,1]@5", "[True,0,1]@5", "[None]@5", "[[1,'2']]@5^2",
                "[1]@5;mod=5", "[1]@5^2;mod=[1,2.5,1]",
                # the degree of a field tag is ASCII digits and nothing else
                "[1]@5^ 2", "[1]@5^1_0", "[1]@5^\u0663", "[1]@5^\u00b2",
                # both lists are JSON arrays: no Python-only spelling
                "(0,0,1)@5", "[1,2,]@5", "[+1]@5", "[0x1]@5", "[1_0]@5", "[[1,2],(0,1)]@5^2",
                "[1]@5^2;mod=(1,1,1)", "[1]@5^2;mod=[1,1,1,]"):
        with pytest.raises(ValueError):
            parse_poly_literal(bad)
