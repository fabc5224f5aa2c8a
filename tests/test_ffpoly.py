"""Field arithmetic in GF(5^k), polynomial gcds, fifth roots, root finding."""

import itertools
import random

import pytest

import gf_kernels as oracle
from charfive.ffpoly import (
    GF,
    GFPoly,
    MODULI,
    P,
    TABLE_MAX_ORDER,
    SplittingFieldError,
    _f5_is_irreducible,
    _search_modulus,
    embedding,
    format_poly_literal,
    is_squarefree,
    parse_poly_literal,
    poly_gcd,
    roots_in_extension,
    roots_in_field,
    subfield_degree,
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
            if any(a):
                assert fld.mul(a, fld.inv(a)) == fld.one
            assert fld.sub(fld.add(a, b), b) == a


#: every shipped degree, and both sides of the widening of the packed
#: kernel's one-byte slots (k <= 15)
CORE_DEGREES = tuple(range(1, 13)) + (15, 16)


@pytest.mark.parametrize("k", CORE_DEGREES)
def test_core_matches_tuple_oracle(k):
    """Tables (q <= TABLE_MAX_ORDER) and the packed kernel (above) against
    the schoolbook tuple arithmetic, on seeded random pairs."""
    fld = GF(k)
    m = fld.modulus
    rng = random.Random(1000 + k)
    top = (P - 1,) * k           # the largest slot sums the packed kernel forms
    pairs = [(top, top), (top, fld.one)]
    pairs += [(fld.rand_elem(rng), fld.rand_elem(rng)) for _ in range(120)]
    for a, b in pairs:
        assert fld.mul(a, b) == oracle.mul(m, a, b)
        assert fld.add(a, b) == oracle.add(a, b)
        assert fld.sub(a, b) == oracle.sub(a, b)
        assert fld.neg(b) == oracle.sub(fld.zero, b)
        if any(b):
            assert fld.inv(b) == oracle.inv(m, b)
            assert fld.div(a, b) == oracle.mul(m, a, oracle.inv(m, b))
        e = rng.randrange(-7, 40)
        if any(a):
            base = a if e >= 0 else oracle.inv(m, a)
            assert fld.pow(a, e) == oracle.pow_(m, base, abs(e))


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
        fld.div(one, zero)
    with pytest.raises(ZeroDivisionError):
        fld.pow(zero, -1)
    for _ in range(60):
        a, b, c = fld.rand_elem(rng), fld.rand_elem(rng), fld.rand_elem(rng)
        assert fld.mul(a, zero) == zero and fld.mul(one, a) == a
        assert fld.add(a, zero) == a and fld.sub(a, a) == zero
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.frobenius(a) == oracle.pow_(fld.modulus, a, 5)
        assert fld.fifth_root(fld.frobenius(a)) == a
        if any(a):
            assert fld.mul(a, fld.inv(a)) == one
            assert fld.div(a, a) == one


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
        assert sorted(powers) == sorted(fld.iter_elements())[1:]
        assert fld._antilog[q - 1:2 * (q - 1)] == powers
        assert all(fld._log[x] == i for i, x in enumerate(powers))
        assert fld._log[fld.zero] == 2 * (q - 1)
        assert set(fld._antilog[2 * (q - 1):]) == {fld.zero}
    assert GF(6)._log is None    # the cap is 5^5


def test_moduli_are_the_canonical_data():
    for k, mod in MODULI.items():
        assert _f5_is_irreducible(list(mod))
        assert _search_modulus(k) == mod


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
    for a in F25.iter_elements():
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
    assert roots_in_field(u) == [(F5.zero, 1)]
    big = GF(6)
    rng = random.Random(8)
    for _ in range(10):
        a = big.rand_elem(rng)
        b = big.rand_elem(rng)
        if a == b:
            continue
        poly = GFPoly(big, [big.mul(a, b), big.neg(big.add(a, b)), big.one])
        assert [r for r, _ in roots_in_field(poly)] == sorted([a, b])


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
        for a in fld.iter_elements():
            mult, v = 0, u
            while not any(v.eval(a)):
                v = v // GFPoly(fld, [fld.neg(a), fld.one])
                mult += 1
            if mult:
                scan.append((a, mult))
        assert roots_in_field(u, seed=k) == sorted(scan)


def test_roots_in_extension_quintic():
    u = GFPoly.from_ints(F5, [0, 2, 0, 0, 0, 1])          # x^5 + 2x
    recs = roots_in_extension(u, 8)
    assert len(recs) == 5
    assert all(r.multiplicity == 1 for r in recs)
    assert recs[0].value == F5.zero and recs[0].subfield_degree == 1
    assert all(r.subfield_degree == 4 for r in recs[1:])
    # independent oracle: exhaustive evaluation over the 625-element field
    f625 = GF(4)
    emb = embedding(F5, f625)
    u625 = u.map_coeffs(emb, f625)
    brute = sorted(a for a in f625.iter_elements() if not any(u625.eval(a)))
    assert sorted(emb(r.value) if r.field.degree == 1 else r.value
                  for r in recs) == brute


def test_roots_in_extension_multiplicity():
    u = GFPoly.from_ints(F5, [1, 0, 0, 0, 0, 1])          # (x+1)^5
    recs = roots_in_extension(u, 3)
    assert len(recs) == 1
    assert recs[0].value == F5.elem(4)
    assert recs[0].multiplicity == 5
    assert recs[0].subfield_degree == 1


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
        for _ in range(rec.multiplicity):
            prod = prod * lin
    assert prod == u_top.monic()


def test_roots_in_extension_partial_error():
    u = GFPoly.from_ints(F5, [2, 0, 0, 0, 1])             # irreducible quartic
    with pytest.raises(SplittingFieldError) as exc:
        roots_in_extension(u, 3)
    assert exc.value.partial == []
    assert exc.value.remaining == u.monic()


def test_embedding_properties():
    rng = random.Random(15)
    src, dst = F25, GF(4)
    emb = embedding(src, dst)
    # the image of the generator is a root of the source modulus
    gen_img = emb(src.elem([0, 1]))
    mod = GFPoly.from_ints(dst, list(src.modulus))
    assert not any(mod.eval(gen_img))
    for _ in range(100):
        a = src.rand_elem(rng)
        b = src.rand_elem(rng)
        assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
        assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
    with pytest.raises(ValueError):
        embedding(F25, GF(3))


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
                "[1]@5^ 2", "[1]@5^1_0", "[1]@5^\u0663", "[1]@5^\u00b2"):
        with pytest.raises(ValueError):
            parse_poly_literal(bad)
