"""The discriminant form on F5^6, its symmetry group, and the classification."""

import itertools
import random

import numpy as np
import pytest

from charfive import discform
from charfive.discform import (
    AutElement,
    IsotropicSubgroup,
    REFERENCE_SUBGROUPS,
    STARRED_TYPES,
    all_aut,
    aut_apply,
    b_value,
    build_S0,
    canonical_key,
    classify_isotropic_subgroups,
    condition_II,
    delta,
    isotropic_table,
    max_isotropic_dimension,
    q_value,
    subgroup_overlattice,
    verify_q_consistency,
)
from test_lattice import pairing


AUT_IDENTITY = AutElement(signs=(1,) * 5, perm=(0, 1, 2, 3, 4))


def aut_compose(g, h):
    """Composite applying h first, then g."""
    signs = tuple(g.signs[i] * h.signs[g.perm[i]] for i in range(5))
    perm = tuple(h.perm[g.perm[i]] for i in range(5))
    return AutElement(signs=signs, perm=perm)


def all_elements():
    out = []
    for e in range(5 ** 6):
        out.append(discform.decode(e))
    return out


# ---------------------------------------------------------------------------
# the model lattice
# ---------------------------------------------------------------------------

def test_build_s0_shape():
    s0 = build_S0()
    assert s0.rank == 22
    assert s0.det() == -(5 ** 6)
    assert s0.signature() == (1, 21)
    assert s0.labels[0] == "e_1^(1)"
    assert s0.labels[19] == "e_4^(5)"
    assert s0.labels[20:] == ("h", "l")
    h = [1 if i == 20 else 0 for i in range(22)]
    l = [1 if i == 21 else 0 for i in range(22)]
    assert pairing(s0.gram, h, h) == 2
    assert pairing(s0.gram, l, l) == -2
    assert pairing(s0.gram, h, l) == 1


def test_build_s0_chain_pairings():
    s0 = build_S0()
    for j in range(5):
        for i in range(4):
            for jp in range(5):
                for ip in range(4):
                    val = s0.gram[4 * j + i][4 * jp + ip]
                    if j != jp or abs(i - ip) > 1:
                        assert val == 0
                    elif j == jp and abs(i - ip) == 1:
                        assert val == 1
                    else:
                        assert val == -2


# ---------------------------------------------------------------------------
# q, b and delta
# ---------------------------------------------------------------------------

def test_q_value_examples():
    assert q_value((0, 0, 0, 0, 0, 0)) == 0
    assert q_value((2, 2, 2, 2, 2, 0)) == 0          # -(4/5)*20 = -16 = 0 mod 2
    assert q_value((1, 0, 0, 0, 0, 0)) == 6          # -4/5 = 6/5 mod 2Z
    assert q_value((0, 0, 0, 0, 0, 1)) == 2          # 2/5


def test_q_even_under_negation():
    for v in all_elements():
        nv = tuple((-x) % 5 for x in v)
        assert q_value(v) == q_value(nv)


def test_b_value_examples():
    assert b_value((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)) == 0
    assert b_value((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)) == 1   # -4/5 = 1/5 mod Z


def test_b_is_polarization_of_q():
    rng = random.Random(0)
    for _ in range(500):
        v = tuple(rng.randrange(5) for _ in range(6))
        w = tuple(rng.randrange(5) for _ in range(6))
        vw = tuple((a + b) % 5 for a, b in zip(v, w))
        # q(v+w) - q(v) - q(w) = 2 b(v,w) in (1/5)Z/2Z
        lhs = (q_value(vw) - q_value(v) - q_value(w)) % 10
        assert lhs == (2 * b_value(v, w)) % 10
        # and b(v, v) = q(v) mod Z
        assert b_value(v, v) == q_value(v) % 5


def test_delta_examples():
    d = delta((0, 0, 2, 2, 2, 2))
    assert (d.a, d.b, d.y) == (0, 3, 2) and d.starred
    d = delta((0, 0, 0, 0, 0, 0))
    assert (d.a, d.b, d.y) == (0, 0, 0) and d.starred
    d = delta((1, 4, 2, 3, 0, 1))
    assert (d.a, d.b, d.y) == (2, 2, 1) and not d.starred


def test_delta_negation_flips_y():
    rng = random.Random(1)
    for _ in range(200):
        v = tuple(rng.randrange(5) for _ in range(6))
        d = delta(v)
        dn = delta(tuple((-x) % 5 for x in v))
        assert (dn.a, dn.b) == (d.a, d.b)
        assert dn.y == (-d.y) % 5


# ---------------------------------------------------------------------------
# the symmetry group
# ---------------------------------------------------------------------------

def test_aut_apply_examples():
    v = (1, 2, 0, 0, 0, 3)
    assert aut_apply(AUT_IDENTITY, v) == v
    neg = AutElement(signs=(-1,) * 5, perm=(0, 1, 2, 3, 4))
    assert aut_apply(neg, v) == (4, 3, 0, 0, 0, 3)
    swap = AutElement(signs=(1,) * 5, perm=(1, 0, 2, 3, 4))
    assert aut_apply(swap, v) == (2, 1, 0, 0, 0, 3)


def test_aut_group_order_and_law():
    auts = all_aut()
    assert len(auts) == 3840
    assert len(set(auts)) == 3840
    rng = random.Random(2)
    for _ in range(100):
        g = auts[rng.randrange(3840)]
        h = auts[rng.randrange(3840)]
        v = tuple(rng.randrange(5) for _ in range(6))
        assert aut_apply(g, aut_apply(h, v)) == aut_apply(aut_compose(g, h), v)


def test_aut_preserves_q():
    rng = random.Random(3)
    auts = all_aut()
    for _ in range(300):
        g = auts[rng.randrange(3840)]
        v = tuple(rng.randrange(5) for _ in range(6))
        assert q_value(aut_apply(g, v)) == q_value(v)


def test_orbits_are_delta_classes():
    """delta(v) = delta(w) iff some symmetry maps v to w, checked class by
    class over the whole group G (the classes partition G)."""
    by_delta = {}
    for v in all_elements():
        d = delta(v)
        by_delta.setdefault((d.a, d.b, d.y), set()).add(v)
    auts = all_aut()
    for key, members in sorted(by_delta.items()):
        rep = min(members)
        orbit = {aut_apply(g, rep) for g in auts}
        assert orbit == members, key


# ---------------------------------------------------------------------------
# isotropic subgroups
# ---------------------------------------------------------------------------

def test_subgroup_validation():
    with pytest.raises(ValueError):
        IsotropicSubgroup(gens=((1, 0, 0, 0, 0, 0),))       # q = 6/5 != 0
    with pytest.raises(ValueError):
        IsotropicSubgroup(gens=((2, 2, 2, 2, 2, 0), (4, 4, 4, 4, 4, 0)))
    sub = IsotropicSubgroup(gens=REFERENCE_SUBGROUPS["H_6"])
    assert sub.dim == 2
    assert len(sub.elements()) == 25


def test_dependent_generators_fail_before_the_span(monkeypatch):
    """Independence is decided generator by generator: more than six
    generators build no span, and a repeated one stops after the first."""
    calls = []
    real_add = discform.g_add
    monkeypatch.setattr(discform, "g_add", lambda u, v: calls.append(1) or real_add(u, v))
    rng = random.Random(5)
    many = tuple(tuple(rng.randrange(5) for _ in range(6)) for _ in range(50))
    with pytest.raises(ValueError, match="not independent"):
        IsotropicSubgroup(gens=many)
    assert calls == []
    g = REFERENCE_SUBGROUPS["H_6"][0]
    with pytest.raises(ValueError, match="not independent"):
        IsotropicSubgroup(gens=(g, tuple(2 * x for x in g), g))
    assert len(calls) == 5


def test_generator_coordinates_must_be_integers():
    gen = REFERENCE_SUBGROUPS["H_1"][0]
    for bad in (2.0, 2.9, "2", True, None):
        with pytest.raises(TypeError, match="not an integer"):
            IsotropicSubgroup(gens=(gen[:5] + (bad,),))
    # integer types other than int are accepted through operator.index
    sub = IsotropicSubgroup(gens=(tuple(np.int64(x) for x in gen),))
    assert sub.gens == (gen,) and all(type(x) is int for x in sub.gens[0])


def test_condition_ii():
    assert condition_II(IsotropicSubgroup(gens=REFERENCE_SUBGROUPS["H_2"]))
    assert not condition_II(IsotropicSubgroup(gens=((0, 2, 2, 0, 0, 1),)))
    h6 = IsotropicSubgroup(gens=REFERENCE_SUBGROUPS["H_6"])
    assert condition_II(h6)
    # the machine check behind it: all 24 nonzero elements starred
    for v in h6.elements():
        assert delta(v).starred


def test_canonical_key_examples():
    h0 = IsotropicSubgroup(gens=())
    assert canonical_key(h0) == np.array([0], dtype=np.int64).tobytes()
    h5 = IsotropicSubgroup(gens=REFERENCE_SUBGROUPS["H_5"])
    rotated = IsotropicSubgroup(
        gens=(tuple(REFERENCE_SUBGROUPS["H_5"][0][i] for i in (4, 3, 2, 1, 0))
              + (REFERENCE_SUBGROUPS["H_5"][0][5],),))
    assert canonical_key(h5) == canonical_key(rotated)
    other = IsotropicSubgroup(gens=((0, 1, 1, 2, 2, 0),))
    h2 = IsotropicSubgroup(gens=((2, 2, 2, 2, 2, 0),))
    assert canonical_key(other) != canonical_key(h2)


def test_canonical_key_scaling_invariance():
    for label in ("H_1", "H_3", "H_5"):
        gen = REFERENCE_SUBGROUPS[label][0]
        base = canonical_key(IsotropicSubgroup(gens=(gen,)))
        for c in (2, 3, 4):
            scaled = tuple((c * x) % 5 for x in gen)
            assert canonical_key(IsotropicSubgroup(gens=(scaled,))) == base


def test_isotropic_count_matches_integral_form():
    # q([x|y]) = 0 iff -2(x1^2+...+x5^2) + y^2 = 0 over F5
    count_q = sum(1 for v in all_elements() if q_value(v) == 0)
    count_integral = 0
    for v in all_elements():
        val = (-2 * sum(x * x for x in v[:5]) + v[5] * v[5]) % 5
        if val == 0:
            count_integral += 1
    assert count_q == count_integral


# ---------------------------------------------------------------------------
# the table, the classification, the dimension bound
# ---------------------------------------------------------------------------

def test_isotropic_table():
    rows = isotropic_table()
    assert len(rows) == 13
    by_type = {(r.a, r.b, r.y): r for r in rows}
    assert set(by_type) == {
        (0, 0, 0), (0, 2, 1), (0, 3, 2), (0, 5, 0), (1, 1, 0), (1, 3, 1),
        (1, 4, 2), (2, 0, 2), (2, 2, 0), (3, 0, 1), (3, 1, 2), (4, 1, 1),
        (5, 0, 0),
    }
    assert by_type[(0, 2, 1)].root_type == "A9+3A4"
    assert by_type[(1, 1, 0)].root_type == "E8+3A4"
    assert by_type[(2, 0, 2)].root_type == "A9+3A4"
    assert all(r.e_empty for r in rows)
    # star data is cross-validated against the computed invariants
    for r in rows:
        assert r.starred == (r.root_type == "5A4" and r.e_empty)
        assert r.starred == ((r.a, r.b, r.y) in STARRED_TYPES)
        assert q_value(r.representative) == 0


def test_parallel_map_clamps_jobs_to_cpu_count(monkeypatch):
    import multiprocessing

    asked = []

    class RecordingPool:                 # starts no processes
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(discform.os, "cpu_count", lambda: 3)
    assert discform._parallel_map(abs, [-1, 2, -3], 10 ** 6) == [1, 2, 3]
    assert discform._parallel_map(abs, [-1, 2, -3], 2) == [1, 2, 3]
    assert asked == [3, 2]
    monkeypatch.setattr(discform.os, "cpu_count", lambda: 1)
    assert discform._parallel_map(abs, [-4], 8) == [4]
    assert asked == [3, 2]               # one CPU: no pool at all


def test_classification():
    records = classify_isotropic_subgroups()
    assert [r.label for r in records] == [f"H_{i}" for i in range(9)]
    discs = sorted(r.disc_exp for r in records)
    assert discs == [2, 2, 2, 4, 4, 4, 4, 4, 6]
    for r in records:
        assert r.root_type == "5A4"
        assert r.e_empty
        assert r.sigma == r.disc_exp // 2
        assert r.gens == REFERENCE_SUBGROUPS[r.label]


def test_admissible_subgroups_carry_their_elements():
    """Each survivor's element encodings are the span of its generators."""
    survivors = discform.admissible_subgroups()
    assert len(survivors) == 2713
    dims = [len(gens) for gens, _ in survivors]
    assert (dims.count(0), dims.count(1), dims.count(2)) == (1, 696, 2016)
    for gens, elems in survivors:
        sub = IsotropicSubgroup(gens=gens)
        assert condition_II(sub)
        expect = sorted(sum(x * 5 ** i for i, x in enumerate(v)) for v in sub.elements())
        assert elems.dtype == np.int64 and elems.tolist() == expect


def test_classification_validates_only_representatives(monkeypatch):
    built = []
    real_post_init = IsotropicSubgroup.__post_init__

    def counting(self):
        built.append(self.gens)
        real_post_init(self)

    monkeypatch.setattr(IsotropicSubgroup, "__post_init__", counting)
    discform.reference_labels.cache_clear()
    try:
        records = classify_isotropic_subgroups()
    finally:
        discform.reference_labels.cache_clear()
    assert len(records) == 9
    assert len(built) < 50


def test_reference_subgroups_distinct_orbits():
    keys = {label: canonical_key(IsotropicSubgroup(gens=gens))
            for label, gens in REFERENCE_SUBGROUPS.items()}
    assert len(set(keys.values())) == 9


def test_overlattice_disc_by_dimension():
    for label, gens in REFERENCE_SUBGROUPS.items():
        sub = IsotropicSubgroup(gens=gens)
        ov = subgroup_overlattice(sub)
        assert ov.disc == -(5 ** (6 - 2 * sub.dim))


def plane_scan_dimension():
    """The exhaustive form of the dimension bound: 3 if some isotropic plane
    has an isotropic vector orthogonal to it outside it, else 2.  A plane
    lies in its own orthogonal complement, so more than 25 isotropic
    vectors orthogonal to both generators means a third dimension."""
    t = discform._tables()
    planes, gen_pairs = discform._isotropic_planes()
    if len(planes) == 0:
        return 1 if len(discform._line_representatives()) else 0
    iso = np.nonzero(t["iso"])[0]
    iso_digits = t["digits"][iso]
    for start in range(0, len(planes), 256):
        pairs = gen_pairs[start:start + 256]
        gd = t["digits"][pairs.reshape(-1)]
        w = gd.copy()
        w[:, 5] = (2 * w[:, 5]) % 5
        b_vals = (iso_digits @ w.T) % 5
        b_vals = b_vals.reshape(len(iso), -1, 2)
        orth = (b_vals == 0).all(axis=2)
        counts = orth.sum(axis=0)
        if np.any(counts > 25):
            return 3
    return 2


def test_dimension_bound(monkeypatch):
    """The Witt-index certificate needs no enumeration of lines or planes."""
    def forbidden():
        raise AssertionError("the certificate must not enumerate subgroups")

    monkeypatch.setattr(discform, "_isotropic_planes", forbidden)
    monkeypatch.setattr(discform, "_line_representatives", forbidden)
    assert max_isotropic_dimension() == 2


def test_plane_scan_oracle():
    assert plane_scan_dimension() == 2


def subspace_search_index(diag):
    """Largest dimension of a totally isotropic subspace of sum d_i x_i^2
    over F5: grow every totally isotropic subspace by one isotropic line
    at a time, level by level, until none extends."""
    n = len(diag)
    vecs = np.array(list(itertools.product(range(5), repeat=n)), dtype=np.int64)
    iso = vecs[(vecs * vecs) @ np.array(diag) % 5 == 0]      # iso[0] is 0
    gram = (iso * diag) @ iso.T % 5
    pows = 5 ** np.arange(n - 1, -1, -1)
    position = {int(e): i for i, e in enumerate(iso @ pows)}
    # one vector per isotropic line: its first nonzero coordinate is 1
    lead = np.flatnonzero(iso[np.arange(len(iso)), (iso != 0).argmax(axis=1)] == 1)
    spans, dim = np.zeros((1, 1), dtype=np.int64), 0     # rows: positions in iso
    while True:
        ok = ((gram[lead][:, spans] == 0).all(axis=2)
              & ~(lead[:, None, None] == spans[None]).any(axis=2))
        vi, si = np.nonzero(ok)
        if not len(vi):
            return dim
        elems = (iso[spans[si]][:, :, None, :]
                 + np.arange(5)[None, None, :, None] * iso[lead[vi]][:, None, None, :]) % 5
        enc = np.unique(np.sort(elems.reshape(len(vi), -1, n) @ pows, axis=1), axis=0)
        spans = np.vectorize(position.__getitem__)(enc)
        dim += 1


def test_witt_index_matches_subspace_search():
    """Every nondegenerate diagonal form over F5 of dimension 1 to 4."""
    for n in range(1, 5):
        for diag in itertools.product(range(1, 5), repeat=n):
            gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            assert discform._witt_index(gram) == subspace_search_index(diag), diag


def test_witt_index_rejects_degenerate_forms():
    with pytest.raises(ArithmeticError):
        discform._witt_index([[1, 0], [0, 5]])
    with pytest.raises(ArithmeticError):
        discform._witt_index([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# consistency of the encoded form with the built lattice
# ---------------------------------------------------------------------------

def test_verify_q_consistency():
    rep = verify_q_consistency()
    assert rep.passed
    assert rep.invariant_factors == (5,) * 6
    assert rep.n_checked == 5 ** 6
    assert rep.mismatches == ()
    # the dual of l is -2 times the dual class of h (l* + 2h* = h lies in
    # the lattice), i.e. coordinates [0,...,0 | 3]
    assert rep.expansions["l"] == (0, 0, 0, 0, 0, 3)
    # deeper chain duals are the expected multiples of the first one,
    # verified here against the b-pairing computation
    for j in range(1, 6):
        for i in range(2, 5):
            expect = tuple((i if c == j - 1 else 0) for c in range(5)) + (0,)
            assert rep.expansions[f"e_{i}^({j})"] == expect
