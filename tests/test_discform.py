"""The discriminant form on F5^6, its symmetry group, the classification,
and the class shells behind the overlattice invariants, checked against
the root catalogue oracle."""

import itertools
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from charfive import discform
from charfive.discform import (
    IsotropicSubgroup,
    REFERENCE_SUBGROUPS,
    STARRED_TYPES,
    b_value,
    classify_isotropic_subgroups,
    condition_II,
    isotropic_table,
    max_isotropic_dimension,
    orbit_names,
    q_value,
    verify_q_consistency,
)
from charfive.lattice import L_INDEX, build_S0
from catalogue_kernels import H_PRIMAL, catalogue_root_type, e_vectors, root_catalogue
from discform_kernels import (
    POW, _echelon_keys, admissible_subgroups, aut_arrays, basis_images,
    delta, disc_exponent, isotropic_planes, line_representatives, min_row, orbit_images,
    q_scalar, reference_orbits, span, tables)
from fraction_kernels import gauss_jordan


def all_elements():
    out = []
    for e in range(5 ** 6):
        out.append(discform.decode(e))
    return out


def pairing(gram, u, v):
    """u^T gram v."""
    return sum(a * x * b for a, row in zip(u, gram) for x, b in zip(row, v))


def elements(sub):
    """The elements of a subgroup as sorted tuples, decoded from its codes."""
    return tuple(sorted(map(discform.decode, sub._codes)))


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


def test_tables_match_the_scalar_oracle():
    """On all 15625 elements `decode` gives the digits of the oracle table,
    q and isotropy are those of the one-element oracle formula (so the
    array oracle and the formula agree too), and every x-part lies in the
    `_x_parts` group of its (a, b)-type.  The starred rule, read per
    type, holds on every isotropic line exactly when the oracle has every
    element of the line starred, and each type's representative is its
    smallest isotropic code."""
    t = tables()
    assert [tuple(v) for v in t["digits"].tolist()] == all_elements()
    oracle = [(q_scalar(v), delta(v)) for v in all_elements()]
    assert t["q"].tolist() == [q for q, _d in oracle] == list(map(q_value, all_elements()))
    assert t["iso"].tolist() == [q == 0 for q, _d in oracle]
    assert t["a"].tolist() == [d.a for _q, d in oracle]
    assert t["b"].tolist() == [d.b for _q, d in oracle]
    assert t["yn"].tolist() == [min(d.y, 5 - d.y) for _q, d in oracle]
    assert t["starred"].tolist() == [d.starred for _q, d in oracle]
    parts = discform._x_parts()
    assert sorted(x for xs in parts.values() for x in xs) == list(range(5 ** 5))
    for (a, b), xs in parts.items():
        assert all((delta(discform.decode(x)).a, delta(discform.decode(x)).b) == (a, b)
                   for x in xs), (a, b)
    for e in line_representatives().tolist():
        sub = IsotropicSubgroup(gens=(discform.decode(e),))
        assert condition_II(sub) == all(delta(v).starred for v in elements(sub)), e
    smallest = {}
    for e in range(5 ** 6):
        q, d = oracle[e]
        if q == 0:
            smallest.setdefault((d.a, d.b, min(d.y, 5 - d.y)), e)
    assert discform._type_representatives() == smallest


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

def code(v):
    return sum(x * 5 ** i for i, x in enumerate(v))


def packed(codes):
    """The codes of the vectors of one image as one int, base 5^6, the
    first lowest, as `_image_codes` packs them."""
    return sum(c * 5 ** (6 * k) for k, c in enumerate(codes))


def test_image_codes_are_the_distinct_images_of_the_oracle_group():
    """For all nine references `_image_codes` lists each distinct image of
    the basis under the group arrays once: 1, 80, 32, 320, 160, 480,
    3840, 1920 and 3840 of them, against 3840 rows of the group each."""
    counts = []
    for label, gens in REFERENCE_SUBGROUPS.items():
        found = discform._image_codes(gens)
        oracle = {packed(row) for row in (basis_images(gens) @ POW).tolist()}
        assert len(found) == len(set(found)) and set(found) == oracle, label
        counts.append(len(found))
    assert counts == [1, 80, 32, 320, 160, 480, 3840, 1920, 3840]


def test_aut_preserves_q():
    """q(g(v)) = q(v) for 300 seeded pairs of an element v and a member g
    of the oracle group, whose 3840 elements are distinct."""
    perms, signs = aut_arrays()
    assert len({(tuple(p), tuple(s)) for p, s in zip(perms.tolist(), signs.tolist())}) == 3840
    rng = random.Random(3)
    for _ in range(300):
        g = rng.randrange(3840)
        v = tuple(rng.randrange(5) for _ in range(6))
        assert q_value(basis_images([v])[g, 0].tolist()) == q_value(v)


def test_orbits_are_delta_classes():
    """delta(v) = delta(w) iff some symmetry maps v to w, checked class by
    class over the whole group G (the classes partition G)."""
    by_delta = {}
    for v in all_elements():
        d = delta(v)
        by_delta.setdefault((d.a, d.b, d.y), set()).add(v)
    for key, members in sorted(by_delta.items()):
        rep = min(members)
        orbit = set(map(tuple, basis_images([rep])[:, 0].tolist()))
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
    assert len(elements(sub)) == 25


def test_dependent_generators_fail_before_the_span(monkeypatch):
    """More than six generators are rejected before any span is built (the
    span of 50 would have 5^50 elements) or any table is read; a repeated
    or zero generator is rejected by the echelon basis, before any span."""
    calls = []
    real_tables, real_span = discform._x_parts, discform._span_codes
    monkeypatch.setattr(discform, "_x_parts", lambda: calls.append(1) or real_tables())
    monkeypatch.setattr(discform, "_span_codes", lambda gens: calls.append(2) or real_span(gens))
    rng = random.Random(5)
    many = tuple(tuple(rng.randrange(5) for _ in range(6)) for _ in range(50))
    with pytest.raises(ValueError, match="not independent"):
        IsotropicSubgroup(gens=many)
    assert calls == []
    g = REFERENCE_SUBGROUPS["H_6"][0]
    with pytest.raises(ValueError, match="not independent"):
        IsotropicSubgroup(gens=(g, tuple(2 * x for x in g), g))
    with pytest.raises(ValueError, match="not independent"):
        IsotropicSubgroup(gens=(g, (0,) * 6))
    assert calls == []


def test_non_isotropic_subgroup_names_its_smallest_bad_element():
    """The error names the smallest non-isotropic element in tuple order,
    as the sorted element list of the generator-by-generator span has it,
    also for three to six generators, whose span is never isotropic, and
    in a seeded sample of non-isotropic spans of one to four generators."""
    rng = random.Random(9)
    sample = [tuple(tuple(rng.randrange(5) for _ in range(6)) for _ in range(d))
              for d in (1, 2, 2, 3, 4) for _ in range(40)]
    fixed = [((1, 0, 0, 0, 0, 0),), ((0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)),
             ((2, 2, 2, 2, 2, 0), (0, 1, 2, 0, 0, 0)),
             REFERENCE_SUBGROUPS["H_6"] + ((0, 0, 1, 0, 0, 0),),
             tuple(tuple(int(i == j) for j in range(6)) for i in range(6))]
    for gens in fixed + sample:
        try:
            elems = span(gens)
        except ValueError:              # dependent: the other test's case
            continue
        if all(q_scalar(v) == 0 for v in elems):
            continue
        bad = next(v for v in elems if q_scalar(v) != 0)
        with pytest.raises(ValueError, match=f"totally isotropic at {re.escape(str(bad))}$"):
            IsotropicSubgroup(gens=gens)


def test_elements_match_the_generator_by_generator_span():
    """On every isotropic line and all 3276 isotropic planes of the oracle,
    the element codes give the span that adding one generator at a time
    gives, as sorted tuples."""
    _planes, gen_pairs = isotropic_planes()
    subgroups = [(discform.decode(int(e)),) for e in line_representatives()]
    subgroups += [tuple(discform.decode(int(e)) for e in pair) for pair in gen_pairs]
    assert len(subgroups) == 756 + 3276
    for gens in subgroups:
        elems = elements(IsotropicSubgroup(gens=gens))
        assert elems == span(gens) and all(type(x) is int for v in elems for x in v)


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
    for v in elements(h6):
        assert delta(v).starred


def named(*gen_sets):
    """`orbit_names` of the subgroups spanned by each generator set."""
    return orbit_names([IsotropicSubgroup(gens=gens) for gens in gen_sets])


def test_orbit_names_examples():
    """A subgroup is named by its reference orbit and the first subgroup of
    the list in that orbit: H_5 and its reversal share both, H_2 does not."""
    [h5] = REFERENCE_SUBGROUPS["H_5"]
    rotated = h5[4::-1] + h5[5:]
    assert named((), (h5,), (rotated,), ((2, 2, 2, 2, 2, 0),), ((0, 1, 1, 2, 2, 0),)) == [
        ("H_0", 0), ("H_5", 1), ("H_5", 1), ("H_2", 3), ("H_5", 1)]


def key_gens(key):
    """The reduced echelon basis packed into an echelon key."""
    gens = ()
    while key:
        key, row = divmod(key, 5 ** 6)
        gens = (discform.decode(row),) + gens
    return gens


def test_echelon_keys_match_element_lists():
    """Over every isotropic line and all 3276 isotropic planes of the
    oracle, two bases have the same echelon key iff they span the same
    element list: each subgroup is keyed from three bases, and distinct
    subgroups get distinct keys, each packing a basis of the subgroup."""
    digits = tables()["digits"]
    reps = line_representatives()
    planes, gen_pairs = isotropic_planes()
    assert len(planes) == 3276
    u, v, w = digits[reps], digits[gen_pairs[:, 0]], digits[gen_pairs[:, 1]]
    keys = [_echelon_keys(np.stack(line, axis=1)).tolist()
            + _echelon_keys(np.stack(plane, axis=1)).tolist()
            for line, plane in (((u,), (v, w)),
                                ((2 * u % 5,), (w, v)),
                                ((4 * u % 5,), ((v + w) % 5, (v + 2 * w) % 5)))]
    assert keys[0] == keys[1] == keys[2]
    lines = [sorted(int((c * digits[e]) % 5 @ POW) for c in range(5))
             for e in reps.tolist()]
    elem_lists = [tuple(x) for x in lines] + [tuple(x) for x in planes.tolist()]
    assert len(set(keys[0])) == len(set(elem_lists)) == len(elem_lists)
    for key, elems in zip(keys[0], elem_lists):
        assert tuple(encodings(IsotropicSubgroup(gens=key_gens(key)))) == elems


def test_orbits_hold_every_image_of_a_reference():
    """For each H_i, the 3840 images g(H_i) of the oracle group, their
    bases from `basis_images` and their elements from `orbit_images`,
    form the one orbit labelled H_i."""
    for label, gens in REFERENCE_SUBGROUPS.items():
        bases = [tuple(map(tuple, basis)) for basis in basis_images(gens).tolist()]
        elems = orbit_images(np.array(elements(IsotropicSubgroup(gens=gens)), dtype=np.int64))
        [(found, hits)] = discform._orbits(bases, elems.tolist())
        assert found == label and hits == list(range(3840)), label


def test_orbit_names_scaling_invariance():
    for label in ("H_1", "H_3", "H_5"):
        [gen] = REFERENCE_SUBGROUPS[label]
        scaled = [(tuple(c * x % 5 for x in gen),) for c in range(1, 5)]
        assert named(*scaled) == [(label, 0)] * 4


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


def encodings(sub):
    return sorted(map(code, elements(sub)))


def test_admissible_subgroups_carry_their_elements():
    """Each survivor of the exhaustive oracle carries the span of its
    generators as its element encodings."""
    survivors = admissible_subgroups()
    assert len(survivors) == 2713
    dims = [len(gens) for gens, _ in survivors]
    assert (dims.count(0), dims.count(1), dims.count(2)) == (1, 696, 2016)
    for gens, elems in survivors:
        sub = IsotropicSubgroup(gens=gens)
        assert condition_II(sub)
        assert elems.dtype == np.int64 and elems.tolist() == encodings(sub) == list(sub._codes)


def candidate_gens():
    """The generators of every orbit candidate as tuples, dimension by
    dimension."""
    return [gens for bases, _elements in discform._orbit_candidates() for gens in bases]


def test_orbit_candidates_are_admissible():
    """The candidates are the zero subgroup, five starred lines and 74
    planes through them, each admissible and carrying the codes of its own
    elements, and no two of them are the same subgroup.  Each line holds
    vectors of the two types (a, b, y) and (b, a, 2y), and the five lines
    hold all nine nonzero starred types."""
    candidates = list(discform._orbit_candidates())
    assert [(len(bases), {len(b) for b in bases}, {len(g) for b in bases for g in b},
             len(elems), {len(e) for e in elems}) for bases, elems in candidates] == [
        (1, {0}, set(), 1, {1}), (5, {1}, {6}, 5, {5}), (74, {2}, {6}, 74, {25})]
    elem_lists = set()
    for bases, elems_of in candidates:
        for gens, elems in zip(bases, elems_of):
            sub = IsotropicSubgroup(gens=gens)
            assert condition_II(sub)
            assert sorted(elems) == encodings(sub)
            elem_lists.add(tuple(sorted(elems)))
    assert len(elem_lists) == 80
    types = {}
    for [v] in candidates[1][0]:
        for c in (1, 2):
            t = delta([c * x % 5 for x in v])
            types[t.a, t.b, min(t.y, 5 - t.y)] = v
    assert len(set(map(tuple, types.values()))) == 5
    assert set(types) == STARRED_TYPES - {(0, 0, 0)}


def swept_orbits(subgroups):
    """Sweep (gens, elems) pairs as `classify_isotropic_subgroups` sweeps
    its candidates, but on the oracle's sorted element lists: the keys of
    the orbits met, and the element encodings of every subgroup in them."""
    digits = tables()["digits"]
    keys, seen = set(), set()
    for _gens, elems in subgroups:
        if elems.tobytes() in seen:
            continue
        images = orbit_images(digits[elems])
        seen.update(row.tobytes() for row in images)
        keys.add(min_row(images))
    return keys, seen


def test_orbit_candidates_meet_every_orbit_of_the_oracle():
    """The orbit-first candidates and the 2713 exhaustive survivors sweep
    out the same nine orbits, with no reference labels involved."""
    survivors = admissible_subgroups()
    oracle_keys, _ = swept_orbits(survivors)
    keys, seen = swept_orbits(
        (gens, np.array(encodings(IsotropicSubgroup(gens=gens)), dtype=np.int64))
        for gens in candidate_gens())
    assert len(keys) == 9 and keys == oracle_keys
    assert all(elems.tobytes() in seen for _gens, elems in survivors)


def test_classification_memory_peak():
    """With the tables and reference images warm, classify allocates less
    than 32 MB at its peak."""
    import tracemalloc

    discform._x_parts()
    discform._reference_images()
    tracemalloc.start()
    try:
        classify_isotropic_subgroups()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_classification_validates_only_representatives(monkeypatch):
    built = []
    real_init = IsotropicSubgroup.__init__

    def counting(self, gens):
        built.append(gens)
        real_init(self, gens)

    monkeypatch.setattr(IsotropicSubgroup, "__init__", counting)
    discform._reference_images.cache_clear()
    try:
        records = classify_isotropic_subgroups()
    finally:
        discform._reference_images.cache_clear()
    assert len(records) == 9
    assert len(built) < 50


def test_classification_sweeps_an_orbit_outside_the_references(monkeypatch):
    """With a line (H_5), a plane (H_7) or both dropped from the
    references, each dropped orbit is swept out as one "unmatched" record,
    with the dimension and invariants of the reference it stands for, and
    in its orbit, which `orbit_names` then finds outside the references."""
    expected = {r.label: r for r in classify_isotropic_subgroups()}
    for dropped in (("H_5",), ("H_7",), ("H_5", "H_7")):
        references = {k: v for k, v in REFERENCE_SUBGROUPS.items() if k not in dropped}
        monkeypatch.setattr(discform, "REFERENCE_SUBGROUPS", references)
        discform._reference_images.cache_clear()
        try:
            records = classify_isotropic_subgroups()
            # records are sorted by dimension, and H_5 is a line, H_7 a plane
            odd = [r for r in records if r.label == "unmatched"]
            names = [named(record.gens, expected[label].gens)
                     for record, label in zip(odd, dropped, strict=True)]
        finally:
            discform._reference_images.cache_clear()
        assert len(records) == 9
        assert (sorted(r.label for r in records)
                == sorted(references) + ["unmatched"] * len(dropped))
        for record, label, pair in zip(odd, dropped, names):
            ref = expected[label]
            assert (record.dim, record.disc_exp, record.root_type, record.e_empty) == (
                ref.dim, ref.disc_exp, ref.root_type, ref.e_empty)
            assert pair == [(None, 0), (None, 0)]


def test_reference_orbits_are_the_admissible_subgroups():
    """The nine reference orbits hold exactly the 2713 admissible
    subgroups of the exhaustive oracle: `orbit_names` gives each the
    label of the echelon-key orbit map (the oracle), a subgroup and its
    image under a symmetry share a label, and an isotropic line or plane
    that is not admissible has none."""
    orbits = reference_orbits()
    survivors = admissible_subgroups()
    assert len(orbits) == 2713
    assert ({tuple(encodings(IsotropicSubgroup(gens=key_gens(key)))) for key in orbits}
            == {tuple(elems.tolist()) for _gens, elems in survivors})
    assert sorted(set(orbits.values())) == sorted(REFERENCE_SUBGROUPS)
    names = named(*(gens for gens, _elems in survivors))
    for (gens, _elems), (label, _first) in zip(survivors, names, strict=True):
        [key] = _echelon_keys(np.reshape(gens, (1, -1, 6))).tolist()
        assert label == orbits[key], gens
    assert named(*REFERENCE_SUBGROUPS.values()) == [
        (label, i) for i, label in enumerate(REFERENCE_SUBGROUPS)]
    h6 = REFERENCE_SUBGROUPS["H_6"]
    swap = tuple(tuple(v[i] for i in (1, 0, 2, 3, 4, 5)) for v in h6)
    assert named(h6, swap) == [("H_6", 0), ("H_6", 0)]
    line = (1, 2, 0, 0, 0, 0)                   # type (1, 1, 0), not starred
    plane = (line, (0, 0, 1, 2, 0, 0))
    assert not condition_II(IsotropicSubgroup(gens=plane))
    assert [label for label, _first in named((line,), plane)] == [None, None]


def test_reference_orbit_compares_like_dimensions(monkeypatch):
    """Every subgroup holds the image of the empty basis of H_0, so only
    references of the subgroup's own dimension may name its orbit: with
    H_0 and H_6 as the only references, the zero subgroup and a plane in
    the orbit of H_6 are named, and a line, even one inside H_6, is not.
    That line and H_5 share the type (2, 2, 0), so they share an orbit."""
    h6 = REFERENCE_SUBGROUPS["H_6"]
    monkeypatch.setattr(discform, "REFERENCE_SUBGROUPS", {"H_0": (), "H_6": h6})
    discform._reference_images.cache_clear()
    try:
        assert named((), h6[::-1], h6[:1], REFERENCE_SUBGROUPS["H_5"]) == [
            ("H_0", 0), ("H_6", 1), (None, 2), (None, 2)]
    finally:
        discform._reference_images.cache_clear()


def test_orbit_members_match_the_echelon_oracle():
    """One `_orbits` call per dimension over all 2713 admissible subgroups
    (2016 planes): it finds the reference orbits of that dimension and no
    other, each holding exactly the subgroups that the echelon-key oracle
    labels with it."""
    orbits = reference_orbits()
    survivors = admissible_subgroups()
    for d in (0, 1, 2):
        subs = [(g, elems) for g, elems in survivors if len(g) == d]
        gens = np.array([g for g, _ in subs]).reshape(len(subs), d, 6)
        found = discform._orbits([g for g, _ in subs], [elems.tolist() for _, elems in subs])
        labels = [orbits[key] for key in _echelon_keys(gens).tolist()]
        assert [label for label, _hits in found] == sorted(set(labels)), d
        for label, hits in found:
            assert hits == [k for k, x in enumerate(labels) if x == label], label


def test_reference_subgroups_distinct_orbits():
    names = named(*REFERENCE_SUBGROUPS.values())
    assert len({first for _label, first in names}) == 9


def test_overlattice_disc_by_dimension():
    """|disc S_H| = |H^perp / H| = 5^(6 - 2 dim H) for H_0..H_8, with H^perp
    counted by the oracle."""
    for label, gens in REFERENCE_SUBGROUPS.items():
        sub = IsotropicSubgroup(gens=gens)
        assert discform._subgroup_invariants(sub)[2] == disc_exponent(gens) == 6 - 2 * sub.dim


def plane_scan_dimension():
    """The exhaustive form of the dimension bound: 3 if some isotropic plane
    has an isotropic vector orthogonal to it outside it, else 2.  A plane
    lies in its own orthogonal complement, so more than 25 isotropic
    vectors orthogonal to both generators means a third dimension."""
    t = tables()
    planes, gen_pairs = isotropic_planes()
    if len(planes) == 0:
        return 1 if len(line_representatives()) else 0
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

    monkeypatch.setattr(discform, "_orbit_candidates", forbidden)
    monkeypatch.setattr(discform, "_type_representatives", forbidden)
    assert max_isotropic_dimension() == 2


def test_plane_scan_oracle():
    assert plane_scan_dimension() == max_isotropic_dimension() == 2


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
    assert rep.exponent == 5 and rep.order == 5 ** 6
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


def test_verify_q_consistency_fails_on_wrong_exponent(monkeypatch):
    """An exponent other than 5 is a structured FAIL, not an exception."""
    real = discform.dual_data(build_S0().gram)
    monkeypatch.setattr(discform, "dual_data", lambda gram: (25, real[1]))
    discform._reference_form.cache_clear()
    try:
        rep = verify_q_consistency()
    finally:
        discform._reference_form.cache_clear()
    assert not rep.passed and rep.exponent == 25 and rep.order == 5 ** 6


# ---------------------------------------------------------------------------
# the class shells and the root catalogue against the overlattice enumeration
# ---------------------------------------------------------------------------

def _table_subgroups():
    """The subgroups behind the 13 table rows: 0 and one line per type."""
    return [IsotropicSubgroup(gens=(discform.decode(e),) if e else ())
            for _key, e in sorted(discform._type_representatives().items())]


def _reference_subgroups():
    return [IsotropicSubgroup(gens=gens) for gens in REFERENCE_SUBGROUPS.values()]


@pytest.fixture(scope="module")
def enumerated_invariants():
    """generators -> (root type, E empty, disc exponent) by enumeration,
    once per subgroup: the catalogue entries in the classes of H, E of
    S0^vee read off the catalogue (it holds E of every S_H), and H^perp
    counted over G; for the 80 orbit candidates, the 13 type
    representatives, H_0..H_8 and a seeded sample of 60 admissible
    subgroups of the exhaustive oracle."""
    sample = random.Random(23).sample([gens for gens, _ in admissible_subgroups()], 60)
    subgroups = ([IsotropicSubgroup(gens=gens) for gens in candidate_gens() + sample]
                 + _table_subgroups() + _reference_subgroups())
    e_empty = not e_vectors()
    out = {}
    for sub in subgroups:
        if sub.gens not in out:
            out[sub.gens] = (str(catalogue_root_type(sub)), e_empty, disc_exponent(sub.gens))
    return out


def test_catalogue_invariants_match_enumeration(enumerated_invariants):
    assert len(enumerated_invariants) >= 138
    for gens, expected in enumerated_invariants.items():
        assert discform._subgroup_invariants(IsotropicSubgroup(gens=gens)) == expected, gens


def test_e_certificate_matches_enumerated_e_set():
    """The certificate says E is empty, and so does the catalogue: no norm
    -2 vector r of h^perp in S0^vee has (h - r) / 2 in S0^vee."""
    assert discform.e_splittings() == [] == e_vectors()


def test_short_summand_vectors():
    """Per chain 1 + 20 vectors of class 0 (norms 0 and -2), 10 of classes
    +-1 and 20 of classes +-2, all that the chain's dual holds of those
    norms (the 20 roots of A4 and the 10 + 20 minimal glue vectors of
    A4^vee, Conway-Sloane, SPLAG ch. 4); on l the five multiples j l^vee,
    |j| <= 2."""
    tables = discform._short_summand_vectors()
    classes = np.array(discform._dual_classes(), dtype=np.int64)
    assert len(tables) == 6
    for j, (vecs, norms) in enumerate(tables[:5]):
        # the vectors are given on the chain's own four dual coordinates
        part, norms = np.array(vecs, dtype=np.int64), np.array(norms)
        assert part.shape == (len(norms), 4)
        x = (part @ classes[4 * j:4 * j + 4] % 5)[:, j]
        counts = {(c, n): 0 for c in (0, 1, 2) for n in (0, -4, -6, -10)}
        for c, n in zip(np.minimum(x, 5 - x).tolist(), norms.tolist()):
            counts[c, n] += 1
        assert counts == {**dict.fromkeys(counts, 0), (0, 0): 1, (0, -10): 20,
                          (1, -4): 10, (2, -6): 20}
    vecs, norms = tables[5]
    assert discform._SUMMANDS[5] == [L_INDEX]
    assert [v for (v,) in vecs] == [-2, -1, 0, 1, 2]
    assert list(norms) == [-8, -2, 0, -2, -8]


def test_short_summand_vectors_match_the_product_box():
    """The box of each summand is [-2, 2]^n row for row as
    `itertools.product` lists it, so the kept vectors, their norms and
    their order (and with them `_shell_table`) are those of that box."""
    n5 = np.array(discform._reference_form()[1], dtype=np.int64)
    for idx, (vecs, norms) in zip(discform._SUMMANDS, discform._short_summand_vectors()):
        box = np.array(list(itertools.product(range(-2, 3), repeat=len(idx))))
        box_norms = np.einsum("ij,jk,ik->i", box, n5[np.ix_(idx, idx)], box)
        keep = box_norms >= -10
        assert all(type(x) is int for v in vecs for x in v)
        assert [list(v) for v in vecs] == box[keep].tolist()
        assert all(len(v) == len(idx) for v in vecs)
        assert list(norms) == box_norms[keep].tolist()


def test_root_catalogue_structure():
    """6100 distinct vectors in 161 classes, every class isotropic; each
    vector has norm -2 and is orthogonal to h, through 5 gram^{-1} from
    the Gauss-Jordan inverse."""
    vectors, classes = root_catalogue()
    assert vectors.shape == (6100, 22)
    assert len({tuple(v) for v in vectors.tolist()}) == 6100
    assert len(set(classes.tolist())) == 161
    assert all(q_value(discform.decode(int(e))) == 0 for e in set(classes.tolist()))
    gram = [list(r) for r in build_S0().gram]
    ginv5 = [[5 * x for x in row] for row in gauss_jordan(gram)[1]]
    assert all(x.denominator == 1 for row in ginv5 for x in row)
    primal5 = vectors @ np.array(ginv5, dtype=np.int64)         # 5 x primal coordinates
    assert (np.einsum("ij,jk,ik->i", primal5, np.array(gram), primal5) == -50).all()
    assert not (primal5 @ np.array(gram) @ np.array(H_PRIMAL)).any()


def test_root_counts_by_type():
    """The catalogue entries in the classes of H: 100 roots for 5A4, 150 for
    A9+3A4 and 300 for E8+3A4."""
    vectors, classes = root_catalogue()
    sizes = {"5A4": 100, "A9+3A4": 150, "E8+3A4": 300}
    for sub in _table_subgroups() + _reference_subgroups():
        encs = list(sub._codes)
        rt = str(discform.root_type_orthogonal_to_h(sub))
        assert int(np.isin(classes, encs).sum()) == sizes[rt]


def test_shell_table_is_lazy():
    # importing the package builds nothing: the shell table is built on first use
    code = ("import charfive, charfive.discform as d; "
            "print(d._shell_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


def test_shell_table():
    """Per chain: dimension 4, 20 roots in class 0, and the tops 0, -4/5,
    -6/5 of classes 0, +-1, +-2 reached by 1, 5 and 10 vectors; on l the
    class y = 3 j of j l^vee with top -2 j^2 / 5."""
    chain = (4, 20, ((0, 1), (-4, 5), (-6, 10), (-6, 10), (-4, 5)))
    line = (1, 0, ((0, 1), (-8, 1), (-2, 1), (-2, 1), (-8, 1)))
    assert discform._shell_table() == (chain,) * 5 + (line,)


@pytest.mark.parametrize("block", ["norms", "classes"])
def test_shell_table_certificates(monkeypatch, block):
    """A coupling between two chains in 5 gram^{-1}, or a chain class with
    a part in another coordinate, makes the build raise."""
    # built from the true Gram matrix before it is patched
    discform._short_summand_vectors(), discform._dual_classes()
    if block == "norms":
        m, n5, form = discform._reference_form()
        n5 = [list(row) for row in n5]
        n5[0][4] = n5[4][0] = 1
        monkeypatch.setattr(discform, "_reference_form", lambda: (m, n5, form))
    else:
        classes = [list(row) for row in discform._dual_classes()]
        classes[0][1] = 1
        monkeypatch.setattr(discform, "_dual_classes", lambda: classes)
    discform._shell_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            discform._shell_table()
    finally:
        discform._shell_table.cache_clear()


def test_glue_roots_match_the_catalogue_on_every_class():
    """On all 15625 classes, `_glue_roots` gives the number of catalogue
    entries in the class, and every entry is nonzero on exactly the
    summands of its support: 160 glue classes holding 6000 roots.  Class 0
    holds the 100 roots of the chains, each in one summand, 20 per chain
    as the shell table counts them."""
    vectors, classes = root_catalogue()
    touched = np.stack([vectors[:, idx].any(axis=1) for idx in discform._SUMMANDS], axis=1)
    order = np.argsort(classes, kind="stable")
    keys, starts = np.unique(classes[order], return_index=True)
    groups = dict(zip(keys.tolist(), np.split(order, starts[1:])))
    n_glue = n_roots = 0
    for e in range(1, 5 ** 6):
        glue = discform._glue_roots(discform.decode(e))
        rows = groups.get(e)
        if rows is None:
            assert glue is None, e
            continue
        supports = {tuple(np.nonzero(t)[0].tolist()) for t in touched[rows]}
        assert glue is not None and glue[0] == len(rows), e
        assert supports == {tuple(glue[1])}, e
        n_glue, n_roots = n_glue + 1, n_roots + glue[0]
    assert (n_glue, n_roots) == (160, 6000)
    assert discform._glue_roots((0,) * 6) is None
    assert touched[groups[0]].sum(axis=1).tolist() == [1] * 100
    assert touched[groups[0]].sum(axis=0).tolist() == [
        roots for _dim, roots, _shells in discform._shell_table()]


@pytest.fixture(scope="module")
def isotropic_subgroups():
    """All 4033 totally isotropic subgroups: 0, 756 lines and 3276 planes."""
    _planes, gen_pairs = isotropic_planes()
    return ([IsotropicSubgroup(gens=())]
            + [IsotropicSubgroup(gens=(discform.decode(int(e)),))
               for e in line_representatives()]
            + [IsotropicSubgroup(gens=tuple(discform.decode(int(e)) for e in pair))
               for pair in gen_pairs])


def test_root_types_match_the_catalogue_on_every_isotropic_subgroup(isotropic_subgroups):
    """The support-graph root type equals `of_roots` on the catalogue
    entries in the classes of H, for every isotropic H; 5A4 exactly on the
    2713 admissible subgroups."""
    assert len(isotropic_subgroups) == 4033
    tally = {}
    for sub in isotropic_subgroups:
        rt = discform.root_type_orthogonal_to_h(sub)
        assert rt == catalogue_root_type(sub), sub.gens
        tally[str(rt)] = tally.get(str(rt), 0) + 1
    assert tally == {"5A4": 2713, "A9+3A4": 840, "A9+E8+A4": 240, "E8+3A4": 180,
                     "2E8+A4": 60}
