"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import io
import json
import random

from charfive.cli import run
from charfive.curvecheck import analyze, ns_gram_model, random_in_U, singular_points
from charfive.discform import (
    IsotropicSubgroup,
    REFERENCE_SUBGROUPS,
    e_splittings,
    max_isotropic_dimension,
    orbit_names,
    root_type_orthogonal_to_h,
    verify_q_consistency,
)
from charfive.ffpoly import GF, parse_poly_literal
from charfive.lattice import build_S0, dual_data

from fraction_kernels import short_vectors_box
from lattice_kernels import (
    H_PRIMAL,
    e_set,
    mat_mul,
    overlattice_from_generators,
    root_type_orthogonal_to,
    short_vectors_of_norm,
)
from test_intmat import minor_gcd_factors
from test_lattice import _random_negative_definite, _random_nonsingular


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue()


def test_criterion_1_table1():
    code, out = _cli(["lattice", "table1"])
    rows = json.loads(out)["results"]
    ok = code == 0 and len(rows) == 13
    starred = [r for r in rows if r["starred"]]
    unstarred = {tuple(r["type"]): r for r in rows if not r["starred"]}
    ok = ok and len(starred) == 10
    ok = ok and all(r["root_type"] == "5A4" and r["E_empty"] for r in starred)
    ok = ok and set(unstarred) == {(0, 2, 1), (1, 1, 0), (2, 0, 2)}
    ok = ok and unstarred[(0, 2, 1)]["root_type"] == "A9+3A4"
    ok = ok and unstarred[(1, 1, 0)]["root_type"] == "E8+3A4"
    ok = ok and unstarred[(2, 0, 2)]["root_type"] == "A9+3A4"
    ok = ok and all(r["E_empty"] for r in rows)
    _report(1, ok, "13-row isotropy table with 10 starred and 3 unstarred rows")


def test_criterion_2_classification():
    code, out = _cli(["lattice", "classify"])
    recs = json.loads(out)["results"]
    ok = code == 0 and len(recs) == 9
    dist = {}
    for r in recs:
        dist[r["disc_exp"]] = dist.get(r["disc_exp"], 0) + 1
    ok = ok and dist == {6: 1, 4: 5, 2: 3}
    # the nine reference generator sets fall into nine distinct orbits that
    # match the computed representatives one-to-one
    labels = list(REFERENCE_SUBGROUPS)
    names = orbit_names(
        [IsotropicSubgroup(gens=gens) for gens in REFERENCE_SUBGROUPS.values()]
        + [IsotropicSubgroup(gens=tuple(map(tuple, r["gens"]))) for r in recs])
    ok = ok and names[:9] == [(label, i) for i, label in enumerate(labels)]
    ok = ok and names[9:] == [(r["label"], labels.index(r["label"])) for r in recs]
    _report(2, ok, "9 orbit representatives, discriminants {-5^6:1, -5^4:5, -5^2:3}")


def test_criterion_3_q_consistency():
    rep = verify_q_consistency()
    ok = rep.passed and rep.n_checked == 5 ** 6 and not rep.mismatches
    _report(3, ok, "encoded discriminant form equals the lattice form on all "
                   "15625 elements")


def test_criterion_4_sigma3_hand_check():
    rt = str(root_type_orthogonal_to_h(IsotropicSubgroup(gens=())))
    ok = rt == "5A4" and e_splittings() == []
    # the same facts by enumeration in the base lattice itself
    s0 = overlattice_from_generators(build_S0(), [])
    ok = ok and str(root_type_orthogonal_to(s0, H_PRIMAL)) == rt
    ok = ok and e_set(s0, H_PRIMAL) == []
    _report(4, ok, "the base lattice itself has root type 5A4 and empty E")


def test_criterion_5_dimension_bound():
    ok = max_isotropic_dimension() == 2
    _report(5, ok, "no totally isotropic subgroup of dimension 3 exists")


def test_criterion_6_curve_suite():
    models = [parse_poly_literal("[0,0,1,0,0,0,1]@5")]
    fixture = models[0]
    checked = 0
    ok = True
    from charfive.curvecheck import SexticModel

    batch = [SexticModel(fixture)]
    for seed in range(60):
        batch.append(random_in_U(GF(1), seed))
    for seed in range(60):
        batch.append(random_in_U(GF(2), seed))
    for m in batch:
        report = analyze(m)
        pts, w = report.points, report.wall
        ok = ok and len(pts) == 5
        ok = ok and all(p.is_A4 for p in pts)
        ok = ok and w.corrections == (5, 5, 5, 5, 5)
        ok = ok and w.product == 5
        checked += 1
    ok = ok and checked >= 101
    _report(6, ok, f"{checked} sextics over F5 and F25: five A4 points, "
                   "polar multiplicity 5, product 5")


def test_criterion_7_ns_model():
    f = parse_poly_literal("[0,0,1,0,0,0,1]@5")
    from charfive.curvecheck import SexticModel

    lat = ns_gram_model(singular_points(SexticModel(f), 8))
    ok = lat.rank == 22
    ok = ok and all(lat.gram[i][i] % 2 == 0 for i in range(22))
    ok = ok and lat.det() == -(5 ** 6)
    ok = ok and lat.signature() == (1, 21)
    _report(7, ok, "rank-22 model: even, determinant -5^6, signature (1,21)")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(424242)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 5)
        mat = _random_nonsingular(rng, n, symmetric=True)
        m, m_inv = dual_data(tuple(map(tuple, mat)))
        ok = ok and m == minor_gcd_factors(mat)[-1]
        ok = ok and mat_mul([list(r) for r in m_inv], mat) == [
            [m * int(i == j) for j in range(n)] for i in range(n)]
        if not ok:
            break
    _report("8a", ok, "the exponent from dual_data matches the minor-gcd oracle "
                      "on 1000 random nonsingular symmetric matrices")
    rng = random.Random(515151)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 5)
        g = _random_negative_definite(rng, n)
        norm = -2 * rng.randint(1, 3)
        ok = ok and (short_vectors_of_norm(g, norm) == short_vectors_box(g, norm))
        if not ok:
            break
    _report("8b", ok, "short-vector enumeration matches the box oracle on "
                      "1000 random instances")
