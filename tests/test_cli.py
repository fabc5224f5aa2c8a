"""Command-line interface: verbs, exit codes, determinism, golden files."""

import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from charfive import discform
from charfive.cli import VERBS, _parse_args, run
from charfive.curvecheck import random_in_U
from charfive.ffpoly import GF, GFPoly, format_poly_literal

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE = "[0,0,1,0,0,0,1]@5"


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_table1_md_matches_golden():
    code, out, _ = invoke(["lattice", "table1", "--format", "md"])
    assert code == 0
    assert out == (GOLDEN / "table1.md").read_text()
    data_rows = [l for l in out.splitlines()[2:] if l.strip()]
    assert len(data_rows) == 13


def test_table1_json_matches_golden():
    code, out, _ = invoke(["lattice", "table1", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "table1.json").read_text()


def test_classify_md_matches_golden():
    code, out, _ = invoke(["lattice", "classify", "--format", "md"])
    assert code == 0
    assert out == (GOLDEN / "classify.md").read_text()
    data_rows = [l for l in out.splitlines()[2:] if l.strip()]
    assert [row.split()[1] for row in data_rows] == [f"H_{i}" for i in range(9)]


def test_classify_matches_golden():
    code, out, _ = invoke(["lattice", "classify"])
    assert code == 0
    assert out == (GOLDEN / "classify.json").read_text()
    payload = json.loads(out)
    assert len(payload["results"]) == 9
    assert [r["label"] for r in payload["results"]] == [f"H_{i}" for i in range(9)]


@pytest.mark.parametrize("name, argv", [
    ("curve_check_fixture.json", ["curve", "check", "--poly", FIXTURE]),
    # the two samples of `curve random --field 5^2 --seed 7 --count 2`
    ("curve_check_gf25_seed7.json",
     ["curve", "check", "--poly", "[[0,2],[4,0],[2,2],[0,4],[1,0],[2,0],[2,3]]@5^2"]),
    ("curve_check_gf25_seed8.json",
     ["curve", "check", "--poly", "[[2,1],[1,2],[2,2],[4,0],[1,1],[2,4],[1,0]]@5^2"]),
    ("curve_ns_fixture.json", ["curve", "ns", "--poly", FIXTURE]),
    # a non-default modulus: points in GF(5^2) and GF(5^4), three polar draws
    ("curve_check_gf25_custom_mod.json",
     ["curve", "check", "--poly",
      "[[0,0],[0,3],[3,0],[4,4],[2,2],[4,0],[1,4]]@5^2;mod=[2,1,1]"]),
    # `curve random --field 5^3 --seed 4`: f' is irreducible over GF(125), so
    # one Frobenius orbit of length 5 in GF(5^15), past MAX_LITERAL_DEGREE
    ("curve_check_gf125_deg15.json",
     ["curve", "check", "--poly",
      "[[0,1,1],[3,2,1],[3,2,0],[2,3,3],[0,0,2],[1,2,2],[4,3,0]]@5^3"]),
    # `curve random --field 5^4 --seed 6`: one orbit of five points in
    # GF(5^20), past the one-byte slots of the packed kernel
    ("curve_check_gf625_deg20.json",
     ["curve", "check", "--poly",
      "[[2,2,3,4],[2,1,3,0],[1,4,4,3],[2,3,0,2],[2,2,1,0],[0,0,0,0],[4,4,0,1]]@5^4"]),
    # a packed base field below GF(5^12): `curve random` stdout with --check
    ("curve_random_gf5_6_check.json",
     ["curve", "random", "--field", "5^6", "--seed", "0", "--count", "8", "--check"]),
    # a dense modulus at a packed degree: the kernel folds five times
    ("curve_check_gf5_6_dense_mod.json",
     ["curve", "check", "--poly",
      "[[3,3,0,2,4,3],[3,2,3,2,4,1],[4,1,2,1,0,4],[2,4,4,1,2,0],[0,2,3,4,0,2],[3,2,4,1,4,3],"
      "[3,4,2,0,4,0]]@5^6;mod=[1,1,1,1,1,1,1]"]),
    # 200 GF(5) draws in one process, most of them repeating an earlier monic f'
    ("curve_random_gf5_check.json",
     ["curve", "random", "--field", "5", "--seed", "0", "--count", "200", "--check"]),
])
def test_curve_output_matches_golden(name, argv):
    code, out, _ = invoke(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def _random_literals():
    """The first 40 `random_in_U` sextics over GF(25) and over GF(5)."""
    return [format_poly_literal(random_in_U(GF(k), seed).f) for k in (2, 1) for seed in range(40)]


def _gf5_class_literals():
    """Ten sextics over GF(5) with distinct monic f', drawn by `random_in_U`
    from seed 100 on, each as f, f + c5 x^5 + c0, 2f and 3(f + c5 x^5 + c0)
    with seeded nonzero c5, c0: the four share one monic f'."""
    field = GF(1)
    rng = random.Random(0)
    literals, seen, seed = [], set(), 100
    while len(seen) < 10:
        f = random_in_U(field, seed).f
        seed += 1
        key = f.derivative().monic()
        if key in seen:
            continue
        seen.add(key)
        shifted = f + GFPoly.from_ints(field, [rng.randrange(1, 5), 0, 0, 0, 0,
                                               rng.randrange(1, 5)])
        for scale, g in ((1, f), (1, shifted), (2, f), (3, shifted)):
            literals.append(format_poly_literal(
                GFPoly(field, [field.mul(scale, c) for c in g.coeffs])))
    return literals


@pytest.mark.parametrize("name, literals", [
    pytest.param("curve_check_batch.jsonl", _random_literals, id="random_gf25_gf5"),
    pytest.param("curve_check_batch_gf5.jsonl", _gf5_class_literals, id="gf5_fprime_classes"),
])
def test_curve_check_batch_matches_golden(name, literals):
    """`curve check` on a list of sextics in one process, one stdout per
    line: random ones over GF(25) and GF(5) (singular points up to
    GF(5^10), the minimal-root choice of each embedding and the polar
    draws), and GF(5) sextics that share their monic f' four at a time,
    so that most root records come from memory."""
    expected = (GOLDEN / name).read_text().splitlines(keepends=True)
    outputs = []
    for literal in literals():
        code, out, _ = invoke(["curve", "check", "--poly", literal])
        assert code == 0
        outputs.append(out)
    assert len(expected) == len(outputs) >= 40
    for got, want in zip(outputs, expected):
        assert got == want


def test_output_is_byte_stable():
    first = invoke(["lattice", "classify"])
    second = invoke(["lattice", "classify"])
    assert first[1] == second[1]
    a = invoke(["curve", "check", "--poly", "[0,0,1,0,0,0,1]@5"])
    b = invoke(["curve", "check", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert a[1] == b[1]


def test_curve_check_fixture():
    code, out, _ = invoke(["curve", "check", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert code == 0
    payload = json.loads(out)
    res = payload["results"]
    assert res["in_U"] is True
    assert len(res["points"]) == 5
    assert all(p["is_A4"] for p in res["points"])
    assert all(p["mult"] == 5 for p in res["points"])
    assert res["wall"]["total"] == 30
    assert res["wall"]["corrections"] == [5, 5, 5, 5, 5]
    assert res["wall"]["product"] == 5
    assert payload["seed"] == 0


def test_curve_sing_and_wall():
    code, out, _ = invoke(["curve", "sing", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert code == 0
    res = json.loads(out)["results"]
    assert "points" in res and "wall" not in res
    code, out, _ = invoke(["curve", "wall", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert code == 0
    res = json.loads(out)["results"]
    assert "wall" in res and "points" not in res


def test_curve_not_in_u_reports_cleanly():
    code, out, _ = invoke(["curve", "check", "--poly", "[0,0,0,0,0,0,1]@5"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["in_U"] is False
    assert "points" not in res


def test_curve_not_in_u_beyond_max_ext():
    """f = x^6 + x^4 + 2x^2 has f' = x (x^2 + 2)^2, whose repeated roots lie
    in GF(25): with --max-ext 1 root finding stops at the quadratic, and
    the verbs still report the curve as outside U."""
    literal = "[0,0,2,0,1,0,1]@5"
    for max_ext in ("1", "8"):
        code, out, _ = invoke(["curve", "check", "--poly", literal, "--max-ext", max_ext])
        assert code == 0
        assert json.loads(out)["results"] == {"poly": literal, "in_U": False}
        code, _, err = invoke(["curve", "ns", "--poly", literal, "--max-ext", max_ext])
        assert code == 2 and "outside the admissible open set" in err


def test_splitting_field_too_large_exits_1():
    """f = 3x^6 + 3x^5 + 2x^3 + 4x + 1 is in U, and f' = 3x^5 + x^2 + 4 is a
    quadratic times a cubic over GF(5): with --max-ext 2 root finding stops
    at the cubic, and the verb reports it on stderr alone, with exit 1."""
    code, out, err = invoke(["curve", "check", "--poly", "[1,4,0,2,0,3,3]@5", "--max-ext", "2"])
    assert (code, out) == (1, "")
    assert err == "splitting field too large: irreducible factors of degree > 2 remain\n"


@pytest.mark.parametrize("literal", [
    FIXTURE, "[[0,2],[4,0],[2,2],[0,4],[1,0],[2,0],[2,3]]@5^2"])
def test_one_squarefree_gcd_per_curve(monkeypatch, literal):
    """Each curve verb takes gcd(f', f'') once per monic f' and process:
    the root records of f' decide membership in U, and a second verb on
    the same literal reads them from `_monic_roots` without a gcd."""
    from charfive import ffpoly

    fp = ffpoly.parse_poly_literal(literal).derivative()
    calls = []
    real = ffpoly.poly_gcd

    def counting(u, v):
        if u.monic() == fp.monic() and v.monic() == fp.derivative().monic():
            calls.append(1)
        return real(u, v)

    monkeypatch.setattr(ffpoly, "poly_gcd", counting)
    for verb in ("check", "sing", "wall", "ns"):
        calls.clear()
        ffpoly._monic_roots.cache_clear()
        assert invoke(["curve", verb, "--poly", literal])[0] == 0
        assert len(calls) == 1, verb
        assert invoke(["curve", "check", "--poly", literal])[0] == 0
        assert len(calls) == 1, verb


def test_curve_ns_lattice_json():
    code, out, _ = invoke(["curve", "ns", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"labels", "gram"}
    assert len(payload["gram"]) == 22
    assert payload["labels"][20:] == ["h", "l"]


def test_curve_random():
    code, out, _ = invoke(["curve", "random", "--field", "5^2", "--seed", "7",
                           "--count", "2", "--check"])
    assert code == 0
    res = json.loads(out)["results"]
    assert len(res) == 2
    for entry in res:
        assert entry["in_U"] and entry["n_points"] == 5
        assert entry["all_A4"] and entry["wall_product"] == 5
    again = invoke(["curve", "random", "--field", "5^2", "--seed", "7",
                    "--count", "2", "--check"])
    assert again[1] == out


def test_verify_round_trip(tmp_path):
    path = tmp_path / "classify.json"
    code, out, _ = invoke(["lattice", "classify", "--out", str(path)])
    assert code == 0
    code, out, err = invoke(["lattice", "verify", "--in", str(path)])
    assert code == 0, err
    report = json.loads(out)
    assert report["passed"] is True


def test_verify_matches_golden():
    code, out, _ = invoke(["lattice", "verify", "--in", str(GOLDEN / "classify.json")])
    assert code == 0
    assert out == (GOLDEN / "lattice_verify.json").read_text()


@pytest.fixture
def image_calls(monkeypatch):
    """The bases that `discform._image_codes` is called on, with the
    reference images built afresh."""
    calls = []
    real = discform._image_codes

    def counting(basis):
        calls.append(tuple(tuple(int(x) for x in v) for v in basis))
        return real(basis)

    monkeypatch.setattr(discform, "_image_codes", counting)
    discform._reference_images.cache_clear()
    yield calls
    discform._reference_images.cache_clear()


def test_classify_then_verify_builds_each_reference_orbit_once(image_calls, monkeypatch):
    """One process running classify and then verify on its output builds
    the generator images of H_0..H_8 and nothing else."""
    code, out, _ = invoke(["lattice", "classify"])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = invoke(["lattice", "verify"])
    assert code == 0
    assert out == (GOLDEN / "lattice_verify.json").read_text()
    assert sorted(image_calls) == sorted(discform.REFERENCE_SUBGROUPS.values())


def test_verify_names_orbits_outside_the_references(image_calls):
    """Two lines of the unstarred type (1,1,0) in one orbit: verify finds
    the orbit outside the references from the images of X_1, which sweep
    X_2 too, fails both claims on condition II and the reference match,
    and the second also on distinctness."""
    path = GOLDEN / "lattice_verify_unmatched_claims.json"
    claims = json.loads(path.read_text())["results"]
    assert [(c["label"], c["gens"]) for c in claims] == [
        ("X_1", [[1, 2, 0, 0, 0, 0]]), ("X_2", [[2, 1, 0, 0, 0, 0]])]
    code, out, err = invoke(["lattice", "verify", "--in", str(path)])
    assert code == 1
    assert len(image_calls) == 10 and image_calls[-1] == ((1, 2, 0, 0, 0, 0),)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for label in ("X_1", "X_2"):
        assert not checks[f"{label}:condition_II"]["passed"]
        assert not checks[f"{label}:matches_reference"]["passed"]
        assert checks[f"{label}:matches_reference"]["detail"] == "orbit is None"
    assert checks["X_1:distinct_orbit"]["passed"]
    assert not checks["X_2:distinct_orbit"]["passed"]
    assert "FAIL X_2:distinct_orbit" in err


def test_verify_mixed_claims_match_golden():
    """Malformed, non-isotropic, unmatched, mislabelled and repeated claims
    in one payload: the checks keep the order of the claims, planes in one
    orbit outside the references share it, and verify exits 1."""
    code, out, _ = invoke(["lattice", "verify", "--in",
                           str(GOLDEN / "lattice_verify_mixed_claims.json")])
    assert code == 1
    assert out == (GOLDEN / "lattice_verify_mixed.json").read_text()


def test_verify_spans_several_bitset_words(image_calls, tmp_path):
    """64 copies of the nine golden claims, 576 entries, so one orbit test
    per dimension holds many claims of each orbit: each copy after the
    first fails on distinctness and nothing else, and only the nine
    reference images are built."""
    golden = json.loads((GOLDEN / "classify.json").read_text())["results"]
    path = tmp_path / "copies.json"
    path.write_text(json.dumps({"results": golden * 64}))
    code, out, _ = invoke(["lattice", "verify", "--in", str(path)])
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["entry_count"] + [f"{r['label']}:distinct_orbit" for r in golden] * 63
    assert sorted(image_calls) == sorted(discform.REFERENCE_SUBGROUPS.values())


def test_verify_bounds_its_input(image_calls, tmp_path):
    """A payload past MAX_VERIFY_ENTRIES (4097 copies of golden claims)
    fails `entry_count` and builds no subgroup; the form checks still run."""
    golden = json.loads((GOLDEN / "classify.json").read_text())["results"]
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"results": (golden * 456)[:4097]}))
    code, out, err = invoke(["lattice", "verify", "--in", str(path)])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("q_consistency", True), ("dimension_bound", True), ("entry_count", False)]
    assert checks[-1]["detail"] == "4097 entries, more than 4096: none verified"
    assert "FAIL entry_count" in err
    assert image_calls == []


def test_orbit_sweep_fails_rather_than_spins():
    """With `_image_codes` patched to one image whose every vector has the
    code 1, which is not isotropic and so lies in no subgroup, no image
    marks the subgroup it came from: classify reports the error and exits
    1 instead of sweeping forever."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from charfive import cli, discform; "
            "discform._image_codes = lambda basis: [sum(5 ** (6 * k) for k in range(len(basis)))]; "
            "discform._reference_images.cache_clear(); "
            "sys.exit(cli.run(['lattice', 'classify']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == ("error: the images of a basis of dimension 1 "
                          "miss the subgroup it spans\n")


def test_verify_unmatched_matches_golden():
    """The report on the claims of the test above is pinned byte for
    byte, and verify exits 1."""
    code, out, _ = invoke(["lattice", "verify", "--in",
                           str(GOLDEN / "lattice_verify_unmatched_claims.json")])
    assert code == 1
    assert out == (GOLDEN / "lattice_verify_unmatched.json").read_text()


def test_verify_detects_tampering(tmp_path):
    code, out_classify, _ = invoke(["lattice", "classify"])
    tampered = json.loads(out_classify)
    tampered["results"][3]["root_type"] = "E8+3A4"
    # claims equal to the computed value only under ==, or never compared
    retyped = []
    for key, value in (("dim", 7), ("E_empty", 1), ("disc_exp", 6.0), ("sigma", 2.0),
                       ("dim", 1.0), ("dim", None), ("root_type", ["5A4"])):
        payload = json.loads(out_classify)
        payload["results"][1 if key != "disc_exp" else 0][key] = value
        retyped.append(payload)
    malformed = [
        {"results": [{"label": "H_0", "gens": []}]},    # invariants missing
        {"foo": 1},                                      # no results list
        {"results": [3]},                                # entry not an object
        {"results": [{"label": "H_0", "gens": 5, "disc_exp": 6, "sigma": 3,
                      "root_type": "5A4", "E_empty": True}]},
        "{",                                             # not JSON
    ]
    path = tmp_path / "bad.json"
    for payload in [tampered] + retyped + malformed:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, out, err = invoke(["lattice", "verify", "--in", str(path)])
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL " in err
    assert "FAIL payload: not JSON" in err
    # a coordinate that is not an integer is not truncated to one
    for bad in (2.9, "2", True):
        payload = json.loads(out_classify)
        h1 = next(r for r in payload["results"] if r["label"] == "H_1")
        h1["gens"] = [[0, 0, 2, 2, 2, bad]]
        path.write_text(json.dumps(payload))
        code, out, err = invoke(["lattice", "verify", "--in", str(path)])
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL H_1:isotropic: generator coordinate" in err


def test_verify_fails_many_generators(tmp_path):
    """50 generators in F5^6 cannot be independent: a structured FAIL,
    found before any span is built."""
    rng = random.Random(50)
    gens = [[rng.randrange(5) for _ in range(6)] for _ in range(50)]
    path = tmp_path / "gens50.json"
    path.write_text(json.dumps({"results": [
        {"label": "H_0", "gens": gens, "disc_exp": 6, "sigma": 3,
         "root_type": "5A4", "E_empty": True}]}))
    code, out, err = invoke(["lattice", "verify", "--in", str(path)])
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "FAIL H_0:isotropic: generators are not independent" in err


def test_verify_fails_deeply_nested_json_as_payload():
    """A payload nested 5000 deep makes the JSON decoder raise
    RecursionError; verify reports it as a `payload` FAIL in canonical
    JSON, as it does any other text that is not JSON, and exits 1."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-m", "charfive.cli", "lattice", "verify"],
                         input="[" * 5000 + "]" * 5000, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert out.stdout == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["passed"] is False and not checks["payload"]["passed"]
    assert checks["payload"]["detail"].startswith("not JSON: maximum recursion depth")
    assert "Traceback" not in out.stderr


#: what a fuzzed literal or payload may put where an integer was
FUZZ_VALUES = ["2.5", "True", "None", "'2'", "[]", "[[1]]", "{}", "1j", "-7", "10**3",
               "12", "[1,2,3,4]"]


def _fuzz_text(rng, text):
    """One to three edits: delete, insert or replace a character, or swap
    an integer for one of FUZZ_VALUES."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice("0123456789[],@^;=mod-.'e ") + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice("0123456789[],@^;") + text[i + 1:]
        else:
            digits = [j for j, c in enumerate(text) if c.isdigit()]
            if digits:
                j = rng.choice(digits)
                text = text[:j] + rng.choice(FUZZ_VALUES) + text[j + 1:]
    return text


def _fuzz_json(rng, payload):
    """The payload with one or two of its nodes replaced or deleted."""
    def paths(node, path=()):
        yield path
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            yield from paths(child, path + (key,))

    payload = json.loads(json.dumps(payload))
    for _ in range(rng.randint(1, 2)):
        nodes = [p for p in paths(payload) if p]
        if not nodes:                   # "results" itself was deleted
            break
        path = rng.choice(nodes)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(rng.choice(
                ["2.5", "true", "null", '"2"', "[]", "[[1]]", "{}", "-7", "1e400",
                 "[0,0,2,2,2,2]", "[[0,0,2,2,2,2]]", '"5A4"']))
    return payload


def test_fuzzed_inputs_exit_cleanly(tmp_path):
    """Seeded mutations of `--poly` literals and `lattice verify` payloads:
    each gives exit 0, 1 or 2 and never a traceback."""
    rng = random.Random(6)
    literals = [FIXTURE, "[[0,2],[4,0],[2,2],[0,4],[1,0],[2,0],[2,3]]@5^2",
                "[1,2]@5^2;mod=[1,1,1]"]
    for _ in range(200):
        literal = _fuzz_text(rng, rng.choice(literals))
        code, _out, err = invoke(["curve", "check", "--poly", literal, "--max-ext", "2"])
        assert code in (0, 1, 2) and "Traceback" not in err, literal
    entries = json.loads(invoke(["lattice", "classify"])[1])["results"]
    path = tmp_path / "fuzz.json"
    for _ in range(100):
        text = json.dumps(_fuzz_json(rng, {"results": [rng.choice(entries)]}))
        if rng.random() < 0.3:
            text = _fuzz_text(rng, text)
        path.write_text(text)
        code, _out, err = invoke(["lattice", "verify", "--in", str(path)])
        assert code in (0, 1, 2) and "Traceback" not in err, text


def test_empty_result_list_is_valid_json():
    code, out, _ = invoke(["curve", "random", "--seed", "1", "--count", "0"])
    assert code == 0
    assert json.loads(out)["results"] == []


def test_usage_errors(tmp_path):
    assert invoke(["lattice", "nonsense"])[0] == 2
    assert invoke(["bogus"])[0] == 2
    assert invoke(["curve", "check", "--poly", "oops"])[0] == 2
    assert invoke(["curve", "check", "--poly", "[1,1]@5"])[0] == 2
    assert invoke(["curve", "random", "--field", "7^2"])[0] == 2
    assert invoke(["curve", "random", "--field", "5^x"])[0] == 2
    assert invoke(["curve", "random", "--field", "5^\u00b2"])[0] == 2
    assert invoke(["curve", "random", "--count", "-3"])[0] == 2
    assert invoke(["curve", "random", "--max-ext", "0"])[0] == 2
    assert invoke(["curve", "check", "--poly", FIXTURE, "--max-ext", "0"])[0] == 2
    # the lattice verbs take no --jobs: unknown options
    assert invoke(["lattice", "table1", "--jobs", "0"])[0] == 2
    assert invoke(["lattice", "classify", "--jobs", "-2"])[0] == 2
    # curve output is always JSON, and curve ns draws no polar
    for verb in ("check", "sing", "wall", "ns"):
        assert invoke(["curve", verb, "--poly", FIXTURE, "--format", "json"])[0] == 2
    assert invoke(["curve", "random", "--format", "md"])[0] == 2
    assert invoke(["curve", "ns", "--poly", FIXTURE, "--seed", "3"])[0] == 2
    # field degrees beyond the shipped moduli (1..12)
    for argv in (["curve", "random", "--field", "5^13"],
                 ["curve", "check", "--poly", "[1,0,0,0,0,0,1]@5^40"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "") and "error: " in err
    # a missing input file and an output path in a missing directory
    code, out, err = invoke(["lattice", "verify", "--in", str(tmp_path / "absent.json")])
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = invoke(["curve", "check", "--poly", FIXTURE,
                             "--out", str(tmp_path / "absent" / "x.json")])
    assert (code, out) == (2, "") and err.startswith("error: ")
    # literals are JSON: nesting too deep to read, and Python-only spellings
    for literal in ("[" * 3000 + "]" * 3000 + "@5", "[1,2,]@5", "(0,0,1,0,0,0,1)@5"):
        code, out, err = invoke(["curve", "check", "--poly", literal])
        assert (code, out) == (2, "") and err.startswith("usage error: bad polynomial literal")


def test_out_writes_file(tmp_path):
    path = tmp_path / "t.md"
    code, out, _ = invoke(["lattice", "table1", "--format", "md",
                           "--out", str(path)])
    assert code == 0
    assert out == ""
    assert path.read_text() == (GOLDEN / "table1.md").read_text()


def test_timings_go_to_stderr_only():
    code, out, err = invoke(["curve", "wall", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert code == 0
    assert "elapsed" in err
    assert "elapsed" not in out


def test_cached_parser_reports_usage_errors_after_a_run():
    """Calls in one process share nothing but the verb table: a usage error
    after a successful call still exits 2 with its message, and the next
    call parses its own arguments, not the values of the one before."""
    ok = invoke(["curve", "wall", "--poly", FIXTURE, "--seed", "3"])
    assert ok[0] == 0
    code, out, err = invoke(["curve", "wall", "--poly", FIXTURE, "--bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "--bogus" in err
    code, out, err = invoke(["curve", "random", "--count", "-1"])
    assert (code, out) == (2, "") and "must be at least 0" in err
    again = invoke(["curve", "wall", "--poly", FIXTURE, "--seed", "3"])
    assert again[:2] == ok[:2]
    payload = json.loads(invoke(["curve", "random", "--field", "5^2"])[1])
    assert payload["seed"] == 0 and len(payload["results"]) == 1


#: option -> (attribute, default, two values as typed and as parsed); a
#: flag's values are None and True, and --poly has no default: it is required
OPTIONS = {
    "--format": ("format", "json", ("md", "md"), ("json", "json")),
    "--out": ("out", None, ("a.json", "a.json"), ("b.json", "b.json")),
    "--in": ("infile", None, ("c.json", "c.json"), ("d.json", "d.json")),
    "--poly": ("poly", None, (FIXTURE, FIXTURE), ("[1,0,0,0,0,0,1]@5", "[1,0,0,0,0,0,1]@5")),
    "--max-ext": ("max_ext", 8, ("3", 3), ("1", 1)),
    "--seed": ("seed", 0, ("-4", -4), ("12", 12)),
    "--field": ("field", 1, ("5^2", 2), ("5", 1)),
    "--count": ("count", 1, ("0", 0), ("7", 7)),
    "--check": ("check", False, (None, True), (None, True)),
}
#: every verb with its options, in the order of the verb table
VERB_OPTIONS = {
    ("lattice", "table1"): ["--format", "--out"],
    ("lattice", "classify"): ["--format", "--out"],
    ("lattice", "verify"): ["--in", "--out"],
    **{("curve", verb): ["--poly", "--max-ext", "--seed", "--out"]
       for verb in ("check", "sing", "wall")},
    ("curve", "ns"): ["--poly", "--max-ext", "--out"],
    ("curve", "random"): ["--field", "--seed", "--count", "--check", "--max-ext", "--out"],
}
VERB_CASES = [(verb, option) for verb, options in VERB_OPTIONS.items() for option in options]


def _typed(option, text):
    return [option] if text is None else [option, text]


@pytest.mark.parametrize("verb, option", VERB_CASES, ids=[" ".join(v) + " " + o
                                                         for v, o in VERB_CASES])
def test_verb_table_parses_every_option(verb, option):
    """Each option of each verb, in both spellings, repeated (the last
    value counts) and left out (its default); a value given to a flag, a
    missing value and a prefix of the option's name are usage errors."""
    needs_poly = option != "--poly" and "--poly" in VERB_OPTIONS[verb]
    base = list(verb) + (["--poly", FIXTURE] if needs_poly else [])
    attribute, default, (text, value), (other, other_value) = OPTIONS[option]
    spellings = [base + _typed(option, text)]
    if text is not None:
        spellings.append(base + [f"{option}={text}"])
    spellings.append(base + _typed(option, other) + _typed(option, text))
    for argv in spellings:
        args = _parse_args(argv)
        assert (args.domain, args.verb, args.command_echo) == (*verb, argv)
        assert getattr(args, attribute) == value, argv
    assert getattr(_parse_args(base + _typed(option, other)), attribute) == other_value
    if option != "--poly":
        assert getattr(_parse_args(base), attribute) == default
    if text is None:
        code, out, err = invoke(base + [f"{option}=1"])
        assert (code, out) == (2, "") and f"argument {option}: ignored explicit" in err
    else:
        code, out, err = invoke(base + [option])
        assert (code, out) == (2, "") and f"argument {option}: expected one argument" in err
    code, out, err = invoke(base + [option[:-1]] + ([] if text is None else [text]))
    assert (code, out) == (2, "") and "unrecognized argument" in err


@pytest.mark.parametrize("verb", list(VERB_OPTIONS), ids=" ".join)
def test_verb_table_refuses_unknown_verbs_and_stray_tokens(verb):
    """A stray token, an unknown option or verb and a missing --poly are
    usage errors; --help after a verb lists its options."""
    assert [(o, a) for o, (a, _parse, _default) in VERBS[verb].items()] == [
        (o, OPTIONS[o][0]) for o in VERB_OPTIONS[verb]]
    needs_poly = "--poly" in VERB_OPTIONS[verb]
    base = list(verb) + (["--poly", FIXTURE] if needs_poly else [])
    for argv in (base + ["stray"], base + ["--bogus", "1"], [verb[0], "nonsense"],
                 [verb[1], verb[0]]) + ((list(verb),) if needs_poly else ()):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "") and err.startswith("usage error: "), argv
    if needs_poly:
        assert "required: --poly" in err
    code, out, err = invoke(list(verb) + ["--help"])
    assert (code, err) == (0, "")
    assert out.endswith(f"\n{' '.join(verb)} options: {' '.join(VERB_OPTIONS[verb])}\n")


def test_help_names_every_verb():
    for argv in (["--help"], ["-h"], ["lattice", "--help"], ["curve", "nonsense", "-h"]):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        for domain, verb in VERB_OPTIONS:
            assert f"{domain} {verb}" in out
        assert "options:" not in out


def test_lattice_pass_computes_each_subgroup_once(monkeypatch):
    """classify, verify on its output and table1 in one process compute the
    invariants of each distinct subgroup once: 9 + 13 subgroups at most,
    fewer when a table row spans a line of classify, and the outputs equal
    their goldens."""
    calls = []
    real = discform.root_type_orthogonal_to_h

    def counting(subgroup):
        calls.append(subgroup._codes)
        return real(subgroup)

    monkeypatch.setattr(discform, "root_type_orthogonal_to_h", counting)
    discform._subgroup_invariants.cache_clear()
    try:
        code, classify, _ = invoke(["lattice", "classify"])
        assert (code, classify) == (0, (GOLDEN / "classify.json").read_text())
        monkeypatch.setattr(sys, "stdin", io.StringIO(classify))
        code, out, _ = invoke(["lattice", "verify"])
        assert (code, out) == (0, (GOLDEN / "lattice_verify.json").read_text())
        code, out, _ = invoke(["lattice", "table1", "--format", "md"])
        assert (code, out) == (0, (GOLDEN / "table1.md").read_text())
    finally:
        discform._subgroup_invariants.cache_clear()
    assert len(calls) == len(set(calls)) <= 22
