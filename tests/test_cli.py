"""Command-line interface: verbs, exit codes, determinism, golden files."""

import io
import json
import pathlib
import random

import pytest

from charfive.cli import run
from charfive.curvecheck import random_in_U
from charfive.ffpoly import GF, format_poly_literal

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
])
def test_curve_output_matches_golden(name, argv):
    code, out, _ = invoke(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_curve_check_batch_matches_golden():
    """`curve check` on the first 40 `random_in_U` sextics over GF(25) and
    over GF(5): singular points up to GF(5^10), the minimal-root choice of
    each embedding and the polar draws, one stdout per line."""
    expected = (GOLDEN / "curve_check_batch.jsonl").read_text().splitlines(keepends=True)
    outputs = []
    for k in (2, 1):
        for seed in range(40):
            literal = format_poly_literal(random_in_U(GF(k), seed).f)
            code, out, _ = invoke(["curve", "check", "--poly", literal])
            assert code == 0
            outputs.append(out)
    assert len(expected) == len(outputs) == 80
    for got, want in zip(outputs, expected):
        assert got == want


def test_output_is_byte_stable():
    first = invoke(["lattice", "classify"])
    second = invoke(["lattice", "classify"])
    assert first[1] == second[1]
    a = invoke(["curve", "check", "--poly", "[0,0,1,0,0,0,1]@5"])
    b = invoke(["curve", "check", "--poly", "[0,0,1,0,0,0,1]@5"])
    assert a[1] == b[1]


def test_jobs_flag_does_not_change_output():
    base = invoke(["lattice", "table1"])
    par = invoke(["lattice", "table1", "--jobs", "2"])
    assert base[0] == par[0] == 0
    # the command echo differs; the results must not
    assert (json.loads(base[1])["results"] == json.loads(par[1])["results"])


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


def test_verify_detects_tampering(tmp_path):
    code, out, _ = invoke(["lattice", "classify"])
    tampered = json.loads(out)
    tampered["results"][3]["root_type"] = "E8+3A4"
    malformed = [
        {"results": [{"label": "H_0", "gens": []}]},    # invariants missing
        {"foo": 1},                                      # no results list
        {"results": [3]},                                # entry not an object
        {"results": [{"label": "H_0", "gens": 5, "disc_exp": 6, "sigma": 3,
                      "root_type": "5A4", "E_empty": True}]},
        "{",                                             # not JSON
    ]
    path = tmp_path / "bad.json"
    for payload in [tampered] + malformed:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, out, err = invoke(["lattice", "verify", "--in", str(path)])
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL " in err
    assert "FAIL payload: not JSON" in err


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
    assert invoke(["curve", "random", "--count", "-3"])[0] == 2
    assert invoke(["curve", "random", "--max-ext", "0"])[0] == 2
    assert invoke(["curve", "check", "--poly", FIXTURE, "--max-ext", "0"])[0] == 2
    assert invoke(["lattice", "table1", "--jobs", "0"])[0] == 2
    assert invoke(["lattice", "classify", "--jobs", "-2"])[0] == 2
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
