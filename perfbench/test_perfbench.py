"""Tests of the benchmark's own tracer, helpers and correctness checks.

    python3 -m pytest -q perfbench
"""

import io
import json
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from stats import quartile_spread, tail_percentile, tally  # noqa: E402
from tracer import Tracer  # noqa: E402

FIXTURE = "[0,0,1,0,0,0,1]@5"


def _cli_outputs(argvs):
    from charfive import cli

    outs = []
    for argv in argvs:
        out = io.StringIO()
        code = cli.run(argv, out, io.StringIO())
        outs.append((code, out.getvalue()))
    return outs


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a defines f and g; fakepkg.b imports them with `from .a import`."""
    a = types.ModuleType("fakepkg.a")

    def f(x):
        return a.g(x) + 1

    def g(x):
        return 2 * x

    a.f, a.g = f, g
    b = types.ModuleType("fakepkg.b")
    b.f, b.g = f, g
    pkg = types.ModuleType("fakepkg")
    pkg.f = f
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, a, b


def test_install_replaces_every_binding_and_uninstall_restores(fake_package):
    pkg, a, b = fake_package
    original_f = a.f
    tracer = Tracer()
    missing = tracer.install([("fakepkg.a", "f", "f", "span", None),
                              ("fakepkg.a", "g", "g", "count", None),
                              ("fakepkg.a", "absent", "absent", "span", None)],
                             package="fakepkg")
    assert missing == ["fakepkg.a.absent"]
    assert pkg.f is a.f is b.f is not original_f
    assert b.f(3) == 7 and pkg.f(1) == 3
    summary = tracer.summary()
    assert summary["f"]["calls"] == 2
    assert tracer.counts["g"] == 2
    tracer.uninstall()
    assert pkg.f is a.f is b.f is original_f


def test_self_time_excludes_children_and_recursion_counts_once():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner_a():
        return None

    span_a_inner = tracer.spanned("A", inner_a)
    span_b = tracer.spanned("B", lambda: span_a_inner())
    span_a = tracer.spanned("A", lambda: span_b())
    span_a()            # A [0, 10] > B [2, 5] > A [3, 4]
    summary = tracer.summary()
    assert tracer.parents == [-1, 0, 1]
    assert summary["A"] == {"calls": 2, "s": 10.0, "self_s": 7.0 + 1.0}
    assert summary["B"] == {"calls": 1, "s": 3.0, "self_s": 2.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.spanned("boom", boom)()
    assert tracer.summary()["boom"]["calls"] == 1
    assert tracer._stack == []


def test_traced_outputs_equal_untraced_outputs():
    argvs = [["curve", "check", "--poly", lit]
             for lit in [FIXTURE] + run.curve_literals(2, seed=1, count=1)]
    plain = _cli_outputs(argvs)
    from charfive import cli

    original_run = cli.run
    tracer = Tracer()
    missing = tracer.install(layers.TARGETS)
    try:
        traced = _cli_outputs(argvs)
    finally:
        tracer.uninstall()
    assert missing == []
    assert traced == plain
    assert cli.run is original_run
    metrics = layers.span_metrics(tracer.summary())
    assert metrics["ffpoly.roots_in_extension.calls"] == 4
    assert metrics["curvecheck.fulton.calls"] >= 20
    assert tracer.counts["ffpoly.gf_mul"] > 0


def test_tail_percentile_needs_ten_samples_above_it():
    assert tail_percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    assert tail_percentile(list(range(1, 100)), 90) is None
    assert tail_percentile([3, 1, 2] * 7, 50) == 2
    assert tail_percentile([1, 2] * 10, 50) == 1.5


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 9, 10, 12, 10, 8, 10, 11, 9]
    q1, med, q3 = 9.0, 10.0, 11.0
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


def _curve_op(out, code=0):
    return {"argv": ["curve", "check"], "code": code, "out": out, "err": "", "s": 0.1}


def test_curve_check_and_fail_count():
    (code, out), = _cli_outputs([["curve", "check", "--poly", FIXTURE]])
    good = _curve_op(out, code)
    assert run.check_curve_op(good, FIXTURE) == []
    payload = json.loads(out)
    payload["results"]["points"][0]["mult"] = 4
    payload["results"]["wall"]["product"] = 6
    bad = _curve_op(json.dumps(payload))
    assert len(run.check_curve_op(bad, FIXTURE)) == 2
    assert run.check_curve_op(good, "[0,0,1,0,0,0,2]@5") != []
    assert run.check_curve_op(_curve_op("", code=1), FIXTURE) != []
    problems = run.check_ops("curves-gf5", [good, bad, good], [FIXTURE] * 3, {})
    assert tally(problems) == (3, 1)
    assert run.point_histogram([good]) == {"deg1": 1, "deg4": 4}


def test_an_operation_that_raises_counts_as_failed():
    class RaisingCli:
        @staticmethod
        def run(argv, out, err):
            raise AssertionError("boom")

    op = worker._call(RaisingCli, ["curve", "check", "--poly", FIXTURE])
    assert op["code"] is None and "AssertionError: boom" in op["err"]
    assert tally([run.check_curve_op(op, FIXTURE)]) == (1, 1)


def test_lattice_check_uses_the_goldens():
    golden = run.golden_texts()
    ok = {"argv": ["lattice", "table1", "--format", "md"], "code": 0,
          "out": golden["table1"], "err": "", "s": 1.0}
    assert run.check_lattice_op(ok, golden) == []
    assert run.check_lattice_op(dict(ok, out=golden["table1"] + " "), golden) != []
    verify = {"argv": ["lattice", "verify"], "code": 1, "out": '{"passed":false}',
              "err": "", "s": 1.0}
    assert len(run.check_lattice_op(verify, golden)) == 2


def test_curve_inputs_are_seeded_and_admissible():
    first = run.curve_literals(2, seed=7, count=5)
    assert first == run.curve_literals(2, seed=7, count=5)
    assert first != run.curve_literals(2, seed=8, count=5)
    from charfive.curvecheck import is_in_U
    from charfive.ffpoly import format_poly_literal, parse_poly_literal

    for lit in first + run.curve_literals(1, seed=7, count=5):
        poly = parse_poly_literal(lit)
        assert is_in_U(poly) and format_poly_literal(poly) == lit


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
