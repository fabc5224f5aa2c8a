"""The charfive benchmark.

    python3 perfbench/run.py --workload lattice|curves-gf25|curves-gf5 \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; charfive is imported from ./src.
Each operation goes through `charfive.cli.run` in a fresh worker process
(perfbench/worker.py), one process at a time: a closed loop with one caller.
The second-to-last line of stdout is a JSON record of the run (machine,
inputs, the per-workload named metrics); the last line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics of a separate traced run.  The exit
code is 0 when every output is correct, 1 when any is not or a worker
fails, and 2 when the sources or arguments are missing.  See README.md.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

import layers
from stats import tail_percentile, tally

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> GF(5^k) degree of the sextics (None: the lattice verbs)
WORKLOADS = {"lattice": None, "curves-gf25": 2, "curves-gf5": 1}
#: fresh interpreters that only import charfive, for setup_s
SETUP_PROBES = 5
#: curve literals generated per measured second; today's pipeline uses
#: less than a fifth of them
POOL_PER_SECOND = 60
#: curves in the traced run, a fixed number so that its counts repeat
TRACE_CURVES = 40
#: the whole run must end within this many seconds
DEADLINE_S = 170.0
#: the lattice outputs must equal these files, whose content is pinned
GOLDEN = {
    "classify": ("tests/golden/classify.json",
                 "568c520513543448f772d53c7f1052e14a0f4b1f1f09cad48df1641b8cce491c"),
    "table1": ("tests/golden/table1.md",
               "5a78d6143027b882621262165e43c673cad2ddfbd091df940af0690a29e853a2"),
}
SURVIVORS = 2713

#: end-to-end metric -> (unit, better)
END_TO_END = {"setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
              "ops_per_s": ("1/s", "higher")}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def curve_literals(degree, seed, count):
    """`count` seeded sextics over GF(5^degree) with squarefree derivative,
    as polynomial literals in charfive's canonical format."""
    from charfive.curvecheck import is_in_U
    from charfive.ffpoly import parse_poly_literal

    rng = random.Random(f"charfive-bench:{degree}:{seed}")
    order = 5 ** degree

    def coeff(lo=0):
        code = rng.randrange(lo, order)
        digits = [(code // 5 ** i) % 5 for i in range(degree)]
        return str(digits[0]) if degree == 1 else "[" + ",".join(map(str, digits)) + "]"

    out = []
    while len(out) < count:
        coeffs = [coeff() for _ in range(6)] + [coeff(lo=1)]
        lit = "[" + ",".join(coeffs) + "]" + ("@5" if degree == 1 else f"@5^{degree}")
        if is_in_U(parse_poly_literal(lit)):
            out.append(lit)
    return out


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def golden_texts():
    """{name: text} of the golden files, or raise if one was altered."""
    out = {}
    for name, (rel, sha) in GOLDEN.items():
        try:
            data = (ROOT / rel).read_bytes()
        except OSError as exc:
            raise BenchError(f"cannot read {rel}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != sha:
            raise BenchError(f"{rel} differs from the pinned golden output")
        out[name] = data.decode()
    return out


def check_lattice_op(op, golden):
    """Problems with one lattice verb's output (empty when correct)."""
    problems = []
    if op["code"] != 0:
        problems.append(f"exit code {op['code']}: {op['err'].strip()[-200:]}")
    verb = op["argv"][1]
    if verb == "verify":
        try:
            passed = json.loads(op["out"]).get("passed")
        except ValueError:
            passed = None
        if passed is not True:
            problems.append("verify did not report passed: true")
    elif op["out"] != golden[verb]:
        problems.append(f"{verb} output differs from the golden file")
    return problems


def check_curve_op(op, literal):
    """Problems with one `curve check` output against the paper's
    invariants: in U, five A4 points, each of polar multiplicity 5, and a
    degree product of 5."""
    if op["code"] != 0:
        return [f"exit code {op['code']}: {op['err'].strip()[-200:]}"]
    try:
        res = json.loads(op["out"])["results"]
    except (ValueError, KeyError):
        return ["output is not a curve check payload"]
    points = res.get("points", [])
    wall = res.get("wall", {})
    checks = [
        (res.get("poly") == literal, "echoed polynomial differs from the input"),
        (res.get("in_U") is True, "not in U"),
        (len(points) == 5, f"{len(points)} singular points"),
        (all(p.get("is_A4") is True for p in points), "a point is not A4"),
        (all(p.get("mult") == 5 for p in points), "a polar multiplicity is not 5"),
        (wall.get("product") == 5, f"wall product {wall.get('product')}"),
    ]
    return [f"{literal}: {msg}" for ok, msg in checks if not ok]


def check_ops(workload, ops, literals, golden):
    if WORKLOADS[workload] is None:
        return [check_lattice_op(op, golden) for op in ops]
    return [check_curve_op(op, lit) for op, lit in zip(ops, literals)]


def point_histogram(ops):
    """{"deg1": n, ...}: singular points by absolute field degree."""
    hist = {}
    for op in ops:
        try:
            points = json.loads(op["out"])["results"].get("points", [])
        except (ValueError, KeyError):
            continue
        for p in points:
            key = f"deg{p['field_degree']}"
            hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0][3:])))


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(job, deadline):
    """Run one worker to completion (killed and reaped at the deadline)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['kind']} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['kind']} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def total_s(result):
    return sum(op["s"] for op in result["ops"])


def relative_range(values):
    return (max(values) - min(values)) / statistics.median(values) if len(values) > 1 else 0.0


# ---------------------------------------------------------------------------
# timed run (end-to-end metrics)
# ---------------------------------------------------------------------------

def timed_run(workload, seconds, literals, deadline):
    setups = [spawn({"kind": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    if WORKLOADS[workload] is None:
        results = []
        started = time.monotonic()
        # start another pass only while it is expected to end in time
        while not results or (time.monotonic() - started
                               + statistics.mean(total_s(r) for r in results) <= seconds):
            results.append(spawn({"kind": "lattice"}, deadline))
        ops = [op for r in results for op in r["ops"]]
        op_times = [total_s(r) for r in results]
        verbs = {v: [op["s"] for op in ops if op["argv"][1] == v]
                 for v in ("classify", "verify", "table1")}
        named = {f"{v}_s": (statistics.median(ts), "s") for v, ts in verbs.items()}
        named["lattice_s"] = (sum(statistics.median(ts) for ts in verbs.values()), "s")
        unsteady = [f"{v}_s" for v, ts in verbs.items() if relative_range(ts) > 0.1]
    else:
        results = [spawn({"kind": "curves", "literals": literals, "seconds": seconds},
                         deadline)]
        ops = results[0]["ops"]
        op_times = [op["s"] for op in ops]
        named = {"curves_per_s": (len(ops) / sum(op_times), "1/s"),
                 "curve_p50_ms": (1000 * statistics.median(op_times), "ms")}
        p90 = tail_percentile(op_times, 90)
        if p90 is not None:
            named["curve_p90_ms"] = (1000 * p90, "ms")
        half = len(op_times) // 2
        halves = [sum(op_times[:half]), sum(op_times[half:2 * half])]
        unsteady = ["curves_per_s"] if half and relative_range(halves) > 0.1 else []
    setups += [r["setup_s"] for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "ops_per_s": len(op_times) / sum(op_times),
    }
    samples = {"setup": len(setups), "ops": len(op_times), "processes": len(results)}
    if WORKLOADS[workload] is None:
        samples["pass_s"] = op_times
    return ops, metrics, named, unsteady, samples


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def traced_run(workload, seed, literals, deadline):
    """One untraced and one traced worker on the same inputs; the metrics
    come from the traced one, the overhead from the difference."""
    if WORKLOADS[workload] is None:
        job = {"kind": "lattice", "seed": seed}
    else:
        job = {"kind": "curves", "literals": literals, "seconds": None, "seed": seed}
    plain = spawn(job, deadline)
    traced = spawn(dict(job, trace=True), deadline)
    metrics = layers.span_metrics(traced["summary"])
    metrics["ffpoly.gf_mul.calls"] = traced["counts"].get("ffpoly.gf_mul", 0)
    metrics["ffpoly.gf_inv.calls"] = traced["counts"].get("ffpoly.gf_inv", 0)
    metrics.update(traced["microbench"])
    attempts = 0
    if WORKLOADS[workload] is not None:
        for op in traced["ops"]:
            try:
                attempts += json.loads(op["out"])["results"]["wall"]["attempts"]
            except (ValueError, KeyError):
                pass
    metrics["curvecheck.polar.useful_ratio"] = len(traced["ops"]) / attempts if attempts else 0.0
    metrics["trace.untraced_s"] = total_s(plain)
    metrics["trace.overhead_s"] = total_s(traced) - total_s(plain)
    survivors = traced["counts"].get("discform.survivors")
    named = {"discform.survivors": (survivors, "count")} if survivors is not None else {}
    samples = {"ops": len(traced["ops"]), "spans": sum(
        v["calls"] for v in traced["summary"].values())}
    return plain["ops"], traced["ops"], metrics, named, samples, traced["missing_targets"]


def check_traced(problems, plain_ops, traced_ops, named):
    """Add to `problems` the traced outputs that differ from the untraced
    ones, and a survivor count other than SURVIVORS (on classify)."""
    if len(plain_ops) != len(traced_ops):
        problems[0].append("traced and untraced runs did different work")
    for probs, a, b in zip(problems, plain_ops, traced_ops):
        if a["out"] != b["out"]:
            probs.append(f"traced output of {' '.join(b['argv'][:2])} differs from untraced")
    survivors = named.get("discform.survivors", (SURVIVORS,))[0]
    if survivors != SURVIVORS:
        problems[0].append(f"{survivors} admissible subgroups, expected {SURVIVORS}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def speed_probe_ms(rounds=3):
    """Median time of a fixed pure-Python loop, to show how fast the
    machine ran when the run started and ended."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(1000 * (time.perf_counter() - started))
    return statistics.median(times)


def machine_notes():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
        "speed_probe_ms_start": speed_probe_ms(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="charfive benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    started = time.monotonic()
    deadline = started + DEADLINE_S
    args = parse_args(argv)
    if not (ROOT / "src" / "charfive" / "__init__.py").is_file():
        print(f"charfive sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    notes = machine_notes()
    degree = WORKLOADS[args.workload]
    literals = []
    if degree is not None:
        count = TRACE_CURVES if args.trace else int(POOL_PER_SECOND * args.seconds) + 1
        literals = curve_literals(degree, args.seed, count)
    try:
        golden = golden_texts()
        if args.trace:
            plain_ops, ops, metrics, named, samples, missing = traced_run(
                args.workload, args.seed, literals, deadline)
            specs = layers.PER_LAYER
            unsteady = []
        else:
            ops, metrics, named, unsteady, samples = timed_run(
                args.workload, args.seconds, literals, deadline)
            specs = END_TO_END
            missing = []
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = check_ops(args.workload, ops, literals, golden)
    if args.trace:
        check_traced(problems, plain_ops, ops, named)
    attempted, failed = tally(problems)
    named["fail_ratio"] = (failed / attempted, "ratio")
    notes["loadavg_end"] = os.getloadavg()
    notes["speed_probe_ms_end"] = speed_probe_ms()
    processed = literals[:len(ops)] if degree is not None else []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "machine": notes,
        "inputs": {
            "pool": len(literals),
            "pool_sha256": digest(literals),
            "processed": len(processed),
            "processed_sha256": digest(processed),
            "pool_exhausted": degree is not None and not args.trace
            and len(processed) == len(literals),
            "points": point_histogram(ops) if degree is not None else {},
        },
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": samples,
        "unsteady": unsteady,
        "missing_targets": missing,
        "problems": [p for ps in problems for p in ps][:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, (unit, _better) in specs.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
