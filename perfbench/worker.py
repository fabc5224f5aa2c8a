"""One benchmark process: import charfive in a fresh interpreter, then run
one workload's operations through `charfive.cli.run`.

Reads a job as JSON on stdin and writes one JSON result on stdout:

    {"kind": "setup" | "lattice" | "curves",
     "literals": [...],        # curves: polynomial literals, in order
     "seconds": 30.0 | null,   # curves: stop starting operations after this
     "trace": false, "seed": 0}

The import is timed first, so `setup_s` holds exactly the cost of
`import charfive` (numpy included) in an interpreter that has not loaded it.
"""

import io
import json
import pathlib
import random
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _call(cli, argv, stdin_text=None):
    """One timed `cli.run`; an exception it raises is recorded as exit code
    None with its traceback, so that it counts as a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    started = time.perf_counter()
    try:
        code = cli.run(argv, out, err)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - started
        sys.stdin = saved
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue(),
            "s": elapsed}


def run_lattice(cli):
    """classify, then verify on classify's output, then the markdown table."""
    classify = _call(cli, ["lattice", "classify"])
    verify = _call(cli, ["lattice", "verify"], stdin_text=classify["out"])
    table1 = _call(cli, ["lattice", "table1", "--format", "md"])
    return [classify, verify, table1]


def run_curves(cli, literals, seconds):
    ops = []
    started = time.perf_counter()
    for lit in literals:
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        ops.append(_call(cli, ["curve", "check", "--poly", lit]))
    return ops


def gf_microbench(seed, mul_degrees, inv_degrees, n_elems=200, repeats=5):
    """Median nanoseconds per GF.mul / GF.inv on seeded nonzero elements."""
    from charfive.ffpoly import GF

    rng = random.Random(seed)
    out = {}
    for op, degrees in (("mul", mul_degrees), ("inv", inv_degrees)):
        for k in degrees:
            field = GF(k)
            elems = [field.from_int(rng.randrange(1, field.order)) for _ in range(n_elems)]
            pairs = list(zip(elems, elems[1:] + elems[:1]))
            runs = []
            for _ in range(repeats):
                started = time.perf_counter_ns()
                if op == "mul":
                    for a, b in pairs:
                        field.mul(a, b)
                else:
                    for a in elems:
                        field.inv(a)
                runs.append((time.perf_counter_ns() - started) / n_elems)
            runs.sort()
            out[f"ffpoly.gf_{op}_ns.k{k}"] = runs[len(runs) // 2]
    return out


def main():
    job = json.load(sys.stdin)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import charfive  # noqa: F401  (the import is what setup_s measures)
    from charfive import cli
    result = {"setup_s": time.perf_counter() - started}

    tracer = None
    if job.get("trace"):
        import layers
        from tracer import Tracer

        tracer = Tracer()
        result["missing_targets"] = tracer.install(layers.TARGETS)
    if job["kind"] == "lattice":
        result["ops"] = run_lattice(cli)
    elif job["kind"] == "curves":
        result["ops"] = run_curves(cli, job["literals"], job.get("seconds"))
    else:
        result["ops"] = []
    if tracer is not None:
        tracer.uninstall()
        result["summary"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["microbench"] = gf_microbench(job["seed"], layers.MUL_DEGREES,
                                             layers.INV_DEGREES)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
