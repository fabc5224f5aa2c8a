"""Command-line front door.

Verbs:
    lattice table1        the 13-row isotropy table
    lattice classify      the nine orbit representatives
    lattice verify        re-check a classification payload (file or stdin)
    curve check           full pipeline for one sextic
    curve sing            singular points only
    curve wall            the degree product report only
    curve ns              the rank-22 sublattice model as lattice JSON
    curve random          seeded admissible sextics

JSON output is canonical (sorted keys, fixed separators); identical
command and seed give byte-identical stdout.  Timing diagnostics go to
stderr only.  Exit codes: 0 success, 1 verification failure, 2 usage error
or a file that cannot be read or written.
"""

import argparse
import json
import sys
import time
from functools import lru_cache

from . import __version__
# discform (and numpy) before curvecheck and ffpoly: the other order leaves a heap
# that a cold `lattice classify` grows and trims, 1950 minor page faults against 610
from . import discform
from . import curvecheck
from .ffpoly import (
    GF, SplittingFieldError, format_poly_literal, parse_field_degree, parse_poly_literal)


class _UsageError(Exception):
    pass


class _FileError(Exception):
    """An input file could not be read or an output file written."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_field(text):
    try:
        return GF(parse_field_degree(text))
    except ValueError as exc:
        raise _UsageError(f"--field: {exc}")


def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _md_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text, args, stdout):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _FileError(exc) from exc
    else:
        stdout.write(text)


def _wrap(args, results, seed=None):
    payload = {
        "command": args.command_echo,
        "version": __version__,
        "results": results,
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first `run` and reused after."""
    parser = _ArgumentParser(prog="charfive", description=__doc__)
    sub = parser.add_subparsers(dest="domain", required=True)

    lat = sub.add_parser("lattice", help="overlattice classification")
    lat_sub = lat.add_subparsers(dest="verb", required=True)
    for verb in ("table1", "classify"):
        p = lat_sub.add_parser(verb)
        p.add_argument("--format", choices=("json", "md"), default="json")
        p.add_argument("--out", default=None)
    pv = lat_sub.add_parser("verify")
    pv.add_argument("--in", dest="infile", default=None,
                    help="classification JSON (defaults to stdin)")
    pv.add_argument("--out", default=None)

    cur = sub.add_parser("curve", help="sextic curve checks")
    cur_sub = cur.add_subparsers(dest="verb", required=True)
    # curve output is always JSON; ns draws no polar, so it takes no seed
    for verb in ("check", "sing", "wall", "ns"):
        p = cur_sub.add_parser(verb)
        p.add_argument("--poly", required=True)
        p.add_argument("--max-ext", type=_at_least(1), default=8)
        if verb != "ns":
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
    pr = cur_sub.add_parser("random")
    pr.add_argument("--field", default="5")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--count", type=_at_least(0), default=1)
    pr.add_argument("--check", action="store_true",
                    help="run the full pipeline on each sample")
    pr.add_argument("--max-ext", type=_at_least(1), default=8)
    pr.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# lattice verbs
# ---------------------------------------------------------------------------

def _cmd_table1(args, stdout):
    rows = discform.isotropic_table()
    if args.format == "md":
        body = _md_table(
            ["(a,b,y)-type", "roots orthogonal to h", "the set E", "star"],
            [[r.type_label, r.root_type, "empty" if r.e_empty else "nonempty",
              "*" if r.starred else ""] for r in rows])
        _emit(body, args, stdout)
    else:
        payload = _wrap(args, [r.to_json_dict() for r in rows])
        _emit(_canonical_json(payload), args, stdout)
    return 0


def _cmd_classify(args, stdout):
    records = discform.classify_isotropic_subgroups()
    if args.format == "md":
        body = _md_table(
            ["label", "gens", "disc", "sigma", "root type", "E empty"],
            [[r.label,
              " ".join("[" + ",".join(map(str, g)) + "]" for g in r.gens) or "0",
              f"-5^{r.disc_exp}", str(r.sigma), r.root_type, str(r.e_empty)]
             for r in records])
        _emit(body, args, stdout)
    else:
        payload = _wrap(args, [r.to_json_dict() for r in records])
        _emit(_canonical_json(payload), args, stdout)
    return 0


#: the fields a classification entry must carry; verify also compares `dim`
_ENTRY_FIELDS = ("gens", "disc_exp", "sigma", "root_type", "E_empty")


def _same(claimed, computed):
    """Equal and of the same JSON type: true is not 1, and 6.0 is not 6."""
    return type(claimed) is type(computed) and claimed == computed


def _claim(entry):
    """(subgroup, None) for a classification entry that spans an isotropic
    subgroup, else (None, (check name, detail)) for the check it fails."""
    if not isinstance(entry, dict):
        return None, ("?:fields", "entry is not an object")
    label = entry.get("label", "?")
    missing = [k for k in _ENTRY_FIELDS if k not in entry]
    if missing:
        return None, (f"{label}:fields", "missing " + ", ".join(missing))
    try:
        return discform.IsotropicSubgroup(gens=tuple(tuple(g) for g in entry["gens"])), None
    except (TypeError, ValueError) as exc:
        return None, (f"{label}:isotropic", str(exc))


def _cmd_verify(args, stdout, stderr):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "passed": bool(ok), "detail": detail})
        if not ok:
            stderr.write(f"FAIL {name}: {detail}\n")

    try:
        if args.infile:
            with open(args.infile) as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except OSError as exc:
        raise _FileError(exc) from exc
    except ValueError as exc:           # not JSON (or not text)
        check("payload", False, f"not JSON: {exc}")
        data = []
    entries = data.get("results") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        check("payload", False, "expected a results list")
        entries = []

    qrep = discform.verify_q_consistency()
    check("q_consistency", qrep.passed,
          f"{qrep.n_checked} elements, {len(qrep.mismatches)} mismatches")
    check("dimension_bound", discform.max_isotropic_dimension() == 2)
    check("entry_count", len(entries) == 9, f"{len(entries)} entries")

    # all claims first, so that one orbit test per dimension names their orbits
    claims = [_claim(entry) for entry in entries]
    names = enumerate(discform.orbit_names([sub for sub, _ in claims if sub is not None]))
    for entry, (sub, failure) in zip(entries, claims):
        if sub is None:
            check(failure[0], False, failure[1])
            continue
        label = entry.get("label", "?")
        i, (orbit, first) = next(names)
        check(f"{label}:condition_II", discform.condition_II(sub))
        # the claim repeats an orbit iff an earlier claim lies in it
        check(f"{label}:distinct_orbit", first == i)
        check(f"{label}:matches_reference", orbit == label, f"orbit is {orbit}")
        check(f"{label}:dim", _same(entry.get("dim"), sub.dim), f"computed {sub.dim}")
        rt, e_empty, disc_exp = discform._subgroup_invariants(sub)
        check(f"{label}:disc", _same(entry["disc_exp"], disc_exp),
              f"computed -5^{disc_exp}")
        check(f"{label}:sigma", _same(entry["sigma"], disc_exp // 2),
              f"computed {disc_exp // 2}")
        check(f"{label}:root_type", _same(entry["root_type"], rt), f"computed {rt}")
        check(f"{label}:E_empty", _same(entry["E_empty"], e_empty),
              f"computed {json.dumps(e_empty)}")

    passed = all(c["passed"] for c in checks)
    payload = {"checks": checks, "passed": passed}
    _emit(_canonical_json(payload), args, stdout)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# curve verbs
# ---------------------------------------------------------------------------

def _load_model(args):
    try:
        f = parse_poly_literal(args.poly)
    except (ValueError, SyntaxError) as exc:
        raise _UsageError(f"bad polynomial literal: {exc}") from exc
    if f.degree != 6:
        raise _UsageError("polynomial must have degree 6")
    return curvecheck.SexticModel(field=f.field, f=f)


def _curve_payload(model, args):
    out = {"poly": format_poly_literal(model.f)}
    try:
        report = curvecheck.analyze(model, max_ext=args.max_ext, seed=args.seed)
    except curvecheck.OutsideUError:
        out["in_U"] = False
        return out
    out["in_U"] = True
    out["points"] = [p.to_json_dict() for p in report.points]
    out["wall"] = report.wall.to_json_dict()
    return out


def _cmd_curve(args, stdout, verb):
    model = _load_model(args)
    if verb == "ns":
        try:
            lat = curvecheck.ns_gram_model(model, max_ext=args.max_ext)
        except curvecheck.OutsideUError as exc:
            raise _UsageError(str(exc)) from exc
        _emit(_canonical_json(lat.to_json_dict()), args, stdout)
        return 0
    results = _curve_payload(model, args)
    # sing and wall print one half of the one analysis check prints in full
    results.pop({"sing": "wall", "wall": "points"}.get(verb), None)
    payload = _wrap(args, results, seed=args.seed)
    _emit(_canonical_json(payload), args, stdout)
    return 0


def _cmd_random(args, stdout):
    field = _parse_field(args.field)
    results = []
    for i in range(args.count):
        model = curvecheck.random_in_U(field, args.seed + i)
        entry = {"poly": format_poly_literal(model.f), "seed": args.seed + i,
                 "in_U": True}
        if args.check:
            report = curvecheck.analyze(
                model, max_ext=args.max_ext, seed=args.seed + i)
            entry["n_points"] = len(report.points)
            entry["all_A4"] = all(p.is_A4 for p in report.points)
            entry["wall_product"] = report.wall.product
        results.append(entry)
    payload = _wrap(args, results, seed=args.seed)
    _emit(_canonical_json(payload), args, stdout)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(argv, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.command_echo = list(argv)
        started = time.monotonic()
        if args.domain == "lattice":
            if args.verb == "table1":
                code = _cmd_table1(args, stdout)
            elif args.verb == "classify":
                code = _cmd_classify(args, stdout)
            else:
                code = _cmd_verify(args, stdout, stderr)
        else:
            if args.verb == "random":
                code = _cmd_random(args, stdout)
            else:
                code = _cmd_curve(args, stdout, args.verb)
        stderr.write(f"# elapsed {time.monotonic() - started:.2f}s\n")
        return code
    except _UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return 2
    except _FileError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except SplittingFieldError as exc:
        stderr.write(f"splitting field too large: {exc}\n")
        return 1
    except (ValueError, RuntimeError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
