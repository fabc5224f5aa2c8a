"""Command-line front door: charfive DOMAIN VERB [--option VALUE] ...

Verbs:
    lattice table1        the 13-row isotropy table
    lattice classify      the nine orbit representatives
    lattice verify        re-check a classification payload (file or stdin)
    curve check           full pipeline for one sextic
    curve sing            singular points only
    curve wall            the degree product report only
    curve ns              the rank-22 sublattice model as lattice JSON
    curve random          seeded admissible sextics

Options take their full names, as `--option VALUE` or `--option=VALUE`; the
last of a repeated option counts.  `DOMAIN VERB --help` lists VERB's options.
JSON output is canonical (sorted keys, fixed separators); identical
command and seed give byte-identical stdout.  Timing diagnostics go to
stderr only.  Exit codes: 0 success, 1 verification failure, 2 usage error
or a file that cannot be read or written.

Imports (not part of --help): a lattice verb loads `discform`, with the
`lattice` and `intmat` it imports, and never the curve half, `ffpoly` and
`curvecheck`.  The curve half is imported in one place,
`_import_curve_half`, when a curve verb is dispatched or `--field` is read.
A curve verb loads `discform` too, once per process.  That is a trade:
imported lazily, `discform` (about 9 ms with `lattice` and `intmat`, no
bytecode cached) would not leave a lattice process but move from its
start-up into its first verb, where a classify, verify and table1 pass
takes 10-13 ms.  It stays until a whole-process cost is measured.
"""

import json
import sys
import time
from types import SimpleNamespace

from . import __version__, discform

#: the curve half; None until `_import_curve_half` binds it
ffpoly = curvecheck = None


def _import_curve_half():
    """Bind `ffpoly` and `curvecheck` in this module: the one place `cli`
    imports them."""
    global ffpoly, curvecheck
    from . import curvecheck, ffpoly


class _UsageError(Exception):
    pass


class _FileError(Exception):
    """An input file could not be read or an output file written."""


def _integer(low=None):
    """Option parse: an integer, no smaller than `low` when one is given."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _format(text):
    if text not in ("json", "md"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'json', 'md')")
    return text


def _field_degree(text):
    """Option parse for `--field`: `ffpoly.parse_field_degree`."""
    _import_curve_half()
    return ffpoly.parse_field_degree(text)


_REQUIRED = object()

_OUT = {"--out": ("out", str, None)}
_CURVE = {"--poly": ("poly", str, _REQUIRED), "--max-ext": ("max_ext", _integer(1), 8)}
_SEED = {"--seed": ("seed", _integer(), 0)}

#: (domain, verb) -> {option: (attribute, parse, default)}: the one definition
#: of the verbs and their options.  `parse` turns the option's text into the
#: attribute's value or raises ValueError; a flag has no parse and sets True,
#: and an option whose default is _REQUIRED must be given.  Curve output is
#: always JSON, and ns draws no polar, so it takes no seed.
VERBS = {
    ("lattice", "table1"): {"--format": ("format", _format, "json"), **_OUT},
    ("lattice", "classify"): {"--format": ("format", _format, "json"), **_OUT},
    ("lattice", "verify"): {"--in": ("infile", str, None), **_OUT},
    **{("curve", verb): {**_CURVE, **_SEED, **_OUT} for verb in ("check", "sing", "wall")},
    ("curve", "ns"): {**_CURVE, **_OUT},
    ("curve", "random"): {"--field": ("field", _field_degree, 1), **_SEED,
                          "--count": ("count", _integer(0), 1),
                          "--check": ("check", None, False),
                          "--max-ext": ("max_ext", _integer(1), 8), **_OUT},
}


def _parse_args(argv):
    """The verb named by argv[:2], with one attribute per option of it: the
    last value given, parsed, or the default."""
    options = VERBS.get(tuple(argv[:2]))
    if options is None:
        raise _UsageError(f"unknown verb {' '.join(argv[:2])!r} (see --help)")
    args = SimpleNamespace(domain=argv[0], verb=argv[1], command_echo=argv, **{
        attribute: default for attribute, _parse, default in options.values()})
    tokens = iter(argv[2:])
    for token in tokens:
        name, given, value = token.partition("=")
        if name not in options:
            raise _UsageError(f"unrecognized argument: {token}")
        attribute, parse, _default = options[name]
        if parse is None and given:
            raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
        if parse is not None and not given:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"argument {name}: expected one argument")
        try:
            setattr(args, attribute, True if parse is None else parse(value))
        except ValueError as exc:
            raise _UsageError(f"argument {name}: {exc}") from None
    missing = [name for name, option in options.items() if getattr(args, option[0]) is _REQUIRED]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    return args


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


# ---------------------------------------------------------------------------
# lattice verbs
# ---------------------------------------------------------------------------

def _cmd_table1(args, stdout, _stderr):
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


def _cmd_classify(args, stdout, _stderr):
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


#: the most entries `lattice verify` reads: each claim becomes a subgroup held
#: as its element codes, so a larger payload fails `entry_count` and builds none
MAX_VERIFY_ENTRIES = 4096

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
    except (ValueError, RecursionError) as exc:     # not JSON (or not text, or too deep)
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
    if len(entries) > MAX_VERIFY_ENTRIES:
        check("entry_count", False,
              f"{len(entries)} entries, more than {MAX_VERIFY_ENTRIES}: none verified")
        entries = []
    else:
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
        f = ffpoly.parse_poly_literal(args.poly)
    except (ValueError, RecursionError) as exc:     # RecursionError: nested too deep
        raise _UsageError(f"bad polynomial literal: {exc}") from exc
    if f.degree != 6:
        raise _UsageError("polynomial must have degree 6")
    return curvecheck.SexticModel(f)


def _curve_payload(model, args):
    out = {"poly": ffpoly.format_poly_literal(model.f)}
    try:
        report = curvecheck.analyze(model, max_ext=args.max_ext, seed=args.seed)
    except curvecheck.OutsideUError:
        out["in_U"] = False
        return out
    out["in_U"] = True
    out["points"] = [p.to_json_dict() for p in report.points]
    out["wall"] = report.wall.to_json_dict()
    return out


def _cmd_curve(args, stdout, _stderr):
    model = _load_model(args)
    if args.verb == "ns":
        try:
            lat = curvecheck.ns_gram_model(curvecheck.singular_points(model, args.max_ext))
        except curvecheck.OutsideUError as exc:
            raise _UsageError(str(exc)) from exc
        _emit(_canonical_json(lat.to_json_dict()), args, stdout)
        return 0
    results = _curve_payload(model, args)
    # sing and wall print one half of the one analysis check prints in full
    results.pop({"sing": "wall", "wall": "points"}.get(args.verb), None)
    payload = _wrap(args, results, seed=args.seed)
    _emit(_canonical_json(payload), args, stdout)
    return 0


def _cmd_random(args, stdout, _stderr):
    field = ffpoly.GF(args.field)
    results = []
    for i in range(args.count):
        model = curvecheck.random_in_U(field, args.seed + i)
        entry = {"poly": ffpoly.format_poly_literal(model.f), "seed": args.seed + i,
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

#: the docstring up to its note on imports
_HELP = (__doc__ or "").partition("\nImports (not part of --help): ")[0]


def run(argv, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = list(argv)
    if "-h" in argv or "--help" in argv:        # the docstring, and a verb's options
        options = " ".join(VERBS.get(tuple(argv[:2]), ()))
        stdout.write(_HELP + (options and f"\n{argv[0]} {argv[1]} options: {options}\n"))
        return 0
    try:
        args = _parse_args(argv)
        started = time.monotonic()
        if args.domain == "curve":
            _import_curve_half()
        command = {"table1": _cmd_table1, "classify": _cmd_classify, "verify": _cmd_verify,
                   "random": _cmd_random}.get(args.verb, _cmd_curve)
        code = command(args, stdout, stderr)
        stderr.write(f"# elapsed {time.monotonic() - started:.2f}s\n")
        return code
    except _UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return 2
    except _FileError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        # only a curve verb raises SplittingFieldError, and it imported ffpoly first
        too_large = ffpoly is not None and isinstance(exc, ffpoly.SplittingFieldError)
        stderr.write(f"{'splitting field too large' if too_large else 'error'}: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
