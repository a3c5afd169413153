"""Command-line surface: bound reports, the exact oracle, certificate
files, table emission, and binomial parity.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit.  All outputs are deterministic: identical invocations
produce byte-identical text.
"""

from __future__ import annotations

import atexit
import gc
import sys
from types import SimpleNamespace

# a layer that some command does not call is reached through its module
# object, which runs on first use (see the package docstring), so that each
# command runs only the modules it calls; json, csv and io are imported
# where they are used, for the same reason
from . import bounds, certgen, cuplength, f2algebra, spaces
from .errors import ExprSyntaxError, NoFreeActionError, ResourceLimitError
from .tensorpower import DEFAULT_MAX_SLICE

SCHEMA_VERSION = 1

_QUANTITY_LABEL = {"cat": "cat", "tc": "TC", "eqtc": "TC_G"}

# the gen-cert methods: those of certgen.GENERATORS, in its order, then cat.
# Written out so that the option table does not run certgen; a test keeps
# the two equal
_METHODS = ("case1", "case2", "r2t", "proj", "cat")

# at exit, move every object to the permanent generation, so that the
# collections run while the interpreter tears its modules down skip them
atexit.register(gc.freeze)


# --- certificate files -------------------------------------------------------


def _json_text(doc) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def certificate_to_json(cert: cuplength.Certificate) -> str:
    """Canonical serialization: fixed key order, two-space indent, one
    trailing newline.  parse -> print round-trips byte-identically."""
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "space": cert.space,
        "n": cert.n,
        "factors": [
            {"expr": expr, "multiplicity": mult} for expr, mult in cert.factors
        ],
        "claimedCup": cert.claimed_cup,
        "claimedTcLower": cert.claimed_tc_lower,
    }
    if cert.note is not None:
        doc["note"] = cert.note
    if cert.cat_witness:
        doc["catWitness"] = True
    return _json_text(doc)


# every key a certificate file may hold, and every key of one of its factors
_CERT_KEYS = ("schemaVersion", "space", "n", "factors", "claimedCup",
              "claimedTcLower", "note", "catWitness")
_FACTOR_KEYS = ("expr", "multiplicity")


def _known_keys(doc, keys: tuple, what: str) -> dict:
    """doc, which must be a JSON object holding no key outside keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in doc:
        if key not in keys:
            raise ValueError(f"{what} has an unknown key {key!r}")
    return doc


def certificate_from_json(text: str) -> cuplength.Certificate:
    """Check the file format (schema version 1, known keys, none missing, no
    null note or catWitness, factors an array, claimedTcLower the int
    claimedCup + 1) and map the keys to the fields of the record, which
    checks them."""
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed certificate file: {exc}") from None
    doc = _known_keys(doc, _CERT_KEYS, "certificate file")
    if doc.get("schemaVersion") != SCHEMA_VERSION or type(doc["schemaVersion"]) is not int:
        raise ValueError(f"unsupported schema version {doc.get('schemaVersion')!r}")
    if None in (doc.get("note", ""), doc.get("catWitness", False)):
        raise ValueError("a certificate's note or catWitness may be left out but not null")
    if type(doc.get("factors", [])) is not list:
        raise ValueError(f"factors must be a JSON array, got {doc['factors']!r}")
    try:
        factors = []
        for f in doc["factors"]:
            f = _known_keys(f, _FACTOR_KEYS, "a factor")
            factors.append((f["expr"], f["multiplicity"]))
        cert = cuplength.Certificate(
            space=doc["space"],
            n=doc["n"],
            factors=tuple(factors),
            claimed_cup=doc["claimedCup"],
            note=doc.get("note"),
            cat_witness=doc.get("catWitness", False),
        )
        tc_lower = doc["claimedTcLower"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"certificate file missing or bad field: {exc}") from None
    if type(tc_lower) is not int or tc_lower != cert.claimed_tc_lower:
        raise ValueError("claimedTcLower must be claimedCup + 1")
    return cert


# --- report emission ---------------------------------------------------------


def _report_dict(report: bounds.BoundReport) -> dict:
    return {
        "space": report.space,
        "quantity": report.quantity,
        "n": report.n,
        "group": report.group,
        "lower": report.lower,
        "upper": report.upper,
        "verifiedLower": report.verified_lower,
        "inconsistent": report.inconsistent,
        "trace": [
            {
                "rule": t.rule,
                "source": t.source,
                "bound": t.bound,
                "value": t.value,
                "status": t.status,
            }
            for t in report.trace
        ],
    }


_MAIN_HEADER = "| space | n | quantity | lower | upper |\n|---|---|---|---|---|"
_TRACE_HEADER = "| rule | bound | value | status |\n|---|---|---|---|"
_CSV_HEADER = ("space", "n", "quantity", "group", "lower", "upper",
               "rule", "bound", "value", "status")


def _main_row(report: bounds.BoundReport) -> str:
    label = _QUANTITY_LABEL[report.quantity]
    return f"| {report.space} | {report.n} | {label} | {report.lower} | {report.upper} |"


def _csv_text(reports) -> str:
    """The header and one row per trace entry, quoted where a field holds
    a comma (space strings such as rh:5,3 do)."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in reports:
        label = _QUANTITY_LABEL[r.quantity]
        base = [r.space, r.n, label, r.group or "", r.lower, r.upper]
        writer.writerows(base + [t.rule, t.bound, t.value, t.status] for t in r.trace)
    return out.getvalue()


def emit_report(report: bounds.BoundReport, fmt: str = "md") -> str:
    if fmt == "md":
        lines = [_MAIN_HEADER, _main_row(report), "", _TRACE_HEADER]
        for t in report.trace:
            lines.append(f"| {t.rule} | {t.bound} | {t.value} | {t.status} |")
        if report.inconsistent:
            lines.append("")
            lines.append("**inconsistent: lower exceeds upper**")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text([report])
    if fmt == "json":
        return _json_text(_report_dict(report))
    raise ValueError(f"unknown format {fmt!r}")


def emit_table(reports, fmt: str = "md") -> str:
    reports = sorted(reports, key=lambda r: (r.space, r.n, r.quantity))
    if fmt == "md":
        lines = [_MAIN_HEADER] + [_main_row(r) for r in reports]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(reports)
    if fmt == "json":
        return _json_text([_report_dict(r) for r in reports])
    raise ValueError(f"unknown format {fmt!r}")


# --- argument plumbing -------------------------------------------------------


def _parse_params(items) -> dict:
    params = {}
    last = None
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            if sep:
                last = key.strip()
                if last in params:
                    raise ValueError(f"--params key {last!r} is given more than once")
                params[last] = value.strip()
            elif last is not None:
                # commas inside a value (e.g. space=rh:2,1) reattach here
                params[last] += "," + piece.strip()
            else:
                raise ValueError(f"bad parameter {piece!r}; expected key=value")
    return params


def _int(text: str, what: str) -> int:
    """int(text), refused with a message that names what holds it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}: {text!r} is not an integer") from None


def _parse_range(text: str, flag: str):
    """'A..B' inclusive, or a single integer; an empty range is refused."""
    lo, dots, hi = text.partition("..")
    what = f"{flag} range {text!r}"
    values = range(_int(lo, what), _int(hi if dots else lo, what) + 1)
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _slice_cap(text: str) -> int:
    cap = int(text)
    if cap < 0:
        raise ValueError(f"must be non-negative, got {cap}")
    return cap


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- the command line --------------------------------------------------------

# An option's kind is a converter, a tuple of its choices, _FLAG (it takes
# no value and sets True) or _REPEAT (a string that may be given again; the
# values are kept in order).  Its default is _REQUIRED when it must be
# given.  _parse_args and the --help text both read this table, and nothing
# else describes the options
_FLAG, _REPEAT, _REQUIRED = "flag", "repeat", "required"
_FORMATS = ("md", "csv", "json")
_SPACE_HELP = "the space, such as rh:4,3, cp:2 or prod:rp3,rp2"
_OUT_HELP = "write to this file instead of stdout"
# no default where the oracle is optional, so that a cap given without it is refused
_ORACLE_CAP = (_slice_cap, None,
               f"the oracle's largest slice (default {DEFAULT_MAX_SLICE})")

_COMMANDS = {
    "bounds": ("emit a bound report for one space", {
        "--space": (str, _REQUIRED, _SPACE_HELP),
        "--quantity": (("cat", "tc", "eqtc"), _REQUIRED, "the invariant to bound"),
        "--n": (int, _REQUIRED, "n of TC_n, or the n-fold power for cat"),
        "--group": (("z2", "s1"), None, "the freely acting group; eqtc only"),
        "--use-oracle": (_FLAG, False, "add the exact oracle's lower bound"),
        "--no-certs": (_FLAG, False, "leave out the generated certificates"),
        "--no-monotonicity": (_FLAG, False, "leave out the monotonicity rules"),
        "--max-slice": _ORACLE_CAP,
        "--format": (_FORMATS, "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }),
    "cup": ("exact zero-divisor cup-length oracle", {
        "--space": (str, _REQUIRED, _SPACE_HELP),
        "--n": (int, _REQUIRED, "the number of tensor factors"),
        "--max-slice": (_slice_cap, DEFAULT_MAX_SLICE, "the oracle's largest slice"),
        "--out": (str, None, _OUT_HELP),
    }),
    "verify": ("verify a certificate file", {
        "--cert": (str, _REQUIRED, "the certificate file"),
        "--format": (("md", "json"), "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }),
    "gen-cert": ("generate a certificate file", {
        "--method": (_METHODS, _REQUIRED, "the certificate family"),
        "--params": (_REPEAT, (), "key=value pairs, comma-separated"),
        "--n": (int, _REQUIRED, "n of TC_n"),
        "--out": (str, _REQUIRED, "the certificate file to write"),
    }),
    "table": ("batch bound reports over a family", {
        "--family": (("rh", "ch", "rp"), _REQUIRED, "the family of spaces"),
        "--r": (str, None, "range A..B (r for Milnor, m for rp)"),
        "--s": (str, None, "range C..D"),
        "--n": (str, _REQUIRED, "range E..F"),
        "--use-oracle": (_FLAG, False, "add the exact oracle's lower bound"),
        "--max-slice": _ORACLE_CAP,
        "--format": (_FORMATS, "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }),
    "lucas": ("binomial coefficient parity", {
        "--n": (int, _REQUIRED, "the top of the binomial coefficient"),
        "--k": (int, _REQUIRED, "the bottom of the binomial coefficient"),
    }),
}

_HELP = ("-h", "--help")


def _usage(command: str | None = None) -> str:
    """The --help text of the program, or of one command, from the table."""
    if command is None:
        lines = [
            "usage: milnortc <command> [options]",
            "",
            "Exact mod-2 bounds on category and higher topological complexity",
            "of Milnor manifolds and projective spaces.",
            "",
            "commands:",
            *(f"  {name:<10}{summary}" for name, (summary, _) in _COMMANDS.items()),
            "",
            "Run 'milnortc <command> --help' for the options of a command.",
        ]
        return "\n".join(lines) + "\n"
    summary, options = _COMMANDS[command]
    lines = [f"usage: milnortc {command} [options]", "", summary, "", "options:"]
    for name, (kind, default, text) in options.items():
        if kind is _FLAG:
            spec = name
        elif isinstance(kind, tuple):
            spec = f"{name} {{{','.join(kind)}}}"
        else:
            spec = f"{name} {name[2:].upper().replace('-', '_')}"
        if default is _REQUIRED:
            text += " (required)"
        elif kind is _REPEAT:
            text += " (repeatable)"
        elif default not in (None, False):
            text += f" (default {default})"
        if len(spec) > 24:
            # too long for its column: the help goes on the next line
            lines.append(f"  {spec}")
            spec = ""
        lines.append(f"  {spec:<24}  {text}")
    lines.append(f"  {'-h, --help':<24}  print this help and exit")
    return "\n".join(lines) + "\n"


def _parse_args(argv) -> SimpleNamespace | None:
    """The command of argv (sys.argv[1:] when None) with a value for each
    of its options, named as the option without its dashes.  Prints the
    help text and returns None when argv asks for it; raises ValueError,
    naming the command or option, on any other usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        raise ValueError(f"a command is required: {', '.join(_COMMANDS)}")
    command, *rest = argv
    if command in _HELP:
        sys.stdout.write(_usage())
        return None
    if command not in _COMMANDS:
        raise ValueError(
            f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}"
        )
    options = _COMMANDS[command][1]
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_usage(command))
            return None
        if not token.startswith("--"):
            raise ValueError(f"unexpected argument {token!r}")
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"{command} takes no option {name}")
        kind = options[name][0]
        if name in values and kind is not _REPEAT:
            raise ValueError(f"{name} is given more than once")
        if kind is _FLAG:
            if eq:
                raise ValueError(f"{name} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{name} expects a value")
        if kind is _REPEAT:
            values[name] = values.get(name, ()) + (value,)
        elif isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(
                    f"{name} must be one of {', '.join(kind)}, got {value!r}"
                )
            values[name] = value
        else:
            try:
                values[name] = kind(value)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    missing = [
        name
        for name, (_, default, _) in options.items()
        if default is _REQUIRED and name not in values
    ]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")
    return SimpleNamespace(
        command=command,
        **{
            name[2:].replace("-", "_"): values.get(name, default)
            for name, (_, default, _) in options.items()
        },
    )


# --- subcommand bodies -------------------------------------------------------


def _oracle_cap(args) -> int:
    """--max-slice, refused without --use-oracle as nothing else reads it."""
    if args.max_slice is None:
        return DEFAULT_MAX_SLICE
    if not args.use_oracle:
        raise ValueError("--max-slice applies only with --use-oracle")
    return args.max_slice


def _cmd_bounds(args) -> int:
    options = dict(
        use_oracle=args.use_oracle,
        use_certs=not args.no_certs,
        use_monotonicity=not args.no_monotonicity,
        max_slice=_oracle_cap(args),
    )
    if args.group and args.quantity != "eqtc":
        raise ValueError(f"--group does not apply to --quantity {args.quantity}")
    if args.quantity == "cat":
        # --max-slice, which needs --use-oracle, is refused with it
        for flag, given in (
            ("--no-certs", args.no_certs),
            ("--no-monotonicity", args.no_monotonicity),
            ("--use-oracle", args.use_oracle),
        ):
            if given:
                raise ValueError(f"{flag} does not apply to --quantity cat")
        report = bounds.cat_bounds(args.space, args.n)
    elif args.quantity == "tc":
        report = bounds.tc_bounds(args.space, args.n, **options)
    else:
        if not args.group:
            raise ValueError("--group is required for eqtc")
        report = bounds.eqtc_bounds(args.space, args.group, args.n, **options)
    _write_out(emit_report(report, args.format), args.out)
    return 0


def _cmd_cup(args) -> int:
    P = spaces.cohomology_of(spaces.parse_space(args.space))
    value = cuplength.cup_exact(P, args.n, max_slice=args.max_slice)
    _write_out(f"{value}\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        cert = certificate_from_json(fh.read())
    report = cuplength.verify_certificate(cert)
    if args.format == "json":
        doc = {
            "space": cert.space,
            "n": cert.n,
            "verdict": report.verdict,
            "productNonzero": report.product_nonzero,
            "verifiedCup": report.verified_cup,
            "verifiedTcLower": report.verified_tc_lower,
            "perFactor": [
                {
                    "expr": c.expression,
                    "isZeroDivisor": c.is_zero_divisor,
                    "degree": c.degree,
                }
                for c in report.per_factor
            ],
        }
        text = _json_text(doc)
    else:
        lines = [f"verdict: {report.verdict}"]
        if report.verified_cup is not None:
            lines.append(f"verifiedCup: {report.verified_cup}")
            lines.append(f"verifiedTcLower: {report.verified_tc_lower}")
        for c in report.per_factor:
            tag = "zero-divisor" if c.is_zero_divisor else "NOT a zero divisor"
            lines.append(f"factor {c.expression}: degree {c.degree}, {tag}")
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0 if report.verdict == "Verified" else 1


def _require_params(params: dict, method: str, *names) -> list:
    """The values of exactly the keys names: a missing key and a key the
    method does not take are both refused."""
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"missing --params keys: {', '.join(missing)}")
    unknown = [k for k in params if k not in names]
    if unknown:
        raise ValueError(
            f"--params keys not taken by --method {method}: {', '.join(unknown)}"
        )
    return [params[k] for k in names]


def _cmd_gen_cert(args) -> int:
    params = _parse_params(args.params)
    if args.method == "cat":
        (space,) = _require_params(params, "cat", "space")
        cert = certgen.cert_cat_topclass(space, args.n)
    else:
        build, names = certgen.GENERATORS[args.method]
        texts = _require_params(params, args.method, *names)
        values = [_int(v, f"--params key {k!r}") for k, v in zip(names, texts)]
        cert = build(*values, args.n)
    if isinstance(cert, cuplength.SearchFailure):
        sys.stderr.write(f"certificate search failed: {cert.reason}\n")
        return 1
    _write_out(certificate_to_json(cert), args.out)
    return 0


def _cmd_table(args) -> int:
    n_range = _parse_range(args.n, "--n")
    if args.family in ("rh", "ch"):
        if not args.r or not args.s:
            raise ValueError("--r and --s ranges are required for Milnor families")
        space_names = [
            f"{args.family}:{r},{s}"
            for r in _parse_range(args.r, "--r")
            for s in _parse_range(args.s, "--s")
            if 0 <= s <= r
        ]
        if not space_names:
            raise ValueError(
                f"--s range {args.s!r} has no s with 0 <= s <= r for --r {args.r!r}"
            )
    else:
        if not args.r:
            raise ValueError("--r (dimension range) is required for rp")
        if args.s is not None:
            raise ValueError("--s does not apply to --family rp")
        space_names = [f"rp:{m}" for m in _parse_range(args.r, "--r")]
    max_slice = _oracle_cap(args)
    reports = [
        bounds.tc_bounds(space, n, use_oracle=args.use_oracle, max_slice=max_slice)
        for space in space_names
        for n in n_range
    ]
    _write_out(emit_table(reports, args.format), args.out)
    return 0


def _cmd_lucas(args) -> int:
    if args.n < 0 or args.k < 0:
        raise ValueError("n and k must be non-negative")
    sys.stdout.write(f"{f2algebra.binom_mod2(args.n, args.k)}\n")
    return 0


_DISPATCH = {
    "bounds": _cmd_bounds,
    "cup": _cmd_cup,
    "verify": _cmd_verify,
    "gen-cert": _cmd_gen_cert,
    "table": _cmd_table,
    "lucas": _cmd_lucas,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return 0 if args is None else _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except (ValueError, ExprSyntaxError, NoFreeActionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
