"""Command-line surface: bound reports, the exact oracle, certificate
files, table emission, and binomial parity.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit.  All outputs are deterministic: identical invocations
produce byte-identical text.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

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
# Written out so that building the parser does not run certgen; a test
# keeps the two equal
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


_JSON_TYPE = {bool: "boolean", int: "integer", list: "array", str: "string"}


def _typed(doc: dict, key: str, kind: type):
    """doc[key], which must have exactly the JSON type kind: nothing is
    coerced, so true is not an integer and "2" or 1.5 not a multiplicity."""
    value = doc[key]
    if type(value) is not kind:
        import json

        raise ValueError(
            f"certificate field {key!r} must be a JSON {_JSON_TYPE[kind]}, "
            f"got {json.dumps(value)}"
        )
    return value


def certificate_from_json(text: str) -> cuplength.Certificate:
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed certificate file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("certificate file must hold a JSON object")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schemaVersion')!r}")
    try:
        factors = tuple(
            (_typed(f, "expr", str), _typed(f, "multiplicity", int))
            for f in _typed(doc, "factors", list)
        )
        return cuplength.Certificate(
            space=_typed(doc, "space", str),
            n=_typed(doc, "n", int),
            factors=factors,
            claimed_cup=_typed(doc, "claimedCup", int),
            claimed_tc_lower=_typed(doc, "claimedTcLower", int),
            note=_typed(doc, "note", str) if "note" in doc else None,
            cat_witness="catWitness" in doc and _typed(doc, "catWitness", bool),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"certificate file missing or bad field: {exc}") from None


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
    for item in items or ():
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


def _parse_range(text: str, flag: str):
    """'A..B' inclusive, or a single integer; an empty range is refused."""
    lo, dots, hi = text.partition("..")
    values = range(int(lo), int(hi if dots else lo) + 1)
    if not values:
        raise ValueError(f"{flag} range {text!r} is empty")
    return values


def _slice_cap(text: str) -> int:
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {cap}")
    return cap


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnortc",
        description="Exact mod-2 bounds on category and higher topological "
        "complexity of Milnor manifolds and projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit a bound report for one space")
    p.add_argument("--space", required=True)
    p.add_argument("--quantity", choices=("cat", "tc", "eqtc"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=("z2", "s1"))
    p.add_argument("--use-oracle", action="store_true")
    p.add_argument("--no-certs", action="store_true")
    p.add_argument("--no-monotonicity", action="store_true")
    # no default here, so that cat can tell the flag was given
    p.add_argument("--max-slice", type=_slice_cap)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--out")

    p = sub.add_parser("cup", help="exact zero-divisor cup-length oracle")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-slice", type=_slice_cap, default=DEFAULT_MAX_SLICE)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--out")

    p = sub.add_parser("gen-cert", help="generate a certificate file")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--params", action="append", default=[])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("table", help="batch bound reports over a family")
    p.add_argument("--family", choices=("rh", "ch", "rp"), required=True)
    p.add_argument("--r", help="range A..B (r for Milnor, m for rp)")
    p.add_argument("--s", help="range C..D")
    p.add_argument("--n", required=True, help="range E..F")
    p.add_argument("--use-oracle", action="store_true")
    p.add_argument("--max-slice", type=_slice_cap, default=DEFAULT_MAX_SLICE)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--out")

    p = sub.add_parser("lucas", help="binomial coefficient parity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    return parser


# --- subcommand bodies -------------------------------------------------------


def _cmd_bounds(args) -> int:
    options = dict(
        use_oracle=args.use_oracle,
        use_certs=not args.no_certs,
        use_monotonicity=not args.no_monotonicity,
        max_slice=DEFAULT_MAX_SLICE if args.max_slice is None else args.max_slice,
    )
    if args.group and args.quantity != "eqtc":
        raise ValueError(f"--group does not apply to --quantity {args.quantity}")
    if args.quantity == "cat":
        for flag, given in (
            ("--no-certs", args.no_certs),
            ("--no-monotonicity", args.no_monotonicity),
            ("--use-oracle", args.use_oracle),
            ("--max-slice", args.max_slice is not None),
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
        cert = build(*map(int, _require_params(params, args.method, *names)), args.n)
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
    reports = [
        bounds.tc_bounds(space, n, use_oracle=args.use_oracle, max_slice=args.max_slice)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except (ValueError, ExprSyntaxError, NoFreeActionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
