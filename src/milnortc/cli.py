"""Command-line surface: one table holds the options and the handler of
each command, and one the certgen builder and parameters of each
``gen-cert`` method.  Certificate files are read and written, and the
report of ``verify`` formatted, by :mod:`milnortc.certfile`; bound
reports are built and formatted by :mod:`milnortc.bounds`.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit (the oracle's row budget).  All outputs are
deterministic: identical invocations produce byte-identical text.
"""

from __future__ import annotations

import atexit
import gc
import sys
from types import SimpleNamespace

# a layer that some command does not call is reached through its module
# object, which runs on first use (see the package docstring), so that each
# command runs only the modules it calls: cup runs none of bounds, certfile
# and exprs, and json and csv are imported only by the first two
from . import bounds, certfile, certgen, cuplength, exprs, spaces
from .errors import ResourceLimitError

# gen-cert method -> (the name of its certgen builder, the --params keys it
# takes, which are the builder's parameters before n).  A builder is named,
# not held, so that the option table does not run certgen, and is called
# through the module
_METHODS = {
    "case1": ("cert_case1", ("t1", "t2")),
    "case2": ("cert_case2", ("p1", "p2")),
    "r2t": ("cert_r2t", ("s", "t")),
    "proj": ("cert_proj", ("t",)),
    "cat": ("cert_cat_topclass", ("space",)),
}

# at exit, move every object to the permanent generation, so that the
# collections run while the interpreter tears its modules down skip them
atexit.register(gc.freeze)


# --- argument plumbing -------------------------------------------------------


def _params(items, method: str, names) -> list:
    """The --params values of exactly the keys names, read as written: a
    missing key, a key the method does not take and a key given twice are
    refused."""
    params = {}
    last = None
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            if sep:
                last = key
                if last in params:
                    raise ValueError(f"--params key {last!r} is given more than once")
                params[last] = value
            elif last is not None:
                # commas inside a value (e.g. space=rh:2,1) reattach here
                params[last] += "," + piece
            else:
                raise ValueError(f"bad parameter {piece!r}; expected key=value")
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError(f"missing --params keys: {', '.join(missing)}")
    unknown = [k for k in params if k not in names]
    if unknown:
        raise ValueError(
            f"--params keys not taken by --method {method}: {', '.join(unknown)}"
        )
    return [params[k] for k in names]


def _int(text: str, what: str | None = None) -> int:
    """The integer text, read only where str() writes it back as text, the
    rule of a space's numbers: int() also reads "02", "-0", "1_000", "+2"
    and other scripts' digits.  Refused naming what."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"{what + ': ' if what else ''}{text!r} is not an integer")
    return value


def _parse_range(text: str, flag: str):
    """'A..B' inclusive, or a single integer; an empty range is refused."""
    lo, dots, hi = text.partition("..")
    what = f"{flag} range {text!r}"
    values = range(_int(lo, what), _int(hi if dots else lo, what) + 1)
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _space(text: str, what: str = "--space"):
    """The descriptor of the space text, refused naming what."""
    try:
        return spaces.parse_space(text)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand bodies -------------------------------------------------------


def _cmd_bounds(args) -> int:
    options = dict(
        use_oracle=args.use_oracle,
        use_certs=not args.no_certs,
        use_monotonicity=not args.no_monotonicity,
    )
    if args.group and args.quantity != "eqtc":
        raise ValueError(f"--group does not apply to --quantity {args.quantity}")
    if args.quantity == "cat":
        for flag, given in (
            ("--no-certs", args.no_certs),
            ("--no-monotonicity", args.no_monotonicity),
            ("--use-oracle", args.use_oracle),
        ):
            if given:
                raise ValueError(f"{flag} does not apply to --quantity cat")
        report = bounds.cat_bounds(_space(args.space), args.n)
    elif args.quantity == "tc":
        report = bounds.tc_bounds(_space(args.space), args.n, **options)
    else:
        if not args.group:
            raise ValueError("--group is required for eqtc")
        space, group = _space(args.space), bounds.resolve_group(args.group)
        report = bounds.eqtc_bounds(space, group, args.n, **options)
    _write_out(bounds.emit_report(report, args.format), args.out)
    return 0


def _cmd_cup(args) -> int:
    P = spaces.cohomology_of(_space(args.space))
    value = cuplength.cup_exact(P, args.n)
    _write_out(f"{value}\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        cert = certfile.certificate_from_json(fh.read())
    report = cuplength.verify_certificate(cert)
    _write_out(certfile.verification_text(cert, report, args.format), args.out)
    return 0 if report.verdict == "Verified" else 1


def _cmd_gen_cert(args) -> int:
    name, keys = _METHODS[args.method]
    values = [
        (_space if key == "space" else _int)(text, f"--params key {key!r}")
        for key, text in zip(keys, _params(args.params, args.method, keys))
    ]
    cert = getattr(certgen, name)(*values, args.n)
    if isinstance(cert, exprs.SearchFailure):
        sys.stderr.write(f"certificate search failed: {cert.reason}\n")
        return 1
    _write_out(certfile.certificate_to_json(cert), args.out)
    return 0


def _cmd_table(args) -> int:
    n_range = _parse_range(args.n, "--n")
    if args.family in ("rh", "ch"):
        if not args.r or not args.s:
            raise ValueError("--r and --s ranges are required for Milnor families")
        cells = [
            _space(f"{args.family}:{r},{s}", f"--r {r}, --s {s}")
            for r in _parse_range(args.r, "--r")
            for s in _parse_range(args.s, "--s")
            if 0 <= s <= r
        ]
        if not cells:
            raise ValueError(
                f"--s range {args.s!r} has no s with 0 <= s <= r for --r {args.r!r}"
            )
    else:
        if not args.r:
            raise ValueError("--r (dimension range) is required for rp")
        if args.s is not None:
            raise ValueError("--s does not apply to --family rp")
        cells = [_space(f"rp:{m}", f"--r {m}") for m in _parse_range(args.r, "--r")]
    reports = [
        bounds.tc_bounds(space, n, use_oracle=args.use_oracle)
        for space in cells
        for n in n_range
    ]
    _write_out(bounds.emit_table(reports, args.format), args.out)
    return 0


# --- the command line --------------------------------------------------------

# Each command's entry is (summary, options, handler): main calls the
# handler with the values _parse_args gives.  An option's kind is a
# converter, a tuple of its choices, _FLAG (it takes no value and sets True)
# or _REPEAT (a string that may be given again; the values are kept in
# order).  Its default is _REQUIRED when it must be given.  _parse_args and
# the --help text both read this table, and nothing else describes the
# commands or their options
_FLAG, _REPEAT, _REQUIRED = "flag", "repeat", "required"
_FORMATS = ("md", "csv", "json")
_SPACE_HELP = "the space, such as rh:4,3, cp:2 or prod:rp3,rp2"
_OUT_HELP = "write to this file instead of stdout"
_ORACLE_HELP = "add the exact oracle's lower bound, skipped past its row budget"

_COMMANDS = {
    "bounds": ("emit a bound report for one space", {
        "--space": (str, _REQUIRED, _SPACE_HELP),
        "--quantity": (("cat", "tc", "eqtc"), _REQUIRED, "the invariant to bound"),
        "--n": (_int, _REQUIRED, "n of TC_n, or the n-fold power for cat"),
        "--group": (("z2", "s1"), None, "the freely acting group; eqtc only"),
        "--use-oracle": (_FLAG, False, _ORACLE_HELP),
        "--no-certs": (_FLAG, False, "leave out the generated certificates"),
        "--no-monotonicity": (_FLAG, False, "leave out the monotonicity rules"),
        "--format": (_FORMATS, "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }, _cmd_bounds),
    "cup": ("exact zero-divisor cup-length oracle; exit 3 past its row budget", {
        "--space": (str, _REQUIRED, _SPACE_HELP),
        "--n": (_int, _REQUIRED, "the number of tensor factors"),
        "--out": (str, None, _OUT_HELP),
    }, _cmd_cup),
    "verify": ("verify a certificate file", {
        "--cert": (str, _REQUIRED, "the certificate file"),
        "--format": (("md", "json"), "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }, _cmd_verify),
    "gen-cert": ("generate a certificate file", {
        "--method": (tuple(_METHODS), _REQUIRED, "the certificate family"),
        "--params": (_REPEAT, (), "key=value pairs, comma-separated"),
        "--n": (_int, _REQUIRED, "n of TC_n"),
        "--out": (str, _REQUIRED, "the certificate file to write"),
    }, _cmd_gen_cert),
    "table": ("batch bound reports over a family", {
        "--family": (("rh", "ch", "rp"), _REQUIRED, "the family of spaces"),
        "--r": (str, None, "range A..B (r for Milnor, m for rp)"),
        "--s": (str, None, "range C..D"),
        "--n": (str, _REQUIRED, "range E..F"),
        "--use-oracle": (_FLAG, False, _ORACLE_HELP),
        "--format": (_FORMATS, "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }, _cmd_table),
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
            *(f"  {name:<10}{summary}" for name, (summary, _, _) in _COMMANDS.items()),
            "",
            "Run 'milnortc <command> --help' for the options of a command.",
        ]
        return "\n".join(lines) + "\n"
    summary, options, _ = _COMMANDS[command]
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


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return 0 if args is None else _COMMANDS[args.command][2](args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
