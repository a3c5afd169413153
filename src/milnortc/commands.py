"""The bodies of the CLI commands but ``cup``, and the ``--help`` text.

:mod:`milnortc.cli` names each body in its option table and calls it with
the running ``cli`` module, whose table, option readers and writer it uses.
This module never imports ``cli``: under ``python -m milnortc.cli`` that is
``__main__``, and an import by name would run it a second time.
"""

import sys

from . import bounds, certfile, certgen, cuplength, exprs, spaces


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


def _parse_range(cli, text: str, flag: str):
    """'A..B' inclusive, or a single integer; an empty range is refused."""
    lo, dots, hi = text.partition("..")
    what = f"{flag} range {text!r}"
    values = range(cli._int(lo, what), cli._int(hi if dots else lo, what) + 1)
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _cmd_bounds(cli, args) -> int:
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
        report = bounds.cat_bounds(cli._space(args.space), args.n)
    elif args.quantity == "tc":
        report = bounds.tc_bounds(cli._space(args.space), args.n, **options)
    else:
        if not args.group:
            raise ValueError("--group is required for eqtc")
        space, group = cli._space(args.space), bounds.resolve_group(args.group)
        report = bounds.eqtc_bounds(space, group, args.n, **options)
    cli._write_out(bounds.emit_report(report, args.format), args.out)
    return 0


def _cmd_verify(cli, args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        cert = certfile.certificate_from_json(fh.read())
    report = cuplength.verify_certificate(cert)
    cli._write_out(certfile.verification_text(cert, report, args.format), args.out)
    return 0 if report.verdict == "Verified" else 1


def _cmd_gen_cert(cli, args) -> int:
    name, keys = cli._METHODS[args.method]
    values = [
        (cli._space if key == "space" else cli._int)(text, f"--params key {key!r}")
        for key, text in zip(keys, _params(args.params, args.method, keys))
    ]
    cert = getattr(certgen, name)(*values, args.n)
    if isinstance(cert, exprs.SearchFailure):
        sys.stderr.write(f"certificate search failed: {cert.reason}\n")
        return 1
    cli._write_out(certfile.certificate_to_json(cert), args.out)
    return 0


def _cell(cls, values, what: str):
    """The descriptor cls(*values), refused naming what."""
    try:
        return cls(*values)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _cmd_table(cli, args) -> int:
    n_range = _parse_range(cli, args.n, "--n")
    cls = spaces._FAMILIES[args.family]
    if args.family in ("rh", "ch"):
        if not args.r or not args.s:
            raise ValueError("--r and --s ranges are required for Milnor families")
        cells = [
            _cell(cls, (r, s), f"--r {r}, --s {s}")
            for r in _parse_range(cli, args.r, "--r")
            for s in _parse_range(cli, args.s, "--s")
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
        cells = [_cell(cls, (m,), f"--r {m}") for m in _parse_range(cli, args.r, "--r")]
    reports = [
        bounds.tc_bounds(space, n, use_oracle=args.use_oracle)
        for space in cells
        for n in n_range
    ]
    cli._write_out(bounds.emit_table(reports, args.format), args.out)
    return 0


def _usage(cli, command=None) -> str:
    """The --help text of the program, or of one command, from cli's table."""
    if command is None:
        lines = [
            "usage: milnortc <command> [options]",
            "",
            "Exact mod-2 bounds on category and higher topological complexity",
            "of Milnor manifolds and projective spaces.",
            "",
            "commands:",
            *(f"  {name:<10}{summary}" for name, (summary, _, _) in cli._COMMANDS.items()),
            "",
            "Run 'milnortc <command> --help' for the options of a command.",
        ]
        return "\n".join(lines) + "\n"
    summary, options, _ = cli._COMMANDS[command]
    lines = [f"usage: milnortc {command} [options]", "", summary, "", "options:"]
    for name, (kind, default, text) in options.items():
        if kind is cli._FLAG:
            spec = name
        elif isinstance(kind, tuple):
            spec = f"{name} {{{','.join(kind)}}}"
        else:
            spec = f"{name} {name[2:].upper().replace('-', '_')}"
        if default is cli._REQUIRED:
            text += " (required)"
        elif kind is cli._REPEAT:
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
