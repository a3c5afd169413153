"""Command-line surface: one table holds the options of each command and
names the module and function of its body, and one the certgen builder
and parameters of each ``gen-cert`` method.  ``cup``'s body is here; those
of ``verify`` and ``gen-cert`` are in :mod:`milnortc.certfile`, and those
of ``bounds`` and ``table``, with the ``--help`` text, in
:mod:`milnortc.commands`.  ``cup`` runs neither module.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource limit (the oracle's row budget).  All outputs are
deterministic: identical invocations produce byte-identical text.
"""

import atexit
import gc
import sys
from types import SimpleNamespace

# a layer that some command does not call is reached through its module
# object, which runs on first use (see the package docstring), so that each
# command runs only the modules it calls: cup runs only spaces, cuplength
# and its slotchain, with the rings below them, and none of certfile and
# commands
from . import certfile, commands, cuplength, spaces
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


def _cmd_cup(args) -> int:
    P = spaces.cohomology_of(_space(args.space))
    value = cuplength.cup_exact(P, args.n)
    _write_out(f"{value}\n", args.out)
    return 0


# --- the command line --------------------------------------------------------

# Each command's entry is (summary, options, (the module of its body, the
# body's name)): main calls the body with the values _parse_args gives.  A
# body is named, not held, so that the table runs neither certfile nor
# commands: cup's is _cmd_cup above.  An option's kind is a converter, a tuple
# of its choices, _FLAG (it takes no value and sets True) or _REPEAT (a
# string that may be given again; the values are kept in order).  Its
# default is _REQUIRED when it must be given.  _parse_args and the --help
# text (commands._usage) both read this table, and nothing else describes
# the commands or their options
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
    }, ("commands", "_cmd_bounds")),
    "cup": ("exact zero-divisor cup-length oracle; exit 3 past its row budget", {
        "--space": (str, _REQUIRED, _SPACE_HELP),
        "--n": (_int, _REQUIRED, "the number of tensor factors"),
        "--out": (str, None, _OUT_HELP),
    }, ("cli", "_cmd_cup")),
    "verify": ("verify a certificate file", {
        "--cert": (str, _REQUIRED, "the certificate file"),
        "--format": (("md", "json"), "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }, ("certfile", "_cmd_verify")),
    "gen-cert": ("generate a certificate file", {
        "--method": (tuple(_METHODS), _REQUIRED, "the certificate family"),
        "--params": (_REPEAT, (), "key=value pairs, comma-separated"),
        "--n": (_int, _REQUIRED, "n of TC_n"),
        "--out": (str, _REQUIRED, "the certificate file to write"),
    }, ("certfile", "_cmd_gen_cert")),
    "table": ("batch bound reports over a family", {
        "--family": (("rh", "ch", "rp"), _REQUIRED, "the family of spaces"),
        "--r": (str, None, "range A..B (r for Milnor, m for rp)"),
        "--s": (str, None, "range C..D"),
        "--n": (str, _REQUIRED, "range E..F"),
        "--use-oracle": (_FLAG, False, _ORACLE_HELP),
        "--format": (_FORMATS, "md", "output format"),
        "--out": (str, None, _OUT_HELP),
    }, ("commands", "_cmd_table")),
}

_HELP = ("-h", "--help")


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
        sys.stdout.write(commands._usage(sys.modules[__name__]))
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
            sys.stdout.write(commands._usage(sys.modules[__name__], command))
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
        if args is None:
            return 0
        module, body = _COMMANDS[args.command][2]
        if module == "cli":
            return _cmd_cup(args)
        # the body's module runs on this first use; it is handed this module,
        # which is __main__ under python -m milnortc.cli
        return getattr(globals()[module], body)(sys.modules[__name__], args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
