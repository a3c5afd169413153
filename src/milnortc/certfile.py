"""The CLI's certificate side: certificate files, the canonical JSON form
of a :class:`Certificate`, the report of ``verify`` on one
(:func:`verification_text`), and the bodies of ``verify`` and
``gen-cert``.

The writer fixes the key order, a two-space indent and one trailing
newline, so parse -> print round-trips byte-identically.  The reader is
strict, with no coercion: it refuses an unknown key, a missing one, a null
``note`` or ``catWitness``, and a ``space`` that
:func:`milnortc.spaces.parse_space` refuses, which is every text but the
writer's canonical form, and it leaves the check of every field to the
record.
This is the one place besides the command-line options where space text
is parsed.  The CLI registers this module lazily, so a command that reads
and writes no certificate file never compiles it.

:mod:`milnortc.cli` names the two bodies in its option table and calls
each with the running ``cli`` module, as it does the bodies in
:mod:`milnortc.commands`, so neither command compiles those, nor the
oracle's program in :mod:`milnortc.slotchain`.
"""

import json
import sys

# certgen and cuplength run on first use (see the package docstring): verify
# runs no certgen, and gen-cert cuplength only for case2
from . import certgen, cuplength, exprs, spaces

SCHEMA_VERSION = 1


def _json_text(doc) -> str:
    """The JSON text of doc as the CLI writes it for a certificate: the
    file itself and the report of ``verify --format json``."""
    return json.dumps(doc, indent=2) + "\n"


def certificate_to_json(cert: "exprs.Certificate") -> str:
    """Canonical serialization: fixed key order, two-space indent, one
    trailing newline.  parse -> print round-trips byte-identically."""
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "space": spaces.format_space(cert.space),
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


def verification_text(
    cert: "exprs.Certificate", report: "exprs.VerificationReport", fmt: str
) -> str:
    """The report of ``verify`` on cert: its verdict, verified values and
    per-factor checks, as md lines or, for fmt ``json``, a JSON object."""
    if fmt == "json":
        return _json_text({
            "space": spaces.format_space(cert.space),
            "n": cert.n,
            "verdict": report.verdict,
            "productNonzero": report.product_nonzero,
            "verifiedCup": report.verified_cup,
            "verifiedTcLower": report.verified_tc_lower,
            "perFactor": [
                {"expr": c.expression, "isZeroDivisor": c.is_zero_divisor,
                 "degree": c.degree}
                for c in report.per_factor
            ],
        })
    lines = [f"verdict: {report.verdict}"]
    if report.verified_cup is not None:
        lines.append(f"verifiedCup: {report.verified_cup}")
        lines.append(f"verifiedTcLower: {report.verified_tc_lower}")
    for c in report.per_factor:
        tag = "zero-divisor" if c.is_zero_divisor else "NOT a zero divisor"
        lines.append(f"factor {c.expression}: degree {c.degree}, {tag}")
    return "\n".join(lines) + "\n"


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


def _space_of(text):
    """The descriptor of a file's space, a string in the writer's form."""
    if type(text) is not str:
        raise ValueError(f"space must be a JSON string, got {text!r}")
    try:
        return spaces.parse_space(text)
    except ValueError as exc:
        raise ValueError(f"space {text!r}: {exc}") from None


def certificate_from_json(text: str) -> "exprs.Certificate":
    """Check the file format (schema version 1, known keys, none missing, no
    null note or catWitness, factors an array, claimedTcLower the int
    claimedCup + 1), parse the space and map the keys to the fields of the
    record, which checks them."""
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
        cert = exprs.Certificate(
            space=_space_of(doc["space"]),
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


# --- the verify and gen-cert commands ----------------------------------------


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


def _cmd_verify(cli, args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        cert = certificate_from_json(fh.read())
    report = cuplength.verify_certificate(cert)
    cli._write_out(verification_text(cert, report, args.format), args.out)
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
    cli._write_out(certificate_to_json(cert), args.out)
    return 0
