"""Certificate files: the canonical JSON form of a :class:`Certificate`,
and the report of ``verify`` on one (:func:`verification_text`).

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
"""

import json

from . import exprs, spaces

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
