"""Golden bytes of the certificate files the four zero-divisor families
write: case1 with t1 <= 2 and t2 <= 3, r2t with 1 <= s <= r = 2^t and
t <= 3, and proj with t <= 3, each at n = 2..7, and case2 with p1, p2 <= 1
at n = 2, 3.  Parameters outside a family's hypotheses record the error
message instead of a file.

The test compares against the committed ``artifacts/certificates.json``
and never writes it.  To re-record it after an intended output change, run
from the root of a checkout::

    PYTHONPATH=src:tests python -c "import test_certificate_bytes as t; t.record()"
"""

import json
import pathlib

from milnortc.certgen import cert_case1, cert_case2, cert_proj, cert_r2t
from milnortc.certfile import certificate_to_json

ARTIFACT = pathlib.Path(__file__).parent / "artifacts" / "certificates.json"


def _cases():
    for n in range(2, 8):
        for t1 in range(3):
            for t2 in range(4):
                yield f"case1 t1={t1},t2={t2} n={n}", cert_case1, (t1, t2, n)
        for t in range(4):
            for s in range(1, 2**t + 1):
                yield f"r2t s={s},t={t} n={n}", cert_r2t, (s, t, n)
        for t in range(4):
            yield f"proj t={t} n={n}", cert_proj, (t, n)
    for n in (2, 3):
        for p1 in range(2):
            for p2 in range(2):
                yield f"case2 p1={p1},p2={p2} n={n}", cert_case2, (p1, p2, n)


def _render() -> dict:
    out = {}
    for key, build, args in _cases():
        try:
            cert = build(*args)
        except ValueError as exc:
            out[key] = f"ValueError: {exc}"
            continue
        out[key] = certificate_to_json(cert)
    return out


def record():
    ARTIFACT.write_text(json.dumps(_render(), indent=1) + "\n", encoding="utf-8")


def test_certificate_bytes_match_the_committed_record():
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    rendered = _render()
    assert list(rendered) == list(committed)
    differing = [key for key in rendered if rendered[key] != committed[key]]
    assert not differing, f"{len(differing)} certificates changed, first: {differing[0]}"
