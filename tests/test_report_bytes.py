"""Golden bytes of `milnortc bounds` for the cases the benchmark does not
check: cat, tc and eqtc reports in every format, with and without the
certificate and monotonicity sources, on Milnor, projective and product
spaces.

The test compares against the committed ``artifacts/report_bytes.json`` and
never writes it.  To re-record it after an intended output change, run from
the root of a checkout::

    PYTHONPATH=src:tests python -c "import test_report_bytes as t; t.record()"
"""

import contextlib
import io
import json
import pathlib

from milnortc.cli import main

ARTIFACT = pathlib.Path(__file__).parent / "artifacts" / "report_bytes.json"

SPACES = (
    "rh:4,3",
    "rh:2,1",
    "ch:3,2",
    "rp:5",
    "rp:4",
    "cp:2",
    "prod:rp3,rp2",
    "prod:rh2.1,cp1",
)
GROUP_SPACES = (("rh:5,3", "z2"), ("rh:5,3", "s1"), ("ch:5,3", "z2"))
FLAGS = (
    (),
    ("--no-certs",),
    ("--no-monotonicity",),
    ("--no-certs", "--no-monotonicity"),
)
FORMATS = ("md", "csv", "json")


def _cases():
    for fmt in FORMATS:
        for space in SPACES:
            cat = ("--space", space, "--quantity", "cat", "--format", fmt)
            for n in (1, 2, 3):
                yield (*cat, "--n", str(n))
            yield (*cat, "--n", "2", *FLAGS[-1])
            for n in (2, 3):
                for flags in FLAGS:
                    yield ("--space", space, "--quantity", "tc", "--format", fmt,
                           "--n", str(n), *flags)
        for space, group in GROUP_SPACES:
            eqtc = ("--space", space, "--quantity", "eqtc", "--group", group)
            for n in (2, 3):
                for flags in FLAGS:
                    yield (*eqtc, "--format", fmt, "--n", str(n), *flags)


CASES = tuple(_cases())


def _run(args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["bounds", *args])
    return {"exit": code, "stdout": out.getvalue()}


def _render() -> dict:
    return {" ".join(args): _run(args) for args in CASES}


def record():
    ARTIFACT.write_text(json.dumps(_render(), indent=1) + "\n", encoding="utf-8")


def test_report_bytes_match_the_committed_record():
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    rendered = _render()
    assert list(rendered) == list(committed)
    differing = [key for key in rendered if rendered[key] != committed[key]]
    assert not differing, f"{len(differing)} reports changed, first: {differing[0]}"
