"""Golden normal forms of the Milnor rings: ``P.reduce((i, j))`` for every
ring with s <= r and 1 <= r <= 8, every i <= s + 1 and every j <= 3r.
Each line of the record is ``[s, r, i, j, support]`` with the support's
basic monomials sorted.

The test compares against the committed ``artifacts/milnor_normal_forms.json``
and never writes it.  To re-record it after an intended change, run from
the root of a checkout::

    PYTHONPATH=src:tests python -c "import test_normal_forms as t; t.record()"
"""

import json
import pathlib

from reference import ring

ARTIFACT = pathlib.Path(__file__).parent / "artifacts" / "milnor_normal_forms.json"


def _render() -> list:
    out = []
    for r in range(1, 9):
        for s in range(r + 1):
            P = ring(f"rh:{r},{s}")
            for i in range(s + 2):
                for j in range(3 * r + 1):
                    support = sorted(list(m) for m in P.reduce((i, j)))
                    out.append([s, r, i, j, support])
    return out


def record():
    lines = ",\n".join(json.dumps(entry) for entry in _render())
    ARTIFACT.write_text("[\n" + lines + "\n]\n", encoding="utf-8")


def test_normal_forms_match_the_committed_record():
    # the record also holds the two forms of the zero ring r = 0, all empty,
    # which the RealMilnor descriptor refuses
    committed = [c for c in json.loads(ARTIFACT.read_text(encoding="utf-8")) if c[1] >= 1]
    rendered = _render()
    assert len(rendered) == len(committed)
    differing = [c[:4] for c, r in zip(committed, rendered) if c != r]
    assert not differing, f"{len(differing)} normal forms changed, first: {differing[0]}"
