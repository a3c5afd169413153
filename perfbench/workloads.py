"""Workload definitions: the milnortc CLI commands each workload runs.

A workload is a set of slots.  A unit is a short sequence of CLI commands
run back to back, such as ``gen-cert`` followed by ``verify`` of the written
file.  The units of one slot are the same computation on isomorphic inputs
(a real Milnor or projective space and its complex counterpart, whose
degrees are doubled, or the factors of a product in another order), so
they do the same work; a computation on inputs that are not isomorphic gets
a slot of its own.  One pass runs one unit from every slot.
The seed fixes, for each slot, the order in which its units are used over
the passes of a run, and the order of the units inside each pass.

Every command has a committed expected stdout and exit code under
``expected/`` (and the expected certificate file for ``gen-cert``); the
optional ``check`` of a unit asserts values the test suite or the issue
tracker states independently of those recorded bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CERT = "{cert}"  # replaced by the unit's certificate path in the work directory
CAP_S = 60.0  # a command still running after this long is killed and fails


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple
    cap_s: float = CAP_S

    @property
    def writes_cert(self) -> bool:
        return self.argv[0] == "gen-cert"


@dataclass(frozen=True)
class Unit:
    commands: tuple
    # check(stdouts) -> list of problems; stdouts maps command id to text
    check: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    slots: dict  # slot name -> tuple of Units
    quick: Unit  # the one small case of --quick


# --- semantic checks ---------------------------------------------------------


def _answer(text):
    """All variants of a slot are isomorphic rings, so they print one value."""

    def check(stdouts):
        return [
            f"{cid}: printed {out!r}, isomorphic variants give {text!r}"
            for cid, out in stdouts.items()
            if out != text
        ]

    return check


# Oracle values (cup + 1) stated by the test suite: cup(rh:2,1, 2) = 3,
# cup(rh:5,4, 2) = 14, cup(rp:2, 2) = 3, cup(rp:2, 3) = 6, and the verified
# 10-factor certificate with the oracle agreeing on cup(rh:4,3, 2) = 10.
# The complex Milnor rings are the real ones with degrees doubled.
STATED_ORACLE = {
    ("rh:2,1", 2): 4,
    ("ch:2,1", 2): 4,
    ("rh:4,3", 2): 11,
    ("ch:4,3", 2): 11,
    ("rh:5,4", 2): 15,
    ("ch:5,4", 2): 15,
    ("rp:2", 2): 4,
    ("rp:2", 3): 7,
}


def check_oracle_table(stdouts):
    """Each report carries one oracle entry, its verifiedLower is at most the
    oracle value, and the stated oracle values hold."""
    problems = []
    for cid, out in stdouts.items():
        try:
            reports = json.loads(out)
        except json.JSONDecodeError as exc:
            problems.append(f"{cid}: stdout is not JSON ({exc})")
            continue
        for rep in reports:
            where = f"{cid}: {rep['space']} n={rep['n']}"
            oracle = [t for t in rep["trace"] if t["rule"] == "ideal-power-oracle"]
            if len(oracle) != 1:
                problems.append(f"{where}: {len(oracle)} oracle entries")
                continue
            value = oracle[0]["value"]
            if rep["verifiedLower"] is None or rep["verifiedLower"] > value:
                problems.append(
                    f"{where}: verifiedLower {rep['verifiedLower']} vs oracle {value}"
                )
            stated = STATED_ORACLE.get((rep["space"], rep["n"]))
            if stated is not None and value != stated:
                problems.append(f"{where}: oracle {value}, stated {stated}")
    return problems


def _contains(cid, *lines):
    def check(stdouts):
        got = stdouts[cid].splitlines()
        return [f"{cid}: missing line {line!r}" for line in lines if line not in got]

    return check


# --- workloads ---------------------------------------------------------------


def _cup(space, n):
    tag = space.replace(":", "").replace(",", ".")
    return Command(f"cup-{tag}-n{n}", ("cup", "--space", space, "--n", str(n)))


ORACLE_LARGE = Workload(
    name="oracle-large",
    slots={
        "milnor-4-2": tuple(
            Unit((_cup(sp, 3),), _answer("15\n")) for sp in ("rh:4,2", "ch:4,2")
        ),
        "product-3-2": tuple(
            Unit((_cup(sp, 3),), _answer("12\n"))
            for sp in ("prod:rp3,rp2", "prod:rp2,rp3", "prod:cp3,cp2")
        ),
    },
    quick=Unit((_cup("rh:3,2", 2),)),
)


def _table(family, r, n, s=None):
    argv = ["table", "--family", family, "--r", r]
    if s is not None:
        argv += ["--s", s]
    argv += ["--n", n, "--use-oracle", "--format", "json"]
    tag = f"table-{family}-r{r}" + (f"-s{s}" if s else "") + f"-n{n}"
    return Command(tag.replace("..", "to"), tuple(argv))


ORACLE_SWEEP = Workload(
    name="oracle-sweep",
    slots={
        # r <= 6 (20 spaces) and m <= 12 (22 reports), cut so that no single
        # command runs much over a second: short commands give the run more
        # samples per slot
        "milnor-r2-5": tuple(
            Unit((_table(fam, "2..5", "2", s="1..5"),), check_oracle_table)
            for fam in ("rh", "ch")
        ),
        "milnor-r6": tuple(
            Unit((_table(fam, "6", "2", s="1..6"),), check_oracle_table)
            for fam in ("rh", "ch")
        ),
        "rp-m2-10": (Unit((_table("rp", "2..10", "2..3"),), check_oracle_table),),
        "rp-m11": (Unit((_table("rp", "11", "2..3"),), check_oracle_table),),
        "rp-m12": (Unit((_table("rp", "12", "2..3"),), check_oracle_table),),
    },
    quick=Unit((_table("rh", "2..3", "2", s="1..3"),), check_oracle_table),
)


def _gen(method, params, n):
    tag = f"gen-{method}-" + params.replace(",", "_") + f"-n{n}"
    argv = ("gen-cert", "--method", method, "--params", params, "--n", str(n),
            "--out", CERT)
    return Command(tag, argv)


def _verify(gen):
    return Command("verify" + gen.id[3:], ("verify", "--cert", CERT))


def _gen_verify(method, params, n, *lines):
    gen = _gen(method, params, n)
    ver = _verify(gen)
    return Unit((gen, ver), _contains(ver.id, *lines) if lines else None)


def _bounds(space, n):
    tag = f"bounds-{space.replace(':', '').replace(',', '.')}-tc-n{n}"
    return Command(tag, ("bounds", "--space", space, "--quantity", "tc", "--n", str(n)))


_RH43 = _bounds("rh:4,3", 2)

CERTIFY = Workload(
    name="certify",
    slots={
        # the exact verifier finds this product zero, against the claimed cup 92
        "r2t-verify": (
            _gen_verify("r2t", "s=5,t=3", 8, "verdict: ProductVanishes"),
        ),
        # the bridging-class search fails (exit 1) at n >= 4; p1=1 and p1=2
        # are different rings (rh:9,2 and rh:9,4)
        "case2-search-p1-2": (Unit((_gen("case2", "p1=2,p2=3", 6),)),),
        "case2-search-p1-1": (Unit((_gen("case2", "p1=1,p2=3", 6),)),),
        "high-n-bounds": tuple(
            Unit((_bounds(sp, 6),)) for sp in ("rh:16,9", "ch:16,9")
        ),
        "case1-verify": (
            _gen_verify("case1", "t1=1,t2=2", 2, "verdict: Verified", "verifiedCup: 10"),
        ),
        "proj-verify-n2": (
            _gen_verify("proj", "t=1", 2, "verdict: Verified", "verifiedCup: 3"),
        ),
        "proj-verify-n3": (
            _gen_verify("proj", "t=1", 3, "verdict: Verified", "verifiedCup: 5"),
        ),
        "rh43-bounds": (
            Unit((_RH43,), _contains(_RH43.id, "| rh:4,3 | 2 | TC | 11 | 13 |")),
        ),
    },
    quick=_gen_verify("proj", "t=1", 2, "verdict: Verified", "verifiedCup: 3"),
)

WORKLOADS = {w.name: w for w in (ORACLE_LARGE, ORACLE_SWEEP, CERTIFY)}


def all_units():
    for w in WORKLOADS.values():
        for units in w.slots.values():
            yield from units
        yield w.quick


class Plan:
    """The units of each pass of one run, fixed by the workload and seed."""

    def __init__(self, workload: Workload, seed: int, quick: bool = False):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        rng = random.Random(f"{workload.name}/{seed}")
        self.orders = {
            slot: rng.sample(units, len(units))
            for slot, units in sorted(workload.slots.items())
        }

    def units(self, index: int) -> list:
        """(slot, unit) pairs of pass ``index``, in the order they run."""
        if self.quick:
            return [("quick", self.workload.quick)]
        chosen = [(slot, order[index % len(order)]) for slot, order in self.orders.items()]
        random.Random(f"{self.workload.name}/{self.seed}/{index}").shuffle(chosen)
        return chosen
