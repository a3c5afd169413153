"""Golden bytes of `milnortc table --use-oracle`: the eight oracle tables
of the benchmark's ``oracle-sweep`` workload, its quick table included,
run in-process and compared with the stdout recorded under
``perfbench/expected/``.  ``tests/artifacts/report_bytes.json`` covers only
reports without the oracle.

The test reads the workload definitions and the recorded files and never
writes them.  CI runs it a second time under another ``PYTHONHASHSEED``,
since the benchmark pins the seed to 0.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from milnortc.cli import main

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _oracle_tables():
    sweep = _workloads().WORKLOADS["oracle-sweep"]
    units = [u for units in sweep.slots.values() for u in units] + [sweep.quick]
    return [
        cmd
        for unit in units
        for cmd in unit.commands
        if cmd.argv[0] == "table" and "--use-oracle" in cmd.argv
    ]


TABLES = _oracle_tables()


def test_the_sweep_has_eight_oracle_tables():
    assert len(TABLES) == 8
    assert len({cmd.id for cmd in TABLES}) == 8


@pytest.mark.parametrize("cmd", TABLES, ids=[cmd.id for cmd in TABLES])
def test_oracle_table_bytes_match_the_recorded_stdout(cmd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(cmd.argv))
    assert code == 0
    expected = (PERFBENCH / "expected" / f"{cmd.id}.out").read_bytes()
    assert out.getvalue().encode("utf-8") == expected
