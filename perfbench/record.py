"""Record the expected output of every benchmark command.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs each command of every unit of every workload (quick cases included)
once, untraced, and writes its stdout to ``perfbench/expected/<id>.out``,
the certificate a ``gen-cert`` writes to ``<id>.cert`` and every exit code
to ``exit_codes.json``.  CLI output is byte-deterministic, so these files
change only when a change is meant to change what the CLI prints; re-record
then and review the diff.  Units whose semantic check fails are reported
and make the script exit 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, Runner, child_environment
from workloads import all_units


def main() -> int:
    root = Path.cwd()
    out_dir = HERE / "expected"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir()
    work = root / ".perfbench" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, {}, child_environment(root))
    codes = {}
    bad = 0
    try:
        for unit in all_units():
            outcomes = runner.run_unit(unit, traced=False)
            for cmd, o in zip(unit.commands, outcomes):
                if cmd.id in codes:
                    continue
                codes[cmd.id] = o.exit
                (out_dir / f"{cmd.id}.out").write_bytes(o.stdout)
                if o.cert is not None:
                    (out_dir / f"{cmd.id}.cert").write_bytes(o.cert)
                print(f"{cmd.id}: exit {o.exit}, {o.wall_s:.2f} s", flush=True)
            if unit.check is not None:
                stdouts = {o.id: o.stdout.decode("utf-8", "replace") for o in outcomes}
                for problem in unit.check(stdouts):
                    print(f"CHECK FAILED {problem}")
                    bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out_dir / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
