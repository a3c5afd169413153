"""Self-test of the benchmark itself (not of milnortc).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks, on the quick case of each workload, that a run prints every metric
of BENCHMARK.json by name and unit; that tracer self times sum to no more
than the traced wall time; that a wrong expected output is caught; that a
command over its time cap is killed and counted as failed; that a directory
without the program makes the benchmark exit non-zero without a result; and
that compare.py refuses results from different environments.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from run import BENCHMARK, HERE, Runner, child_environment, load_expected
from workloads import Command, WORKLOADS

ROOT = Path.cwd()
TMP = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def check_result(result, spec, what):
    expect(
        result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{what}: last line holds exactly correct/attempted/failed/metrics",
    )
    if result is None:
        return
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{what}: every metric printed with its unit")
    expect(result["correct"] and result["failed"] == 0, f"{what}: all outputs correct")


def main() -> int:
    TMP.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            common = ["--workload", name, "--seed", "1", "--seconds", "1", "--quick"]
            _, result = bench(*common, "--trace", "0")
            check_result(result, BENCHMARK["end_to_end"], f"{name} untraced")
            out = TMP / f"{name}.json"
            _, result = bench(*common, "--trace", "1", "--out", str(out))
            check_result(result, BENCHMARK["per_layer"], f"{name} traced")
            doc = json.loads(out.read_text(encoding="utf-8"))
            expect(
                all(p["self_sum_s"] <= p["wall_s"] for p in doc["traced_passes"]),
                f"{name} traced: span self times sum to at most wall_s",
            )
            if name == "certify":
                expect(result["metrics"]["gf2.matmul.calls"]["value"] == 0,
                       "certify traced: no gf2.matmul calls")

        work = TMP / "work"
        work.mkdir()
        expected = load_expected(HERE / "expected")
        env = child_environment(ROOT)

        # a wrong expected output is caught
        quick = WORKLOADS["oracle-large"].quick
        cid = quick.commands[0].id
        tampered = dict(expected)
        tampered[cid] = replace(expected[cid], stdout=expected[cid].stdout + b"0\n")
        outcomes = Runner(work, tampered, env).run_unit(quick, traced=False)
        expect(any(o.problems for o in outcomes),
               "a wrong expected stdout makes the run incorrect")

        # a command over its cap is killed and fails
        runner = Runner(work, expected, env)
        slow = Command("cup-rh4.2-n3", ("cup", "--space", "rh:4,2", "--n", "3"), 0.5)
        t0 = time.monotonic()
        outcome = runner.run_command(slow, traced=False)
        expect(outcome.exit is None and outcome.problems and time.monotonic() - t0 < 10,
               "a command over its time cap is killed and counted as failed")

        # without the program, the benchmark refuses to run
        bare = TMP / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and result is None,
               "a directory without src/ exits non-zero and prints no result")

        # results from another environment are refused
        a = json.loads((TMP / "certify.json").read_text(encoding="utf-8"))
        b = dict(a, environment=dict(a["environment"], backend="other"))
        (TMP / "b.json").write_text(json.dumps(b), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(TMP / "certify.json"),
             str(TMP / "b.json")], capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode == 2, "compare.py refuses a different backend")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
