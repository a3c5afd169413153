"""End-to-end benchmark of the milnortc CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oracle-large --seed 1 --seconds 40 --trace 0

Each command of a workload runs in a fresh interpreter with PYTHONPATH=src,
one at a time in a closed loop (the next command starts when the previous
one has exited).  The run repeats passes over the workload (see
``workloads.py``) until the next pass would end after ``--seconds``, with at
least one pass.  Every stdout, certificate file and exit code is compared
byte for byte with ``perfbench/expected``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` is the pass time
with each slot at its median over the run, measured in runs of a reference
task (see ``REFERENCE_WALL_S``); ``setup_s`` the median over passes of the
pass's interpreter start and import time, scaled by the reference task's
set-up time; ``peak_rss_mb`` is the largest resident set of any command.
``--trace 1`` runs every pass twice, untraced and then under
``tracer.py``, and reports the per-layer metrics, medians over the traced
passes; ``trace.overhead_s`` is the traced minus the untraced pass time.
The traced run also writes the per-function table and the GF(2)
kernel-shape census to ``.perfbench/census-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CAP_S, CERT, WORKLOADS, Plan

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
THREADS = 1  # BLAS/OpenMP threads of every child; nproc here is 2

# About the wall and set-up time of calibrate.py on the 2-core VM the
# benchmark was written on, in a quiet period.  Other tenants of a shared
# host slow its CPU by up to 60-90% for seconds to many minutes at a time,
# which moves a median over ten runs by more than any bound.  So each unit's
# wall time is divided by the mean time of the reference task run just
# before and just after it, where the host's speed was the same; wall_s is
# REFERENCE_WALL_S times the sum over slots of that ratio's median, and
# reads in seconds of that host at that speed.  setup_s is scaled by
# REFERENCE_SETUP_S over the reference task's median set-up time in the run.
REFERENCE_WALL_S = 0.31
REFERENCE_SETUP_S = 0.10


# --- environment -------------------------------------------------------------

_PROBE = """
import json, platform
import numpy
import milnortc.cli
from milnortc import gf2
blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "backend": gf2.BACKEND,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""

# keys that must agree before two results may be compared
COMPARABLE = ("backend", "python", "numpy", "blas", "nproc", "threads", "hash_seed")


def child_environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def probe_environment(root: Path, env: dict) -> dict:
    """Imports milnortc.cli once in a child (which also fills the bytecode
    cache before anything is timed) and records what results depend on."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=root, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    info = json.loads(out.stdout)
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        threads=THREADS,
        hash_seed=env["PYTHONHASHSEED"],
        commit=git_commit(root),
        source_sha256=source_digest(root),
    )
    return info


# --- expected outputs --------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    exit: int
    stdout: bytes
    cert: bytes | None


def load_expected(directory: Path) -> dict:
    codes = json.loads((directory / "exit_codes.json").read_text(encoding="utf-8"))
    out = {}
    for cid, code in codes.items():
        cert = directory / f"{cid}.cert"
        out[cid] = Expected(
            code,
            (directory / f"{cid}.out").read_bytes(),
            cert.read_bytes() if cert.exists() else None,
        )
    return out


# --- running commands --------------------------------------------------------


@dataclass
class Outcome:
    id: str
    wall_s: float
    setup_s: float | None  # None when main() was never entered
    rss_mb: float
    exit: int | None  # None when killed at the cap
    stdout: bytes
    cert: bytes | None
    problems: list = field(default_factory=list)
    trace: dict | None = None

    def record(self) -> dict:
        return {
            "id": self.id,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "rss_mb": self.rss_mb,
            "exit": self.exit,
            "problems": self.problems,
        }


def wait_capped(proc: subprocess.Popen, cap_s: float):
    """Block until the child exits; SIGKILL it at ``cap_s``.  Returns the
    child's rusage and whether it was killed."""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}

    def kill():
        with lock:
            if not state["reaped"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(cap_s, kill)
    timer.daemon = True
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    with lock:
        state["reaped"] = True
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, state["killed"]


class Runner:
    def __init__(self, work: Path, expected: dict, env: dict):
        self.work = work
        self.expected = expected
        self.env = env
        self.cert = work / "cert.json"

    def _spawn(self, script: str, args: list, cap_s: float):
        """Runs ``script MARK args`` in a fresh interpreter.  Returns wall
        time, set-up time (to the mark), rusage, exit code (None when killed
        at the cap) and stdout."""
        mark = self.work / "mark"
        mark.unlink(missing_ok=True)
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / script), str(mark), *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.work,
                env=self.env,
            )
            usage, killed = wait_capped(proc, cap_s)
            t1 = time.monotonic_ns()
        setup = (int(mark.read_text()) - t0) / 1e9 if mark.exists() else None
        code = None if killed else proc.returncode
        return (t1 - t0) / 1e9, setup, usage, code, out_path.read_bytes()

    def run_command(self, cmd, traced: bool) -> Outcome:
        trace_file = self.work / "trace.json"
        trace_file.unlink(missing_ok=True)
        argv = [a.replace(CERT, str(self.cert)) for a in cmd.argv]
        if traced:
            spawned = self._spawn("tracer.py", [str(trace_file), *argv], cmd.cap_s)
        else:
            spawned = self._spawn("launch.py", argv, cmd.cap_s)
        wall, setup, usage, code, stdout = spawned
        cert = self.cert.read_bytes() if cmd.writes_cert and self.cert.exists() else None
        outcome = Outcome(cmd.id, wall, setup, usage.ru_maxrss / 1024.0, code, stdout, cert)
        if traced and trace_file.exists():
            outcome.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        self._compare(cmd, outcome)
        return outcome

    def run_calibration(self) -> tuple:
        """(wall, set-up) seconds of one run of the reference task."""
        wall, setup, _, code, _ = self._spawn("calibrate.py", [], CAP_S)
        if code != 0 or setup is None:
            raise RuntimeError(f"reference task failed with exit code {code}")
        return wall, setup

    def _compare(self, cmd, outcome: Outcome):
        exp = self.expected.get(cmd.id)
        problems = outcome.problems
        if exp is None:
            problems.append("no expected output recorded")
            return
        if outcome.exit is None:
            problems.append(f"killed at its {cmd.cap_s:g} s cap")
            return
        if outcome.exit != exp.exit:
            what = " (resource limit)" if outcome.exit == 3 else ""
            problems.append(f"exit {outcome.exit}{what}, expected {exp.exit}")
        if outcome.stdout != exp.stdout:
            problems.append("stdout differs from the expected bytes")
        if outcome.cert != exp.cert:
            problems.append("certificate file differs from the expected bytes")

    def run_unit(self, unit, traced: bool) -> list:
        self.cert.unlink(missing_ok=True)
        outcomes = [self.run_command(cmd, traced) for cmd in unit.commands]
        if unit.check is not None and not any(o.problems for o in outcomes):
            stdouts = {o.id: o.stdout.decode("utf-8", "replace") for o in outcomes}
            outcomes[-1].problems.extend(unit.check(stdouts))
        return outcomes

    def run_pass(self, units, traced: bool) -> "Pass":
        """Runs one unit of every slot.  An untraced pass also runs the
        reference task before each unit and after the last one, so that
        every unit lies between two runs of it."""
        done, refs = [], []
        for slot, unit in units:
            if not traced:
                refs.append(self.run_calibration())
            done.append((slot, self.run_unit(unit, traced)))
        if not traced:
            refs.append(self.run_calibration())
        return Pass(done, refs)


@dataclass
class Pass:
    units: list  # (slot, outcomes of the unit's commands)
    refs: list  # (wall, set-up) of the reference task around the units

    @property
    def outcomes(self) -> list:
        return [o for _, outcomes in self.units for o in outcomes]

    @property
    def slot_wall_s(self) -> dict:
        return {slot: sum(o.wall_s for o in outcomes) for slot, outcomes in self.units}

    @property
    def slot_ratio(self) -> dict:
        """Each slot's wall time over the mean wall time of the reference
        task just before and just after it."""
        return {
            slot: sum(o.wall_s for o in outcomes) / ((self.refs[i][0] + self.refs[i + 1][0]) / 2)
            for i, (slot, outcomes) in enumerate(self.units)
        }

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def setup_s(self) -> float:
        return sum(o.setup_s for o in self.outcomes if o.setup_s is not None)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)

    def record(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "commands": [o.record() for o in self.outcomes],
            "reference_task": [{"wall_s": w, "setup_s": s} for w, s in self.refs],
        }


# --- per-layer metrics -------------------------------------------------------


def merge_traces(outcomes) -> dict:
    """Sums the traces of several commands into one."""
    merged = {"functions": {}, "counts": {}, "max_slice_dim": 0, "census": {}}
    for o in outcomes:
        t = o.trace
        if t is None:
            continue
        for name, f in t["functions"].items():
            acc = merged["functions"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += f[k]
        for name, v in t["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + v
        merged["max_slice_dim"] = max(merged["max_slice_dim"], t["max_slice_dim"])
        merge_census(merged["census"], t["census"])
    return merged


def merge_census(into: dict, census: dict):
    for kernel, table in census.items():
        dst = into.setdefault(kernel, {})
        for shape, row in table.items():
            if shape in dst:
                dst[shape] = [a + b for a, b in zip(dst[shape], row)]
            else:
                dst[shape] = list(row)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, output_bytes: int, overhead_s: float) -> dict:
    fns, counts = trace["functions"], trace["counts"]

    def fn(name, key):
        return fns.get(name, {}).get(key, 0)

    def module_self(module):
        return sum(f["self_s"] for n, f in fns.items() if n.startswith(module + "."))

    mono_calls = counts.get("f2algebra.mono_mul.calls", 0)
    mono_hits = mono_calls - counts.get("f2algebra.mono_mul.misses", 0)
    values = {
        "gf2.matmul.calls": fn("gf2.matmul", "calls"),
        "gf2.matmul.self_s": fn("gf2.matmul", "self_s"),
        "gf2.matmul.bit_ops": counts.get("gf2.matmul.bit_ops", 0),
        "gf2.matmul.bytes": counts.get("gf2.matmul.bytes", 0),
        "gf2.row_space.calls": fn("gf2.row_space", "calls"),
        "gf2.row_space.self_s": fn("gf2.row_space", "self_s"),
        "gf2.row_space.cells": counts.get("gf2.row_space.cells", 0),
        "gf2.nullspace.self_s": fn("gf2.nullspace", "self_s"),
        "tensorpower.kernel_basis.calls": fn("tensorpower.kernel_basis", "calls"),
        "tensorpower.kernel_basis.self_s": fn("tensorpower.kernel_basis", "self_s"),
        "tensorpower.max_slice_dim": trace["max_slice_dim"],
        "tensorpower.tensor_slice.self_s": fn("tensorpower.tensor_slice", "self_s"),
        "tensorpower.t_multiply.calls": fn("tensorpower.t_multiply", "calls"),
        "tensorpower.t_multiply.self_s": fn("tensorpower.t_multiply", "self_s"),
        "cuplength.cup_exact.calls": fn("cuplength.cup_exact", "calls"),
        "cuplength.cup_exact.self_s": fn("cuplength.cup_exact", "self_s"),
        "cuplength.cup_exact.cache_hit_ratio": _ratio(
            counts.get("cuplength.cup_exact.cache_hits", 0), fn("cuplength.cup_exact", "calls")
        ),
        "cuplength.ideal_power_steps": counts.get("cuplength.ideal_power_steps", 0),
        "cuplength.verify_certificate.calls": fn("cuplength.verify_certificate", "calls"),
        "cuplength.verify_certificate.self_s": fn("cuplength.verify_certificate", "self_s"),
        "spaces.cohomology_of.self_s": fn("spaces.cohomology_of", "self_s"),
        "f2algebra.mono_mul.calls": mono_calls,
        "f2algebra.mono_mul.hit_ratio": _ratio(mono_hits, mono_calls),
        "f2algebra.reduce.calls": counts.get("f2algebra.reduce.calls", 0),
        "exprs.evaluate.self_s": fn("exprs.evaluate", "self_s"),
        "exprs.parse_factor_expr.self_s": fn("exprs.parse_factor_expr", "self_s"),
        "certgen.self_s": module_self("certgen"),
        "certgen.search_attempts": counts.get("certgen.search_attempts", 0),
        "certgen.search_hit_ratio": _ratio(
            counts.get("certgen.search_hits", 0), counts.get("certgen.search_attempts", 0)
        ),
        "bounds.self_s": module_self("bounds"),
        "bounds.cat_bounds.calls": fn("bounds.cat_bounds", "calls"),
        "bounds.cert_verifications": counts.get("bounds.cert_verifications", 0),
        "bounds.cert_verified_ratio": _ratio(
            counts.get("bounds.cert_verified", 0), counts.get("bounds.cert_verifications", 0)
        ),
        "cli.self_s": module_self("cli"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead_s,
    }
    return values


# --- the run -----------------------------------------------------------------


def sum_of_slot_medians(per_pass: list) -> float:
    """Sum over slots of each slot's median over the passes; ``per_pass``
    holds one {slot: value} dict per pass.  The units of one slot do the
    same work on isomorphic inputs (see ``workloads.py``), so every
    computation of the workload enters the sum."""
    values: dict = {}
    for row in per_pass:
        for slot, v in row.items():
            values.setdefault(slot, []).append(v)
    return sum(statistics.median(v) for v in values.values())


def run(args, root: Path, expected: dict, env: dict, environment: dict) -> dict:
    plan = Plan(WORKLOADS[args.workload], args.seed, quick=args.quick)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, expected, env)
    plain, traced = [], []
    durations = []
    try:
        start = time.monotonic()
        index = 0
        while True:
            units = plan.units(index)
            t = time.monotonic()
            plain.append(runner.run_pass(units, traced=False))
            if args.trace:
                traced.append(runner.run_pass(units, traced=True))
            durations.append(time.monotonic() - t)
            index += 1
            elapsed = time.monotonic() - start
            if args.quick or elapsed + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "environment": environment,
        "attempted": attempted,
        "failed": failed,
        "passes": [p.record() for p in plain],
    }
    if args.trace:
        rows = []
        result["traced_passes"] = []
        for untraced, p in zip(plain, traced):
            merged = merge_traces(p.outcomes)
            output_bytes = sum(len(o.stdout) + len(o.cert or b"") for o in p.outcomes)
            rows.append(layer_metrics(merged, output_bytes, p.wall_s - untraced.wall_s))
            result["traced_passes"].append({
                "wall_s": p.wall_s,
                "self_sum_s": sum(f["self_s"] for f in merged["functions"].values()),
                "commands": [o.record() for o in p.outcomes],
            })
        result["metrics"] = {
            m["name"]: {"value": statistics.median(r[m["name"]] for r in rows), "unit": m["unit"]}
            for m in BENCHMARK["per_layer"]
        }
        whole = merge_traces([o for p in traced for o in p.outcomes])
        result["functions"] = whole["functions"]
        result["census"] = whole["census"]
    else:
        refs = [r for p in plain for r in p.refs]
        cal_setup = statistics.median(s for _, s in refs)
        raw = {
            "wall_s": sum_of_slot_medians([p.slot_wall_s for p in plain]),
            "setup_s": statistics.median(p.setup_s for p in plain),
        }
        result["raw"] = raw
        result["reference_task"] = {
            "wall_s": statistics.median(w for w, _ in refs), "setup_s": cal_setup,
        }
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        values = {
            "wall_s": REFERENCE_WALL_S * sum_of_slot_medians([p.slot_ratio for p in plain]),
            "setup_s": raw["setup_s"] * REFERENCE_SETUP_S / cal_setup,
            "peak_rss_mb": max(p.rss_mb for p in plain),
        }
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result


def _terminate(signum, frame):
    # unwinds through wait_capped, which kills and reaps the running child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of the workload's single small case")
    parser.add_argument("--out", help="also write the full result (passes, "
                        "environment, per-function table, census) to this file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "milnortc" / "cli.py").is_file():
        print(f"error: {root} holds no src/milnortc/cli.py; run from the root of "
              "a milnortc checkout", file=sys.stderr)
        return 2
    try:
        expected = load_expected(HERE / "expected")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load expected outputs: {exc}", file=sys.stderr)
        return 2
    env = child_environment(root)
    try:
        environment = probe_environment(root, env)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: cannot import milnortc from {root / 'src'}: {exc}", file=sys.stderr)
        return 2

    result = run(args, root, expected, env, environment)
    metrics = result["metrics"]

    if args.trace:
        (root / ".perfbench").mkdir(exist_ok=True)
        census_path = root / ".perfbench" / f"census-{args.workload}-seed{args.seed}.json"
        census_path.write_text(
            json.dumps({k: result[k] for k in ("workload", "seed", "environment",
                                               "functions", "census")}, indent=1),
            encoding="utf-8",
        )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    if "raw" in result:
        ref = result["reference_task"]
        print(f"unscaled: wall_s {result['raw']['wall_s']:.6g} s, setup_s "
              f"{result['raw']['setup_s']:.6g} s; reference task {ref['wall_s']:.6g} s, "
              f"set-up {ref['setup_s']:.6g} s")
    env_line = {k: environment[k] for k in COMPARABLE}
    print(f"environment: {json.dumps(env_line, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(result['passes'])} passes, "
          f"{result['attempted']} commands")
    all_passes = result["passes"] + result.get("traced_passes", [])
    for o in (o for p in all_passes for o in p["commands"] if o["problems"]):
        print(f"FAILED {o['id']}: {'; '.join(o['problems'])}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':40s} {failed_frac:.6g} 1")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
