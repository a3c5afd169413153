"""Write a ``BENCH_<tag>.json`` from one untraced and one traced run per workload.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py TAG [--seed N] [--seconds S]

The file holds the environment, the end-to-end metrics of the untraced run,
the per-layer metrics of the traced run and the kernel-shape census of each
workload.  Compare two such files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import BENCHMARK, HERE
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args()

    root = Path.cwd()
    scratch = root / ".perfbench" / f"baseline-{os.getpid()}.json"
    scratch.parent.mkdir(exist_ok=True)
    doc = {"tag": args.tag, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    try:
        for name in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace), "--out", str(scratch)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                result = json.loads(scratch.read_text(encoding="utf-8"))
                if result["failed"]:
                    print(f"{name}: {result['failed']} commands failed", file=sys.stderr)
                    return 1
                doc["environment"] = result["environment"]
                if trace:
                    entry["per_layer"] = result["metrics"]
                    entry["census"] = result["census"]
                else:
                    entry["end_to_end"] = result["metrics"]
                    entry["passes"] = len(result["passes"])
            doc["workloads"][name] = entry
    finally:
        scratch.unlink(missing_ok=True)
    out = HERE / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
