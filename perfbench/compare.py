"""Compare two benchmark results.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Each file is a ``BENCH_<tag>.json`` written by ``baseline.py`` or a single
run written by ``run.py --out``.  Results measured under a different GF(2)
backend, Python, numpy, BLAS, core count, thread pinning or hash seed are
refused (exit 2): their numbers are not comparable.  Otherwise prints, per
workload and metric, both values and the relative change.
"""

from __future__ import annotations

import json
import sys

from run import COMPARABLE


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "workloads" in doc:
        per = {
            w: {**r.get("end_to_end", {}), **r.get("per_layer", {})}
            for w, r in doc["workloads"].items()
        }
    else:
        per = {doc["workload"]: doc["metrics"]}
    return doc["environment"], per


def mismatches(env_a: dict, env_b: dict) -> list:
    return [
        f"{k}: {env_a.get(k)!r} vs {env_b.get(k)!r}"
        for k in COMPARABLE
        if env_a.get(k) != env_b.get(k)
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env_a, base = load(argv[0])
    env_b, new = load(argv[1])
    diff = mismatches(env_a, env_b)
    if diff:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for line in diff:
            print(f"  {line}", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}:")
        for name, m in base[workload].items():
            if name not in new[workload]:
                continue
            a, b = m["value"], new[workload][name]["value"]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:40s} {a:12.6g} {b:12.6g} {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
