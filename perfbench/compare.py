"""Compare two sets of benchmark results.

    python3 perfbench/compare.py perfbench/baseline/results.jsonl perfbench/out/results.jsonl

Each file holds `record` lines as run.py appends them. Records are grouped
by workload and mode; tiny self-test records are skipped. Two groups are
compared only when their environments match (nproc, Python, numpy, BLAS
library and thread count) and they ran for the same --seconds; otherwise the
script names the difference and exits 1. For each metric it prints both
medians with quartiles and the change in the metric's worse direction as a
share of the first median. A bounded metric reads "worse" beyond its bound,
"unresolved" when the first set's own quartile spread exceeds the bound, and
"ok" otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads")


def load(path: str) -> dict:
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if not record["tiny"]:
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def setting(record: dict) -> tuple[dict, float]:
    return {k: record["env"][k] for k in ENV_KEYS}, record["seconds"]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    old, new = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if any(setting(r) != setting(a[0]) for r in a + b):
            print(f"{key}: environments or run lengths differ, not compared: "
                  f"{sorted({json.dumps(setting(r)) for r in a + b})}")
            status = 1
            continue
        print(f"== {key[0]} trace={key[1]}: {len(a)} vs {len(b)} runs")
        for name in a[0]["metrics"]:
            if name not in b[0]["metrics"]:
                print(f"{name:48s} missing in the second set")
                continue
            q1a, ma, q3a = summary([r["metrics"][name]["value"] for r in a])
            q1b, mb, q3b = summary([r["metrics"][name]["value"] for r in b])
            spec = specs.get(name, {})
            sign = 1.0 if spec.get("better", "lower") == "lower" else -1.0
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                spread = (q3a - q1a) / abs(ma) if ma else 0.0
                verdict = ("unresolved" if spread > bound else
                           "worse" if worse > bound else "ok")
            print(f"{name:48s} {ma:12.6g} [{q1a:.4g}, {q3a:.4g}]  {mb:12.6g} "
                  f"[{q1b:.4g}, {q3b:.4g}]  worse by {worse:+.3f} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
