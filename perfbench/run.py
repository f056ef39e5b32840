"""motionctx benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 25 --trace 0

Workloads and their sizes are in bench.py; BENCHMARK.json names the metrics.
With --trace 0 the run alternates set-up and timed passes with tracing off
and reports the end-to-end metrics. With --trace 1 it sets up once under the
tracer and runs three passes: untraced to warm up, traced, and untraced
again. It reports the per-layer metrics of the traced pass, and
trace_overhead_share (traced over the last untraced pass's wall time, minus
one); its spans go to perfbench/out/.

stdout ends with a `record` line (environment and every metric the run
computed) and then one JSON object with exactly the keys correct, attempted,
failed and metrics, where metrics holds the names BENCHMARK.json declares for
the mode. The record is also appended to perfbench/out/results.jsonl.
Without the package sources under src/ the run exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine the paper-size step ran 7% faster than
# with two, and a second thread makes every GEMM wait on the busier core.
BLAS_THREADS = 1


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny counts of the same workload (self-test only)")
    return ap.parse_args(argv)


def environment(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=60, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "motionctx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, bench, spans) -> tuple[dict, object]:
    """Runs the workload; returns every computed metric and the Checks."""
    sizes = (bench.TINY if args.tiny else bench.WORKLOADS)[args.workload]
    checks = bench.Checks()
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    queries = bench.held_out_queries(sizes, args.seed)
    if not args.trace:
        passes, setup_times, sps_times = bench.timed_phase(sizes, args.seed, args.seconds,
                                                           queries, work_dir, checks)
        return bench.end_to_end(sizes, setup_times, sps_times, passes, checks), checks

    # Set up once under the tracer; then an untraced pass that warms every
    # phase, the traced pass, and the untraced pass it is compared with.
    steps = bench.train_steps(sizes, args.seconds)
    tracer = spans.Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    with tracer.patched():
        setup = bench.set_up(sizes, args.seed)
    warm = bench.replay(sizes, args.seed, setup)
    first = bench.timed_pass(sizes, args.seed, steps, setup, queries, work_dir, checks)
    with tracer.patched():
        traced = bench.timed_pass(sizes, args.seed, steps, setup, queries, work_dir, checks)
    plain = bench.timed_pass(sizes, args.seed, steps, setup, queries, work_dir, checks)
    bench.check_repeats(warm, [first, traced, plain], checks)
    metrics = spans.layer_metrics(tracer, steps=steps, samples=steps * sizes.batch)
    metrics["trace_overhead_share"] = (traced.wall / plain.wall - 1.0, "ratio")
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics, checks


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(SRC, "motionctx", "__init__.py")):
        print(f"error: no motionctx package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    # numpy reads these when it is first imported.
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import bench
    import spans

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    metrics, checks = measure(args, bench, spans)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for note in checks.notes:
        print(f"check failed: {note}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment(threads),
              "attempted": checks.attempted, "failed": checks.failed, "notes": checks.notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))

    result = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"metric {entry['name']} is in {unit}, "
                             f"BENCHMARK.json declares {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
