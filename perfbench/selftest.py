"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For each workload and both modes it runs run.py once with --tiny and asserts
that the last line has exactly the contract keys, that the run is correct,
and that every metric BENCHMARK.json declares is present with its declared
unit, in the last line and in the record; the record also carries the
record-only end-to-end metrics. It then forces output mismatches (a
retrieval that returns the wrong anchor, a checkpoint that loads back
altered) and asserts that failed_op_share rises above zero and the run is
reported as not correct. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170
# End-to-end metrics every record carries besides those BENCHMARK.json
# bounds: failed_op_share is 0 when the outputs are right, the quality guards
# vary between seeds, and the query p99 between runs on a shared machine, by
# more than any bound allows.
RECORD_ONLY = {"final_loss": "loss", "eval_error": "error", "retrieve_p99_ms": "ms",
               "failed_op_share": "ratio"}

# Applied in the child before run.main: the library answers wrongly, the
# benchmark's checks must notice.
FAULTS = """
import dataclasses, sys
sys.path[:0] = [{src!r}, {here!r}]
from motionctx import fileio, prompting
real_retrieve, real_load = prompting.retrieve_prompt, fileio.load_checkpoint

def wrong_anchor(query, anchors, domain_filter=None):
    prompt = real_retrieve(query, anchors, domain_filter)
    return dataclasses.replace(prompt, index=(prompt.index + 1) % len(anchors))

def altered_checkpoint(path):
    params, meta = real_load(path)
    name = sorted(params.tensors)[0]
    params.replace(name, params.tensors[name].array + 1.0)
    return params, meta

prompting.retrieve_prompt = wrong_anchor
fileio.load_checkpoint = altered_checkpoint
import run
sys.exit(run.main({argv!r}))
"""


def run(argv: list[str], faults: bool = False) -> tuple[dict, dict]:
    """Runs one tiny benchmark process; returns the record and the result line."""
    if faults:
        code = FAULTS.format(src=os.path.join(ROOT, "src"), here=HERE, argv=argv)
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), *argv]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
                          check=False)
    assert done.returncode == 0, f"{argv} exited {done.returncode}:\n{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            record, result = run(argv)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
                record["notes"]
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(got) ^ set(want))}"
            extra = RECORD_ONLY if trace == 0 else {}
            recorded = {k: v["unit"] for k, v in record["metrics"].items()}
            assert recorded == {**want, **extra}, sorted(set(recorded) ^ set(want) ^ set(extra))
            if trace == 0:
                assert record["metrics"]["failed_op_share"]["value"] == 0.0
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics")

        record, result = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--tiny"], faults=True)
        share = record["metrics"]["failed_op_share"]["value"]
        assert share > 0 and not result["correct"] and result["failed"] > 0, record["notes"]
        assert any("retrieval" in n for n in record["notes"]), record["notes"]
        assert any("file round trips" in n for n in record["notes"]), record["notes"]
        print(f"ok: {workload} forced mismatches: failed_op_share {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
