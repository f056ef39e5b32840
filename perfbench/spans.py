"""Outside-in spans for the traced benchmark run.

`Tracer.patched()` replaces library functions with timing wrappers at the
names their callers look them up by (a module global such as
`training.forward`, or a class attribute such as `nd.Tape.grad`), and puts
the originals back on exit. No file of the library changes. Each wrapper
appends one span (name, start, end, parent span index, run id); spans stay in
memory until `write()`. A span's self time is its duration minus the time its
child spans cover. Besides spans the tracer keeps a few counters that are
read off the arguments or results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import tracemalloc
from collections import defaultdict

from motionctx import fileio, network, nd, prompting, synth, training

LEVELS = ("attention", "graph", "ssm")
VIEWS = ("temporal", "spatial")
IO_CALLS = tuple(f"{op}_{kind}" for kind in ("dataset", "anchors", "checkpoint")
                 for op in ("save", "load"))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []       # [name, start, end, parent]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sps_rows: list[int] = []     # rows scored per similarity call in sps_sample

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(*args, **kwargs)
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def _count_records(self, _out, tape, *_args, **_kwargs):
        self.counters["nd.tape_records"] += len(tape)

    # The `after` hooks run once the callee's span is closed, so the current
    # span is the caller's.
    def _count_stacked(self, out, *_args, **_kwargs):
        self.counters[f"{self._current()}.stacked_bytes"] += out.nbytes

    def _count_rows(self, _out, stacked, *_args, **_kwargs):
        # _sims_to_one(stacked, one): one similarity per row of `stacked`.
        if self._current() == "prompting.sps_sample":
            self.sps_rows.append(stacked.shape[0])

    def _count_file(self, call):
        def after(_out, path, *_args, **_kwargs):
            self.counters[f"fileio.{call}.bytes"] += os.path.getsize(path)
        return after

    def _memory_peak(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters["prompting.cluster_sample.peak_bytes"] = max(
                    self.counters["prompting.cluster_sample.peak_bytes"], peak)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every original attribute on exit."""
        w = self._wrap
        retrieve = w(prompting.retrieve_prompt, "prompting.retrieve_prompt")
        plan = [
            (synth, "make_dataset", w(synth.make_dataset, "synth.make_dataset")),
            (training, "anchor_corpus", w(training.anchor_corpus, "training.anchor_corpus")),
            (training, "derive_task", w(training.derive_task, "motion.derive_task")),
            (prompting, "sps_sample", w(prompting.sps_sample, "prompting.sps_sample")),
            (prompting, "cluster_sample",
             self._memory_peak(w(prompting.cluster_sample, "prompting.cluster_sample"))),
            (prompting, "_sims_to_one",
             w(prompting._sims_to_one, "prompting._sims_to_one", after=self._count_rows)),
            (prompting.AnchorSet, "stacked_inputs",
             w(prompting.AnchorSet.stacked_inputs, "prompting.AnchorSet.stacked_inputs",
               after=self._count_stacked)),
            (prompting, "retrieve_prompt", retrieve),
            (training, "retrieve_prompt", retrieve),
            (network, "init_params", w(network.init_params, "network.init_params")),
            (training, "train", w(training.train, "training.train")),
            (training, "build_batch", w(training.build_batch, "training.build_batch")),
            (training, "train_step", w(training.train_step, "training.train_step")),
            (training, "evaluate", w(training.evaluate, "training.evaluate")),
            (training, "soft_anchor_value",
             w(training.soft_anchor_value, "prompting.soft_anchor_value")),
            (training, "forward", w(training.forward, "network.forward")),
            (training, "loss", w(training.loss, "network.loss")),
            (training, "mpjpe", w(training.mpjpe, "network.mpjpe")),
            (training, "mean_param_error",
             w(training.mean_param_error, "network.mean_param_error")),
            (training.AdamWState, "update",
             w(training.AdamWState.update, "training.AdamWState.update")),
            (nd.Tape, "grad", w(nd.Tape.grad, "nd.Tape.grad", after=self._count_records)),
            (network, "encode_context", w(network.encode_context, "network.encode_context")),
            (network, "xfusion_block", w(network.xfusion_block, "network.xfusion_block")),
            (network, "aggregate_level",
             w(network.aggregate_level, "network.aggregate_level",
               name_of=lambda h, level, view, *a, **k: f"network.aggregate_level.{level}.{view}")),
            (network, "cross_level_update",
             w(network.cross_level_update, "network.cross_level_update")),
            (network, "context_inject", w(network.context_inject, "network.context_inject")),
        ]
        for call in IO_CALLS:
            plan.append((fileio, call, w(getattr(fileio, call), f"fileio.{call}",
                                         after=self._count_file(call))))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
        try:
            for owner, attr, replacement in plan:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child = self._child_time()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return incl, own, calls

    def covered_share(self, root: str) -> float:
        """Share of the time inside `root` spans that their child spans cover."""
        child = self._child_time()
        total = covered = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == root:
                total += end - start
                covered += child[i]
        return covered / total if total else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": self.run_id}) + "\n")


def layer_metrics(tracer: Tracer, steps: int, samples: int) -> dict[str, tuple[float, str]]:
    """The per-layer table: metric name -> (value, unit). `steps` and
    `samples` are the training steps and samples the traced run made."""
    incl, own, calls = tracer.totals()
    c = tracer.counters
    ms = lambda name: incl.get(name, 0.0) * 1e3
    out: dict[str, tuple[float, str]] = {}
    out["nd.tape_records_per_sample"] = (c["nd.tape_records"] / samples if samples else 0.0,
                                         "count")
    out["nd.Tape.grad.ms_per_step"] = (ms("nd.Tape.grad") / steps if steps else 0.0, "ms")
    for level in LEVELS:
        for view in VIEWS:
            name = f"network.aggregate_level.{level}.{view}"
            out[f"{name}.ms"] = (ms(name), "ms")
    out["network.cross_level_update.ms"] = (ms("network.cross_level_update"), "ms")
    out["network.xfusion_block.self_ms"] = (own.get("network.xfusion_block", 0.0) * 1e3, "ms")
    out["network.encode_context.ms"] = (ms("network.encode_context"), "ms")
    out["network.forward.self_ms"] = (own.get("network.forward", 0.0) * 1e3, "ms")
    out["network.loss.ms"] = (ms("network.loss"), "ms")
    out["training.AdamWState.update.ms"] = (ms("training.AdamWState.update"), "ms")
    out["training.train_step.self_ms"] = (own.get("training.train_step", 0.0) * 1e3, "ms")
    out["training.build_batch.self_ms"] = (own.get("training.build_batch", 0.0) * 1e3, "ms")
    out["training.evaluate.self_s"] = (own.get("training.evaluate", 0.0), "s")
    out["training.train.covered_share"] = (tracer.covered_share("training.train"), "ratio")
    out["prompting.retrieve_prompt.ms"] = (ms("prompting.retrieve_prompt"), "ms")
    out["prompting.retrieve_prompt.calls"] = (float(calls.get("prompting.retrieve_prompt", 0)),
                                              "count")
    out["prompting.retrieve_prompt.stacked_MB"] = (
        c["prompting.retrieve_prompt.stacked_bytes"] / 1e6, "MB")
    out["prompting.sps_sample.s"] = (incl.get("prompting.sps_sample", 0.0), "s")
    # A scored member is useful when it is not yet taken. Call j of the
    # max-min loop (j = 0 scores against the rest pose) follows j picks, so at
    # most n - j of its rows can be useful, n being the corpus size.
    rows = tracer.sps_rows
    evals = sum(rows)
    useful = sum(min(r, max(rows) - j) for j, r in enumerate(rows))
    out["prompting.sps_sample.sim_evals"] = (float(evals), "count")
    out["prompting.sps_sample.useful_share"] = (useful / evals if evals else 0.0, "ratio")
    out["prompting.cluster_sample.s"] = (incl.get("prompting.cluster_sample", 0.0), "s")
    out["prompting.cluster_sample.peak_MB"] = (c["prompting.cluster_sample.peak_bytes"] / 1e6,
                                               "MB")
    out["prompting.soft_anchor_value.ms"] = (ms("prompting.soft_anchor_value"), "ms")
    out["motion.derive_task.calls"] = (float(calls.get("motion.derive_task", 0)), "count")
    out["motion.derive_task.ms"] = (ms("motion.derive_task"), "ms")
    out["training.anchor_corpus.s"] = (incl.get("training.anchor_corpus", 0.0), "s")
    out["synth.make_dataset.s"] = (incl.get("synth.make_dataset", 0.0), "s")
    for call in IO_CALLS:
        out[f"fileio.{call}.s"] = (incl.get(f"fileio.{call}", 0.0), "s")
        out[f"fileio.{call}.bytes"] = (c[f"fileio.{call}.bytes"], "B")
    return out
