"""Workloads, output checks and metrics of the motionctx benchmark.

Each workload is one closed loop in one process: a single caller starts the
next step, sample, query or file round trip when the previous one returns.
A run makes several rounds of set-up (synth, corpus, max-min anchor
selection, parameter init) followed by one identical pass of the timed phase;
before the first pass it replays the start of training once. A pass is:

  1. `cluster_sample`
  2. `train` from the set-up's parameters, for a step count sized from `--seconds`
  3. one round per eval domain, each made of `evaluate` of that domain over a
     fixed set of clips, a slice of a stream of held-out queries through
     unfiltered `retrieve_prompt`, and save/load round trips of the
     dataset, the anchor set and the checkpoint

The speed of a shared machine drifts by tens of percent within a minute, so
each metric, set-up time included, takes many short samples from every
round, spread over the whole run, and reports a median rather than one
window's reading: the eval and file rates sum per-domain and per-file
medians, so that a slow second spoils a few samples instead of a pass.

Every output is checked: losses and eval values are finite, retrieved
indices equal the benchmark's own linear-scan argmax, files load back equal
to what was saved (motion data rounded to float32 as the format defines),
every set-up repeats bitwise, and every pass, like the replay of the first
steps, gives the same loss trajectory bitwise. Library functions are called
through their module attributes, so the traced run can wrap them where
callers look them up.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from motionctx import fileio, network, prompting, synth, training
from motionctx.motion import DOMAIN_ORDER
from motionctx.network import NetConfig
from motionctx.synth import SynthConfig
from motionctx.training import TrainConfig

TRAIN_SHARE = 0.6          # share of --seconds the training phase is sized to fill
HELD_OUT_SEED = 7919       # offset of the synth seed that makes the query clips
TIE_RTOL = 1e-12           # similarities this close count as a tie for the argmax check
TAIL_SAMPLES = 1000        # queries a p99 needs to have ten samples beyond it


@dataclass(frozen=True)
class Sizes:
    synth: SynthConfig
    net: NetConfig
    anchors: int             # k for sps_sample (the rest pose counts)
    batch: int
    step_s: float            # nominal seconds per train step, sizes the train phase
    min_steps: int
    replay_steps: int        # prefix of training replayed by the reproducibility check
    loss_tail: int           # last steps averaged into final_loss
    eval_clips: int
    eval_domains: tuple[str, ...]
    queries: int
    check_every: int         # every n-th query is checked against the linear scan
    cluster_k: int
    cluster_reps: int
    io_reps: int             # file round trips after each eval domain
    passes: int              # rounds of set-up plus one identical timed pass


WORKLOADS = {
    # ROADMAP toy config: fits in L2, cost is per-op Python overhead.
    "toy_train": Sizes(
        synth=SynthConfig(clips=64, frames=8, joints=6, native_pose_joints=5, clusters=4),
        net=NetConfig(frames=8, joints=6, hidden=16, layers=1),
        anchors=64, batch=8, step_s=0.075, min_steps=20, replay_steps=20, loss_tail=10,
        eval_clips=32, eval_domains=DOMAIN_ORDER, queries=1000, check_every=1,
        cluster_k=16, cluster_reps=2, io_reps=1, passes=10),
    # ROADMAP paper-default network, GEMM and backward bound, far beyond cache.
    # B=4: B=8 peaked at 5.5 GB RSS on a 7 GB machine.
    "paper_train": Sizes(
        synth=SynthConfig(clips=80, frames=16, joints=24, native_pose_joints=17, clusters=8),
        net=NetConfig(frames=16, joints=24, hidden=128, layers=8),
        anchors=800, batch=4, step_s=2.5, min_steps=2, replay_steps=1, loss_tail=2,
        eval_clips=4, eval_domains=("pe", "mr"), queries=100, check_every=10,
        cluster_k=16, cluster_reps=2, io_reps=4, passes=3),
}

# Same shapes of data, tiny counts: for the benchmark's self-test only.
TINY = {
    "toy_train": replace(
        WORKLOADS["toy_train"], synth=replace(WORKLOADS["toy_train"].synth, clips=8, clusters=2),
        anchors=8, batch=2, min_steps=3, replay_steps=2, loss_tail=2, eval_clips=2,
        eval_domains=("pe", "mr"), queries=20, cluster_k=3, cluster_reps=1, passes=2),
    "paper_train": replace(
        WORKLOADS["paper_train"], synth=replace(WORKLOADS["paper_train"].synth, clips=4,
                                                clusters=2),
        net=NetConfig(frames=16, joints=24, hidden=8, layers=1),
        anchors=12, batch=2, min_steps=2, replay_steps=2, loss_tail=2, eval_clips=1,
        queries=20, check_every=2, cluster_k=3, cluster_reps=1, io_reps=1, passes=2),
}


class Checks:
    """Counts timed operations and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ops: int, bad: int, what: str) -> None:
        self.attempted += ops
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {ops} failed")


def train_steps(sizes: Sizes, seconds: float) -> int:
    """Steps per pass, so that training fills TRAIN_SHARE of `seconds`."""
    return max(sizes.min_steps, round(TRAIN_SHARE * seconds / (sizes.passes * sizes.step_s)))


def quantile(values, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    clips: list
    corpus: list
    anchors: prompting.AnchorSet
    params: network.XFusionParams
    seconds: float
    sps_seconds: float


def set_up(sizes: Sizes, seed: int) -> Setup:
    t0 = time.perf_counter()
    clips = synth.make_dataset(replace(sizes.synth, seed=seed))
    corpus = training.anchor_corpus(clips, seed=seed)
    t1 = time.perf_counter()
    anchors = prompting.sps_sample(corpus, k=sizes.anchors, hidden_dim=sizes.net.hidden)
    t2 = time.perf_counter()
    params = network.init_params(sizes.net, rng_seed=seed, anchors=anchors)
    t3 = time.perf_counter()
    return Setup(clips, corpus, anchors, params, t3 - t0, t2 - t1)


def setup_digest(s: Setup) -> str:
    h = hashlib.sha256()
    h.update(np.asarray([a.source_index for a in s.anchors.anchors], dtype=np.int64).tobytes())
    h.update(s.anchors.soft_w1.tobytes())
    h.update(s.anchors.soft_w2.tobytes())
    for name in sorted(s.params.tensors):
        h.update(name.encode())
        h.update(s.params.tensors[name].array.tobytes())
    return h.hexdigest()


# -- timed phase --------------------------------------------------------------

@contextmanager
def step_timer(durations: list):
    """Time each `train_step` call where `train` looks it up."""
    inner = training.train_step

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t)

    training.train_step = timed
    try:
        yield
    finally:
        training.train_step = inner


def held_out_queries(sizes: Sizes, seed: int) -> list:
    per_clip = len(DOMAIN_ORDER)
    cfg = replace(sizes.synth, seed=seed + HELD_OUT_SEED,
                  clips=max(sizes.synth.clusters, -(-sizes.queries // per_clip)))
    clips = synth.make_dataset(cfg)
    out = []
    for i in range(sizes.queries):
        clip_index, domain = divmod(i, per_clip)
        d = DOMAIN_ORDER[domain]
        sample = training.derive_task(clips[clip_index], d,
                                      training.derive_seed(seed, clip_index, d))
        out.append(sample.query_input)
    return out


def reference_argmax(stacked: np.ndarray, query: np.ndarray) -> tuple[int, np.ndarray]:
    """Linear-scan argmax of the similarity, lowest index on ties."""
    sims = 0.0 - np.sqrt(((stacked - query) ** 2).sum(axis=-1)).mean(axis=(1, 2))
    best = 0
    for i in range(1, sims.shape[0]):
        if sims[i] > sims[best]:
            best = i
    return best, sims


def retrieval_ok(prompt, stacked: np.ndarray, query: np.ndarray) -> bool:
    best, sims = reference_argmax(stacked, query)
    got = prompt.index
    if not 0 <= got < sims.shape[0]:
        return False
    # An exact tie must go to the lowest index; a pick within rounding of the
    # best is accepted, so a reordered similarity sum is not a failure.
    gap = abs(sims[got] - sims[best])
    near = 0.0 < gap <= TIE_RTOL * abs(sims[best])
    return ((got == best or near)
            and abs(prompt.similarity - sims[got]) <= 1e-9 * max(1.0, abs(sims[got])))


def _f32(arr) -> np.ndarray:
    return np.asarray(arr, dtype=np.float64).astype(np.float32).astype(np.float64)


def _same_sequence(loaded, saved) -> bool:
    """Equal up to the float32 rounding the format stores motion data with."""
    return (loaded.modality == saved.modality
            and loaded.native_joint_count == saved.native_joint_count
            and np.array_equal(loaded.values.array, _f32(saved.values.array))
            and np.array_equal(loaded.betas, _f32(saved.betas)))


def dataset_equal(loaded, clips) -> bool:
    return len(loaded) == len(clips) and all(
        x.clip_id == y.clip_id and x.source == y.source
        and all(_same_sequence(getattr(x, f), getattr(y, f))
                for f in ("pose2d", "pose3d", "mesh"))
        for x, y in zip(loaded, clips))


def anchors_equal(loaded, anchors) -> bool:
    return (len(loaded) == len(anchors)
            and (loaded.k_requested, loaded.method, loaded.tie_break, loaded.fingerprint,
                 loaded.selection_trace) == (anchors.k_requested, anchors.method,
                                             anchors.tie_break, anchors.fingerprint,
                                             anchors.selection_trace)
            and np.array_equal(loaded.soft_w1, anchors.soft_w1)
            and np.array_equal(loaded.soft_w2, anchors.soft_w2)
            and all(x.domain == y.domain and x.source_index == y.source_index
                    and _same_sequence(x.input, y.input)
                    and _same_sequence(x.target, y.target)
                    for x, y in zip(loaded.anchors, anchors.anchors)))


def checkpoint_equal(loaded, params) -> bool:
    return (loaded.config == params.config and loaded.tensors.keys() == params.tensors.keys()
            and all(np.array_equal(loaded.tensors[k].array, params.tensors[k].array)
                    for k in params.tensors))


def round_trip(setup: Setup, params, work_dir: str, checks: Checks) -> list:
    """Save and load each file kind once; returns (kind, bytes, write
    seconds, read seconds) for each kind that saved and loaded."""
    kinds = [
        ("dataset", lambda p: fileio.save_dataset(p, setup.clips), fileio.load_dataset,
         lambda loaded: dataset_equal(loaded, setup.clips)),
        ("anchors", lambda p: fileio.save_anchors(p, setup.anchors), fileio.load_anchors,
         lambda loaded: anchors_equal(loaded[0], setup.anchors)),
        ("checkpoint", lambda p: fileio.save_checkpoint(p, params), fileio.load_checkpoint,
         lambda loaded: checkpoint_equal(loaded[0], params)),
    ]
    os.makedirs(work_dir, exist_ok=True)
    done = []
    bad = 0
    try:
        for kind, save, load, equal in kinds:
            path = os.path.join(work_dir, f"{kind}.bin")
            try:
                t0 = time.perf_counter()
                save(path)
                t1 = time.perf_counter()
                loaded = load(path)
                t2 = time.perf_counter()
            except Exception:  # noqa: BLE001 - a raising round trip counts as failed
                bad += 1
                continue
            bad += not equal(loaded)
            done.append((kind, os.path.getsize(path), t1 - t0, t2 - t1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks.record(len(kinds), bad, "file round trips")
    return done


@dataclass
class Pass:
    """Raw measurements of one pass of the timed phase."""

    wall: float
    cluster_times: list
    step_times: list
    train_wall: float
    log: list
    eval_times: dict         # domain -> seconds of `evaluate` on that domain
    eval_clips: int
    table: dict
    query_times: list
    io: list                 # (kind, bytes, write s, read s) of every round trip


def timed_pass(sizes: Sizes, seed: int, steps: int, setup: Setup, queries: list,
               work_dir: str, checks: Checks) -> Pass:
    """One pass: cluster_sample, train, then per eval domain `evaluate`, a
    slice of the query stream and file round trips; each output checked."""
    t_start = time.perf_counter()

    cluster_times, picks = [], set()
    for _ in range(sizes.cluster_reps):
        t = time.perf_counter()
        chosen = prompting.cluster_sample(setup.corpus, sizes.cluster_k, rng_seed=seed,
                                          hidden_dim=sizes.net.hidden)
        cluster_times.append(time.perf_counter() - t)
        picks.add(tuple(a.source_index for a in chosen.anchors))
    bad = sum(len(p) != sizes.cluster_k + 1 or len(set(p)) != len(p) for p in picks)
    checks.record(sizes.cluster_reps, bad + (len(picks) > 1), "cluster_sample")

    cfg = TrainConfig(batch_size=sizes.batch, steps_per_epoch=steps, seed=seed)
    params = setup.params.copy()
    step_times: list = []
    t = time.perf_counter()
    with step_timer(step_times):
        log = training.train(setup.clips, setup.anchors, params, cfg)
    train_wall = time.perf_counter() - t
    checks.record(steps, steps - sum(bool(np.isfinite(r["loss"])) for r in log),
                  "train steps")

    # A domain's table entry is the same whether evaluate is called for it
    # alone or with the others: task seeds depend on clip index and domain.
    eval_clips = setup.clips[:sizes.eval_clips]
    domains = sizes.eval_domains
    slices = np.array_split(np.arange(len(queries)), len(domains))
    eval_times, table, query_times, prompts, io = {}, {}, [], [], []
    for domain, chunk in zip(domains, slices):
        t = time.perf_counter()
        table.update(training.evaluate(eval_clips, setup.anchors, params, domains=(domain,),
                                       seed=seed))
        eval_times[domain] = time.perf_counter() - t
        for i in chunk:
            t = time.perf_counter()
            try:
                prompt = prompting.retrieve_prompt(queries[i], setup.anchors)
            except Exception:  # noqa: BLE001 - a raising query counts as failed
                prompt = None
            query_times.append(time.perf_counter() - t)
            prompts.append(prompt)
        for _ in range(sizes.io_reps):
            io += round_trip(setup, params, work_dir, checks)
    bad = sum(len(eval_clips) for d in domains if not np.isfinite(table.get(d, np.nan)))
    checks.record(len(eval_clips) * len(domains), bad, "eval samples")
    stacked = np.stack([a.input.values.array for a in setup.anchors.anchors])
    bad = sum(prompt is None or (i % sizes.check_every == 0
                                 and not retrieval_ok(prompt, stacked, q.values.array))
              for i, (q, prompt) in enumerate(zip(queries, prompts)))
    checks.record(len(queries), bad, "retrieval queries")
    return Pass(time.perf_counter() - t_start, cluster_times, step_times, train_wall, log,
                eval_times, len(eval_clips), table, query_times, io)


def timed_phase(sizes: Sizes, seed: int, seconds: float, queries: list, work_dir: str,
                checks: Checks) -> tuple[list[Pass], list[float], list[float]]:
    """`sizes.passes` rounds of set-up then one timed pass, so set-up times
    too are sampled across the run. Returns the passes and each set-up's
    total and sps_sample seconds. Every set-up must equal the first bitwise
    and the passes must repeat each other (check_repeats)."""
    steps = train_steps(sizes, seconds)
    passes, setup_times, sps_times, digests = [], [], [], []
    for i in range(sizes.passes):
        setup = set_up(sizes, seed)
        setup_times.append(setup.seconds)
        sps_times.append(setup.sps_seconds)
        digests.append(setup_digest(setup))
        if i == 0:
            warm = replay(sizes, seed, setup)
        passes.append(timed_pass(sizes, seed, steps, setup, queries, work_dir, checks))
    checks.record(len(digests), sum(d != digests[0] for d in digests), "set-up repeats")
    check_repeats(warm, passes, checks)
    return passes, setup_times, sps_times


def check_repeats(warm: list, passes: list[Pass], checks: Checks) -> None:
    """The replayed steps `warm` and every later pass must repeat the first
    pass's loss trajectory, and every later pass its eval table, bitwise."""
    first = passes[0]
    checks.record(len(warm), trajectory_mismatches(first.log, warm, len(warm)),
                  "replayed steps")
    for later in passes[1:]:
        steps = len(first.log)
        checks.record(steps, trajectory_mismatches(first.log, later.log, steps),
                      "repeated-pass steps")
        checks.record(1, later.table != first.table, "repeated-pass eval table")


def replay(sizes: Sizes, seed: int, setup: Setup) -> list:
    """The first `replay_steps` of training from the same set-up and seed.
    Run before the timed phase, it also warms the allocator, so no timed
    step pays for first-touch page faults."""
    cfg = TrainConfig(batch_size=sizes.batch, steps_per_epoch=sizes.replay_steps, seed=seed)
    return training.train(setup.clips, setup.anchors, setup.params.copy(), cfg)


def trajectory_mismatches(log: list, replay: list, steps: int) -> int:
    """Steps among the first `steps` whose loss components differ bitwise."""
    keys = ("loss", "position", "velocity", "shape")
    same = sum(all(a[k] == b[k] for k in keys) for a, b in zip(log[:steps], replay[:steps]))
    return steps - same


def query_p99(passes: list[Pass]) -> float:
    """p99 query seconds. When every pass alone has enough queries for a
    p99, the median of the passes' p99s, so that a short slow window that
    fills one pass's tail does not set the run's; otherwise the p99 of all
    queries pooled."""
    if min(len(p.query_times) for p in passes) >= TAIL_SAMPLES:
        return statistics.median(quantile(p.query_times, 99) for p in passes)
    return quantile([t for p in passes for t in p.query_times], 99)


def end_to_end(sizes: Sizes, setup_times: list, sps_times: list, passes: list[Pass],
               checks: Checks) -> dict:
    """Every end-to-end metric: name -> (value, unit). The train rate is a
    median over passes; step, query and cluster times are pooled over
    passes, except as query_p99 says. The eval rate divides the samples of
    one pass by the sum over domains of each domain's median time; the file
    rates divide the bytes of one round trip of every kind by the sum over
    kinds of each kind's median time."""
    med = statistics.median
    steps = [t for p in passes for t in p.step_times]
    queries = [t for p in passes for t in p.query_times]
    domains = list(passes[0].eval_times)
    eval_s = sum(med(p.eval_times[d] for p in passes) for d in domains)
    by_kind = {}
    for p in passes:
        for kind, size, wrote, read in p.io:
            by_kind.setdefault(kind, []).append((size, wrote, read))
    io_bytes, io_write, io_read = (sum(med(r[i] for r in rows) for rows in by_kind.values())
                                   for i in range(3))
    losses = [r["loss"] for r in passes[0].log]
    return {
        "setup_s": (med(setup_times), "s"),
        "train_samples_per_s": (med(len(p.log) * sizes.batch / p.train_wall for p in passes),
                                "1/s"),
        "train_step_p50_ms": (med(steps) * 1e3, "ms"),
        "train_step_p90_ms": (quantile(steps, 90) * 1e3, "ms"),
        "eval_samples_per_s": (passes[0].eval_clips * len(domains) / eval_s, "1/s"),
        "final_loss": (float(np.mean(losses[-sizes.loss_tail:])), "loss"),
        "eval_error": (float(np.mean(list(passes[0].table.values()))), "error"),
        "anchor_select_s": (med(sps_times), "s"),
        "cluster_select_s": (med(t for p in passes for t in p.cluster_times), "s"),
        "retrieve_p50_ms": (med(queries) * 1e3, "ms"),
        "retrieve_p99_ms": (query_p99(passes) * 1e3, "ms"),
        "io_write_MBps": (io_bytes / io_write / 1e6 if io_write else 0.0, "MB/s"),
        "io_read_MBps": (io_bytes / io_read / 1e6 if io_read else 0.0, "MB/s"),
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_op_share": (checks.failed / max(checks.attempted, 1), "ratio"),
    }
