"""Toy-scale in-context training: batches, optimizer, loop, evaluation.

Each step samples (clip, domain) pairs uniformly, derives task samples,
retrieves the most similar hard anchor per query (scoring all queries of the
batch in one pass), and backpropagates `objective`, the mean batch loss of one
taped pass with a leading batch axis, through the network and the retrieved
anchors' soft factors; `motionctx gradcheck` checks that same function.
Evaluation runs untaped passes over chunks of EVAL_CHUNK samples. Every other
task sample (anchor corpus, `evaluate`, the CLI) comes from `seeded_task`, one
seed per (clip, domain). Updates use decoupled weight decay. The soft factors
are two tables with one row per anchor; a step moves only the rows of the
anchors it retrieved, each row with its own step count, and leaves the others
untouched. Hard anchors are frozen data and never change. Given the same
config, dataset, and anchor set, training is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nd
from .errors import ConfigError, DimensionError, DomainError, NumericError, StateError
from .motion import (DOMAIN_ORDER, DOMAINS, Modality, MotionClip, TaskSample, _as_rng,
                     check_type, derive_task, is_count, is_real)
from .nd import NdBuffer, Tape
from .network import (SOFT_TABLES, ForwardResult, LossWeights, XFusionParams, forward, loss,
                      mean_param_error, mpjpe)
# retrieve_prompt is unused here but kept at this name: perfbench/spans.py wraps it.
from .prompting import (AnchorSet, RetrievedPrompt, retrieve_prompt,  # noqa: F401
                        retrieve_prompts, soft_anchor_value)

EVAL_CHUNK = 32  # samples per untaped forward pass in `evaluate`; bounds its peak memory
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    lr_decay: float = 0.99
    epochs: int = 1
    steps_per_epoch: int | None = None
    batch_size: int = 8
    weights: LossWeights = field(default_factory=LossWeights)
    weight_decay: float = 0.01
    seed: int = 0
    domains: tuple[str, ...] = DOMAIN_ORDER

    def __post_init__(self):
        if not is_real(self.learning_rate):
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not is_real(self.lr_decay, 0.0, 1.0, open_low=True):
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not is_count(self.epochs):
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        steps = self.steps_per_epoch
        if steps is not None and not is_count(steps):
            raise ConfigError(f"steps_per_epoch must be an integer >= 1, got {steps!r}")
        if not is_count(self.batch_size):
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_type(self.weights, LossWeights, "weights")
        if not is_real(self.weight_decay):
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not is_count(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for d in _domain_list(self.domains):
            if d not in DOMAINS:
                raise ConfigError(f"unknown domain {d!r} in config")


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    check_type(config, TrainConfig, "config")
    if not is_count(epoch, 0):
        raise ConfigError(f"epoch must be an integer >= 0, got {epoch!r}")
    return config.learning_rate * config.lr_decay ** epoch


def derive_seed(base: int, clip_index: int, domain: str) -> int:
    """Stable per-(clip, domain) seed for reproducible derivations. The base
    seed is any integer, negative ones included; the result is reduced mod 2^63."""
    if not is_count(base, -np.inf):
        raise ConfigError(f"seed must be an integer, got {base!r}")
    if not is_count(clip_index, 0):
        raise DimensionError(f"clip index must be an integer >= 0, got {clip_index!r}")
    if not isinstance(domain, str):
        raise DomainError(f"task domain must be a string, got {domain!r}")
    tag = sum((i + 1) * ord(c) for i, c in enumerate(domain))
    return (int(base) * 1_000_003 + clip_index * 8_191 + tag * 131) % (2 ** 63)


def seeded_task(clips: list[MotionClip], i: int, domain: str, seed: int) -> TaskSample:
    """Clip i's task sample in `domain` under base seed `seed`."""
    task_seed = derive_seed(seed, i, domain)
    if i >= len(clips):
        raise DimensionError(f"clip index {i} out of range for {len(clips)} clips")
    return derive_task(clips[i], domain, task_seed)


def _domain_list(domains):
    """`domains`, checked to be a non-empty list or tuple: a set cannot be
    indexed, and a string would be read letter by letter."""
    if not isinstance(domains, (list, tuple)):
        raise ConfigError(f"domains must be a list or tuple of task ids, got {domains!r}")
    if not domains:
        raise ConfigError("domains must not be empty")
    return domains


def corpus_entry(clips: list[MotionClip], domains, seed: int, s: int) -> TaskSample:
    """Entry s of the anchor corpus, derived alone. Entries run domain-major:
    entry s is clip s % len(clips) in domain domains[s // len(clips)]."""
    n = len(clips) * len(_domain_list(domains))
    if not (is_count(s, 0) and s < n):
        raise DimensionError(f"corpus entry must be an integer in [0, {n}), got {s!r}")
    return seeded_task(clips, s % len(clips), domains[s // len(clips)], seed)


def anchor_corpus(clips: list[MotionClip], domains=DOMAIN_ORDER, seed: int = 0):
    """Pooled sampling corpus: one derived (input, target, domain) entry per
    clip per domain, with deterministic per-entry derivation seeds."""
    derive_seed(seed, 0, "")  # checks the seed, also when there are no clips
    n = len(clips) * len(_domain_list(domains))
    samples = (corpus_entry(clips, domains, seed, s) for s in range(n))
    return [(x.query_input, x.query_target, x.domain) for x in samples]


def _with_prompts(samples, anchors: AnchorSet) -> list[tuple[TaskSample, RetrievedPrompt]]:
    """Each sample paired with the anchor retrieved for its query input."""
    return list(zip(samples, retrieve_prompts([s.query_input for s in samples], anchors)))


def build_batch(dataset: list[MotionClip], anchors: AnchorSet, batch_size: int, rng_seed,
                domains=DOMAIN_ORDER) -> list[tuple[TaskSample, RetrievedPrompt]]:
    """Uniform (clip, domain) draws -> derived samples -> retrieved prompts."""
    if not dataset:
        raise StateError("build_batch needs a non-empty dataset")
    if not is_count(batch_size):
        raise ConfigError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    _domain_list(domains)
    rng = _as_rng(rng_seed)
    samples = []
    for _ in range(batch_size):
        clip = dataset[int(rng.integers(len(dataset)))]
        domain = domains[int(rng.integers(len(domains)))]
        samples.append(derive_task(clip, domain, rng))
    return _with_prompts(samples, anchors)


class AdamWState:
    """First and second moments and step counts per parameter. A soft table
    (`network.SOFT_TABLES`) keeps one step count per row, since a row takes
    part only in the steps that retrieve its anchor."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int | np.ndarray] = {}

    def update(self, params: XFusionParams, grads: dict[str, np.ndarray],
               lr: float, weight_decay: float, rows=None) -> None:
        """One AdamW step for each parameter in `grads`. Of a soft table only
        `rows` (ascending and distinct; None: all) move, each by its own step
        count, as a sparse Adam moves only the embedding rows a step looked up."""
        for name, g in grads.items():
            p = params.tensors[name].array
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
                self.t[name] = np.zeros(len(p), np.int64) if name in SOFT_TABLES else 0
            m, v = self.m[name], self.v[name]
            if name in SOFT_TABLES:
                at = slice(None) if rows is None else rows
                self.t[name][at] += 1
                # Python float powers: numpy's array power differs in the last bit.
                shape = (-1,) + (1,) * (p.ndim - 1)
                bias1, bias2 = (np.reshape([1.0 - beta ** int(t) for t in self.t[name][at]], shape)
                                for beta in (ADAM_BETA1, ADAM_BETA2))
                table, p, g, m, v = p, p[at], g[at], m[at], v[at]
            else:
                self.t[name] = t = self.t[name] + 1
                bias1, bias2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            # In place, in the order of m = B1*m + (1-B1)*g, v = B2*v + (1-B2)*g*g,
            # p - lr*wd*p - lr*m_hat / (sqrt(v_hat) + eps), with two full-size
            # temporaries. `new` is fresh: XFusionParams.copy() shares buffers,
            # so p is never written.
            tmp = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += tmp
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            tmp *= g
            v *= ADAM_BETA2
            v += tmp
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            new = np.divide(m, bias1)
            new *= lr
            np.divide(new, tmp, out=tmp)  # tmp is now the step
            np.multiply(p, lr * weight_decay, out=new)
            np.subtract(p, new, out=new)
            new -= tmp
            if name in SOFT_TABLES:  # the moved rows go back; the others stay as they were
                self.m[name][at], self.v[name][at] = m, v
                new, moved = table.copy(), new
                new[at] = moved
            params.tensors[name] = NdBuffer._wrap(new)


def _batch_forward(batch, params: XFusionParams) -> ForwardResult:
    """One forward pass over (sample, prompt) pairs stacked on a leading axis.

    Each prompt's soft factors are row `prompt.index` of the tables
    `SOFT_TABLES`, gathered by one `nd.take_rows` per table; an index beyond
    the tables is a ConfigError. An anchor retrieved twice is gathered twice,
    so its row's gradient sums over both uses."""
    rows = np.array([prompt.index for _, prompt in batch])
    w1, w2 = (params[name] for name in SOFT_TABLES)
    held = min(w.shape[0] if w.ndim else 0 for w in (w1, w2))
    if rows.max() >= held:
        raise ConfigError(f"no soft factors for anchor {rows.max()}: the soft tables "
                          f"hold {held} rows")
    u = soft_anchor_value(nd.take_rows(w1, rows), nd.take_rows(w2, rows))

    def stacked(seqs) -> NdBuffer:
        return NdBuffer._wrap(np.stack([seq.values.array for seq in seqs]))

    return forward(stacked(sample.query_input for sample, _ in batch),
                   stacked(prompt.hard_input for _, prompt in batch),
                   stacked(prompt.hard_target for _, prompt in batch), u, params)


def objective(batch, params: XFusionParams, weights: LossWeights) -> tuple[NdBuffer, dict]:
    """The mean loss of (sample, prompt) pairs, with its components, from one
    `_batch_forward`: what `train_step` minimizes and gradcheck differentiates."""
    result = _batch_forward(batch, params)
    return loss(result.prediction, result.betas, [sample for sample, _ in batch], weights)


def train_step(batch, params: XFusionParams, state: AdamWState, config: TrainConfig,
               lr: float, batch_id: str = "batch") -> dict[str, float]:
    """One optimizer step at learning rate lr on `objective`; mutates params
    and state.

    The batch runs as one taped pass. Network parameters always participate;
    of the soft tables only the rows of anchors retrieved in this batch move.
    Hard anchors are inputs, not parameters, so they cannot change.
    """
    check_type(params, XFusionParams, "params")
    check_type(state, AdamWState, "state")
    check_type(config, TrainConfig, "config")
    if not is_real(lr):
        raise ConfigError(f"lr must be a finite number >= 0, got {lr!r}")
    if not batch:
        raise StateError("train_step needs a non-empty batch")
    keys = list(params.tensors)

    with Tape() as tape:
        batch_loss, comps = objective(batch, params, config.weights)
    value = batch_loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss in {batch_id}")
    grads = dict(zip(keys, tape.grad(batch_loss, [params.tensors[k] for k in keys])))
    state.update(params, grads, lr, config.weight_decay,
                 rows=np.unique([prompt.index for _, prompt in batch]))
    record = {k: comps[k] for k in ("position", "velocity", "shape")}
    record["loss"] = value
    return record


def train(dataset: list[MotionClip], anchors: AnchorSet, params: XFusionParams,
          config: TrainConfig) -> list[dict[str, float]]:
    """Epoch loop with per-epoch decayed learning rate; returns step records."""
    check_type(config, TrainConfig, "config")
    if not dataset:
        raise StateError("train needs a non-empty dataset")
    steps = config.steps_per_epoch
    if steps is None:
        steps = max(1, (len(dataset) * len(config.domains)) // config.batch_size)
    rng = np.random.default_rng(config.seed)
    state = AdamWState()
    log: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        for step in range(steps):
            batch = build_batch(dataset, anchors, config.batch_size, rng, domains=config.domains)
            record = train_step(batch, params, state, config, lr=lr,
                                batch_id=f"epoch {epoch} step {step}")
            record.update({"epoch": epoch, "step": step, "global_step": len(log), "lr": lr})
            log.append(record)
    return log


def evaluate(dataset: list[MotionClip], anchors: AnchorSet, params: XFusionParams,
             domains=DOMAIN_ORDER, seed: int = 0) -> dict[str, float]:
    """Deterministic per-domain metric table on the given clips.

    Pose-output domains report root-aligned mean per-joint position error;
    mesh-output domains report mean parameter-space error. The network sees
    each domain's clips in untaped batches of EVAL_CHUNK.
    """
    check_type(params, XFusionParams, "params")
    if not dataset:
        raise StateError("evaluate needs a non-empty dataset")
    table: dict[str, float] = {}
    for domain in _domain_list(domains):
        errors = []
        for lo in range(0, len(dataset), EVAL_CHUNK):
            pairs = _with_prompts([seeded_task(dataset, i, domain, seed)
                                   for i in range(lo, min(lo + EVAL_CHUNK, len(dataset)))],
                                  anchors)
            preds = _batch_forward(pairs, params).prediction.array
            for (sample, _), pred in zip(pairs, preds):
                target = sample.query_target
                metric = mean_param_error if target.modality is Modality.MESH else mpjpe
                errors.append(metric(pred, target))
        table[domain] = float(np.mean(errors))
    return table
