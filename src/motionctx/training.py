"""Toy-scale in-context training: batches, optimizer, loop, evaluation.

Each step samples (clip, domain) pairs uniformly, derives task samples,
retrieves the most similar hard anchor per query (scoring all queries of the
batch in one pass), and backpropagates the mean batch loss through the
network and the retrieved anchors' soft factors. The whole batch runs as one
taped forward pass with a leading batch axis; evaluation runs untaped passes
over chunks of EVAL_CHUNK samples. Every other task sample (anchor corpus,
`evaluate`, the CLI) comes from `seeded_task`, one seed per (clip, domain).
Updates use decoupled weight decay; parameters that did not participate in a
step (soft factors of anchors nobody retrieved) are left untouched. Hard
anchors are frozen data and never change. Given the same config, dataset,
and anchor set, training is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nd
from .errors import ConfigError, NumericError, StateError
from .motion import (DOMAIN_ORDER, DOMAINS, Modality, MotionClip, TaskSample, _as_rng,
                     derive_task, is_count)
from .nd import NdBuffer, Tape
from .network import (ForwardResult, LossWeights, XFusionParams, forward, loss,
                      mean_param_error, mpjpe, soft_anchor_of, soft_keys)
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
        if not 0.0 <= self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not is_count(self.epochs):
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        steps = self.steps_per_epoch
        if steps is not None and not is_count(steps):
            raise ConfigError(f"steps_per_epoch must be an integer >= 1, got {steps!r}")
        if not is_count(self.batch_size):
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not is_count(self.seed, 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for d in self.domains:
            if d not in DOMAINS:
                raise ConfigError(f"unknown domain {d!r} in config")
        if not self.domains:
            raise ConfigError("domains must not be empty")


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    return config.learning_rate * config.lr_decay ** epoch


def derive_seed(base: int, clip_index: int, domain: str) -> int:
    """Stable per-(clip, domain) seed for reproducible derivations. The base
    seed is any integer, negative ones included; the result is reduced mod 2^63."""
    if not is_count(base, -np.inf):
        raise ConfigError(f"seed must be an integer, got {base!r}")
    tag = sum((i + 1) * ord(c) for i, c in enumerate(domain))
    return (int(base) * 1_000_003 + clip_index * 8_191 + tag * 131) % (2 ** 63)


def seeded_task(clips: list[MotionClip], i: int, domain: str, seed: int) -> TaskSample:
    """Clip i's task sample in `domain` under base seed `seed`."""
    return derive_task(clips[i], domain, derive_seed(seed, i, domain))


def corpus_entry(clips: list[MotionClip], domains, seed: int, s: int) -> TaskSample:
    """Entry s of the anchor corpus, derived alone. Entries run domain-major:
    entry s is clip s % len(clips) in domain domains[s // len(clips)]."""
    return seeded_task(clips, s % len(clips), domains[s // len(clips)], seed)


def anchor_corpus(clips: list[MotionClip], domains=DOMAIN_ORDER, seed: int = 0):
    """Pooled sampling corpus: one derived (input, target, domain) entry per
    clip per domain, with deterministic per-entry derivation seeds."""
    derive_seed(seed, 0, "")  # checks the seed, also when there are no clips
    samples = (corpus_entry(clips, domains, seed, s) for s in range(len(clips) * len(domains)))
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
    if not domains:
        raise ConfigError("build_batch needs at least one domain")
    rng = _as_rng(rng_seed)
    samples = []
    for _ in range(batch_size):
        clip = dataset[int(rng.integers(len(dataset)))]
        domain = domains[int(rng.integers(len(domains)))]
        samples.append(derive_task(clip, domain, rng))
    return _with_prompts(samples, anchors)


class AdamWState:
    """Per-parameter first/second moments and step counts."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def update(self, params: XFusionParams, grads: dict[str, np.ndarray],
               lr: float, weight_decay: float) -> None:
        for name, g in grads.items():
            p = params.tensors[name].array
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            t = self.t.get(name, 0) + 1
            self.t[name] = t
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
            np.divide(v, 1.0 - ADAM_BETA2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            new = np.divide(m, 1.0 - ADAM_BETA1 ** t)
            new *= lr
            np.divide(new, tmp, out=tmp)  # tmp is now the step
            np.multiply(p, lr * weight_decay, out=new)
            np.subtract(p, new, out=new)
            new -= tmp
            params.tensors[name] = NdBuffer._wrap(new)


def _batch_forward(batch, params: XFusionParams) -> ForwardResult:
    """One forward pass over (sample, prompt) pairs stacked on a leading axis.

    Each prompt's soft factors are the parameters `soft_keys(index)`; a
    missing one is a ConfigError. They are stacked as taped ops, so an anchor
    retrieved twice fans out and its gradient sums over both uses."""
    keys = [soft_keys(prompt.index) for _, prompt in batch]
    u = soft_anchor_value(nd.stack([params[w1] for w1, _ in keys], axis=0),
                          nd.stack([params[w2] for _, w2 in keys], axis=0))

    def stacked(seqs) -> NdBuffer:
        return NdBuffer._wrap(np.stack([seq.values.array for seq in seqs]))

    return forward(stacked(sample.query_input for sample, _ in batch),
                   stacked(prompt.hard_input for _, prompt in batch),
                   stacked(prompt.hard_target for _, prompt in batch), u, params)


def train_step(batch, params: XFusionParams, state: AdamWState, config: TrainConfig,
               lr: float, batch_id: str = "batch") -> dict[str, float]:
    """One optimizer step at learning rate lr on the mean batch loss; mutates
    params and state.

    The batch runs as one taped pass. Network parameters always participate;
    soft factors participate only for anchors retrieved in this batch. Hard
    anchors are inputs, not parameters, so they cannot change.
    """
    if not batch:
        raise StateError("train_step needs a non-empty batch")
    keys = [k for k in params.tensors if soft_anchor_of(k) is None]
    for i in sorted({prompt.index for _, prompt in batch}):
        keys.extend(soft_keys(i))

    with Tape() as tape:
        result = _batch_forward(batch, params)
        batch_loss, comps = loss(result.prediction, result.betas,
                                 [sample for sample, _ in batch], config.weights)
    value = batch_loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss in {batch_id}")
    grads = dict(zip(keys, tape.grad(batch_loss, [params.tensors[k] for k in keys])))
    state.update(params, grads, lr, config.weight_decay)
    record = {k: comps[k] for k in ("position", "velocity", "shape")}
    record["loss"] = value
    return record


def train(dataset: list[MotionClip], anchors: AnchorSet, params: XFusionParams,
          config: TrainConfig) -> list[dict[str, float]]:
    """Epoch loop with per-epoch decayed learning rate; returns step records."""
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
    if not dataset:
        raise StateError("evaluate needs a non-empty dataset")
    table: dict[str, float] = {}
    for domain in domains:
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
