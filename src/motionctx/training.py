"""Toy-scale in-context training: batches, optimizer, loop, evaluation.

Each step samples (clip, domain) pairs uniformly, derives task samples,
retrieves the most similar hard anchor per query, and backpropagates the mean
batch loss through the network and the retrieved anchors' soft factors.
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
from .motion import (DEFAULT_MASK_RATIO, DOMAIN_ORDER, DOMAINS, Modality, MotionClip,
                     TaskSample, derive_task)
from .nd import NdBuffer, Tape
from .network import (LossWeights, XFusionParams, forward, loss, mean_param_error, mpjpe)
from .prompting import AnchorSet, RetrievedPrompt, retrieve_prompt, soft_anchor_value


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
    mask_ratio: float = DEFAULT_MASK_RATIO
    max_steps: int | None = None

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ConfigError(f"steps_per_epoch must be >= 1, got {self.steps_per_epoch}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1], got {self.mask_ratio}")
        for d in self.domains:
            if d not in DOMAINS:
                raise ConfigError(f"unknown domain {d!r} in config")
        if not self.domains:
            raise ConfigError("domains must not be empty")


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    return config.learning_rate * config.lr_decay ** epoch


def derive_seed(base: int, clip_index: int, domain: str) -> int:
    """Stable per-(clip, domain) seed for reproducible derivations."""
    tag = sum((i + 1) * ord(c) for i, c in enumerate(domain))
    return (base * 1_000_003 + clip_index * 8_191 + tag * 131) % (2 ** 63)


def anchor_corpus(clips: list[MotionClip], domains=DOMAIN_ORDER, seed: int = 0,
                  mask_ratio: float = DEFAULT_MASK_RATIO):
    """Pooled sampling corpus: one derived (input, target, domain) entry per
    clip per domain, with deterministic per-entry derivation seeds."""
    corpus = []
    for d in domains:
        for i, clip in enumerate(clips):
            sample = derive_task(clip, d, derive_seed(seed, i, d), mask_ratio)
            corpus.append((sample.query_input, sample.query_target, sample.domain))
    return corpus


def build_batch(dataset: list[MotionClip], anchors: AnchorSet, batch_size: int, rng_seed,
                domains=DOMAIN_ORDER, mask_ratio: float = DEFAULT_MASK_RATIO,
                domain_filter: bool = False) -> list[tuple[TaskSample, RetrievedPrompt]]:
    """Uniform (clip, domain) draws -> derived samples -> retrieved prompts."""
    if not dataset:
        raise StateError("build_batch needs a non-empty dataset")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    batch = []
    for _ in range(batch_size):
        clip = dataset[int(rng.integers(len(dataset)))]
        domain = domains[int(rng.integers(len(domains)))]
        sample = derive_task(clip, domain, rng, mask_ratio)
        prompt = retrieve_prompt(sample.query_input, anchors,
                                 domain_filter=domain if domain_filter else None)
        batch.append((sample, prompt))
    return batch


class AdamWState:
    """Per-parameter first/second moments and step counts."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def update(self, params: XFusionParams, grads: dict[str, np.ndarray],
               lr: float, weight_decay: float) -> None:
        for name, g in grads.items():
            p = params.tensors[name].array
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            t = self.t.get(name, 0) + 1
            self.t[name] = t
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            new = p - lr * weight_decay * p - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            params.tensors[name] = NdBuffer._wrap(new)


def _soft_factors(params: XFusionParams, anchors: AnchorSet, index: int):
    w1_key, w2_key = f"soft.{index}.w1", f"soft.{index}.w2"
    if w1_key in params.tensors:
        return params.tensors[w1_key], params.tensors[w2_key]
    return NdBuffer(anchors.soft_w1[index]), NdBuffer(anchors.soft_w2[index])


def train_step(batch, params: XFusionParams, state: AdamWState, config: TrainConfig,
               lr: float | None = None, anchors: AnchorSet | None = None,
               batch_id: str = "batch") -> dict[str, float]:
    """One optimizer step on the mean batch loss; mutates params and state.

    Network parameters always participate; soft factors participate only for
    anchors retrieved in this batch. Hard anchors are inputs, not parameters,
    so they cannot change.
    """
    if lr is None:
        lr = config.learning_rate
    if not batch:
        raise StateError("train_step needs a non-empty batch")
    retrieved = sorted({prompt.index for _, prompt in batch})
    keys = [k for k in params.tensors if not k.startswith("soft.")]
    for i in retrieved:
        if f"soft.{i}.w1" in params.tensors:
            keys.extend([f"soft.{i}.w1", f"soft.{i}.w2"])

    totals = []
    sums = {"position": 0.0, "velocity": 0.0, "shape": 0.0}
    with Tape() as tape:
        for sample, prompt in batch:
            if anchors is not None:
                w1, w2 = _soft_factors(params, anchors, prompt.index)
            else:
                w1_key = f"soft.{prompt.index}.w1"
                if w1_key in params.tensors:
                    w1, w2 = params.tensors[w1_key], params.tensors[f"soft.{prompt.index}.w2"]
                else:
                    w1, w2 = NdBuffer(prompt.soft_w1), NdBuffer(prompt.soft_w2)
            u = soft_anchor_value(w1, w2)
            result = forward(sample.query_input, prompt.hard_input, prompt.hard_target, u, params)
            total, comps = loss(result.prediction, result.betas, sample, config.weights)
            totals.append(total)
            for k in sums:
                sums[k] += comps[k]
        batch_loss = nd.mean(nd.stack(totals, axis=0)) if len(totals) > 1 else totals[0]
    value = batch_loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss in {batch_id}")
    grads = dict(zip(keys, tape.grad(batch_loss, [params.tensors[k] for k in keys])))
    state.update(params, grads, lr, config.weight_decay)
    record = {k: v / len(batch) for k, v in sums.items()}
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
    done = 0
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config, epoch)
        for step in range(steps):
            if config.max_steps is not None and done >= config.max_steps:
                return log
            batch = build_batch(dataset, anchors, config.batch_size, rng,
                                domains=config.domains, mask_ratio=config.mask_ratio)
            record = train_step(batch, params, state, config, lr=lr, anchors=anchors,
                                batch_id=f"epoch {epoch} step {step}")
            record.update({"epoch": epoch, "step": step, "global_step": done, "lr": lr})
            log.append(record)
            done += 1
    return log


def evaluate(dataset: list[MotionClip], anchors: AnchorSet, params: XFusionParams,
             domains=DOMAIN_ORDER, seed: int = 0, mask_ratio: float = DEFAULT_MASK_RATIO,
             predict_fn=None) -> dict[str, float]:
    """Deterministic per-domain metric table on the given clips.

    Pose-output domains report root-aligned mean per-joint position error;
    mesh-output domains report mean parameter-space error. predict_fn
    (sample, prompt) -> (F, J, 3) array overrides the network, for oracles.
    """
    if not dataset:
        raise StateError("evaluate needs a non-empty dataset")
    table: dict[str, float] = {}
    for domain in domains:
        errors = []
        for i, clip in enumerate(dataset):
            sample = derive_task(clip, domain, derive_seed(seed, i, domain), mask_ratio)
            prompt = retrieve_prompt(sample.query_input, anchors)
            if predict_fn is not None:
                pred = np.asarray(predict_fn(sample, prompt), dtype=np.float64)
            else:
                w1, w2 = _soft_factors(params, anchors, prompt.index)
                u = soft_anchor_value(w1, w2)
                pred = forward(sample.query_input, prompt.hard_input, prompt.hard_target,
                               u, params).prediction.array
            if sample.query_target.modality is Modality.MESH:
                errors.append(mean_param_error(pred, sample.query_target))
            else:
                errors.append(mpjpe(pred, sample.query_target))
        table[domain] = float(np.mean(errors))
    return table
