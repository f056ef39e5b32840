"""Dual-branch fusion network over unified motion sequences.

Query and prompt sequences are encoded per location into H-dim features with
positional embeddings; the retrieved soft anchor is added to the query branch
only. Each layer runs three aggregation levels (self-attention, graph
convolution over a fixed normalized adjacency, and a causal diagonal
state-space recurrence) in a temporal view (per-joint tracks over frames) and
then a spatial view (per-frame tracks over joints). Both adjacencies are one
tree rule (the frame path, the skeleton). One table, `param_layout`, holds the
shape and initial draw of each parameter; `init_params` draws it. A per-layer
compression map, shared between views and branches, produces softmax influence
scores that fuse the level outputs; each fused view is wrapped in a residual
connection and layer normalization. A block reports those scores as
`InfluenceScores`: one per-track array per view, (J, F, L) and (F, J, L).
After every layer the prompt features are summed into the query branch; a
batch runs the prompt branch once per distinct prompt. Location-wise and
pooled affine heads emit the predicted sequence and shape parameters.

Every stage takes (F, J, .) inputs or (B, F, J, .) inputs with a leading
batch axis, which run as one pass over the whole batch. `loss` scores a batch
whose samples mix domains and native joint counts in one masked computation.

The compression map starts at zero with equal biases, so every influence
score is exactly 1/3 at initialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import nd
from .errors import ConfigError, DimensionError, DomainError, StateError
from .motion import (CHANNELS, ROOT_JOINT, SHAPE_PARAMS, Modality, MotionSequence, TaskSample,
                     _as_rng, is_count)
from .nd import NdBuffer

VIEWS = ("temporal", "spatial")
DEFAULT_HIDDEN = 128  # feature width H; soft-anchor factors share it


def _normal(scale=None, loc=0.0):
    """Draw normals about `loc`; the default scale is 1/sqrt(fan-in), shape[0]."""
    return lambda rng, shape: rng.normal(loc, scale or 1.0 / np.sqrt(shape[0]), shape)


def _full(value):
    return lambda rng, shape: np.full(shape, value)


# Level -> (prefix, tensor name -> (rank, initial draw)), in init order; the
# tensors are layer{k}.{branch}.{view}.{prefix}.{name}, of shape (H,) * rank.
_LEVEL_WEIGHTS = {
    "attention": ("attn", {**dict.fromkeys(("wq", "wk", "wv", "wo"), (2, _normal())),
                           "bo": (1, _full(0.0))}),
    "graph": ("graph", {"w": (2, _normal())}),
    "ssm": ("ssm", {"w": (2, _normal()), "b": (1, _full(0.0)), "a_raw": (1, _normal(0.1, 0.5)),
                    **dict.fromkeys(("b_gate", "c", "d"), (1, _normal(0.5)))}),
}
LEVELS = tuple(_LEVEL_WEIGHTS)

# Parent of each joint in the 24-joint SMPL kinematic tree (root is -1).
SMPL_PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21)


def _tree_adjacency(parents, size: int, node: str) -> np.ndarray:
    """Self-loops plus the links of the tree `parents` (root first), rows normalized."""
    if size < 1:
        raise DimensionError(f"adjacency needs at least one {node}, got {size}")
    a = np.eye(size)
    for child, parent in enumerate(parents[1:size], start=1):
        a[child, parent] = a[parent, child] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def skeleton_adjacency(joints: int) -> np.ndarray:
    """Normalized adjacency over the kinematic tree, truncated or padded to
    `joints`. Joints beyond the tree get only a self-loop. Rows sum to one."""
    return _tree_adjacency(SMPL_PARENTS, joints, "joint")


def path_adjacency(length: int) -> np.ndarray:
    """Normalized path-graph adjacency: each position's parent is the one before it."""
    return _tree_adjacency(range(-1, length - 1), length, "position")


@functools.lru_cache(maxsize=None)  # keys are the (view, T) pairs of the configs in use
def _default_adjacency(view: str, length: int) -> np.ndarray:
    # Read-only, since every caller shares the one array.
    a = path_adjacency(length) if view == "temporal" else skeleton_adjacency(length)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NetConfig:
    frames: int = 16
    joints: int = 24
    hidden: int = DEFAULT_HIDDEN
    layers: int = 8

    def __post_init__(self):
        if not all(is_count(n) for n in vars(self).values()):
            raise ConfigError(f"network extents must be positive: {self}")


@dataclass
class XFusionParams:
    """Flat name -> buffer parameter store plus the shape config."""

    config: NetConfig
    tensors: dict[str, NdBuffer]

    def __getitem__(self, name: str) -> NdBuffer:
        try:
            return self.tensors[name]
        except KeyError:
            raise ConfigError(f"missing parameter {name!r}") from None

    def replace(self, name: str, array: np.ndarray) -> None:
        if name not in self.tensors:
            raise ConfigError(f"unknown parameter {name!r}")
        if self.tensors[name].shape != np.shape(array):
            raise DimensionError(f"parameter {name!r} has shape {self.tensors[name].shape}, "
                                 f"got {np.shape(array)}")
        self.tensors[name] = NdBuffer(array)

    def copy(self) -> "XFusionParams":
        return XFusionParams(self.config, dict(self.tensors))

    def count(self) -> int:
        return sum(v.size for v in self.tensors.values())


def soft_keys(index: int) -> tuple[str, str]:
    """Parameter names (w1, w2) of anchor `index`'s soft factors."""
    return f"soft.{index}.w1", f"soft.{index}.w2"


def soft_anchor_of(name: str) -> str | None:
    """The anchor part ("soft.3") of a soft-factor name; None for a network tensor."""
    return name.rsplit(".", 1)[0] if name.startswith("soft.") else None


def param_layout(cfg: NetConfig, anchors=None) -> dict:
    """Every parameter in init order: name -> (shape, initial draw(rng, shape)).

    The compression map is zero with equal (zero) biases; layer norms start at
    identity; everything else draws small scaled normals. When an anchor set
    is given its soft-anchor factors are copied in under `soft_keys(index)`
    so the optimizer can train them; training and evaluation read them there.
    """
    h, n = cfg.hidden, len(LEVELS)
    t = {}
    for branch in ("enc_q", "enc_p"):
        t |= {f"{branch}.w": ((2 * CHANNELS, h), _normal()), f"{branch}.b": ((h,), _full(0.0)),
              f"{branch}.pos_t": ((cfg.frames, h), _normal(0.02)),
              f"{branch}.pos_s": ((cfg.joints, h), _normal(0.02))}
    for k in range(cfg.layers):
        for base in (f"layer{k}.{branch}.{view}" for branch in ("q", "p") for view in VIEWS):
            for prefix, weights in _LEVEL_WEIGHTS.values():
                t |= {f"{base}.{prefix}.{name}": ((h,) * rank, draw)
                      for name, (rank, draw) in weights.items()}
            t |= {f"{base}.ln.g": ((h,), _full(1.0)), f"{base}.ln.b": ((h,), _full(0.0))}
        t |= {f"layer{k}.compress.w": ((n, n * h), _full(0.0)),
              f"layer{k}.compress.b": ((n,), _full(0.0))}
    for head, width in (("pos", CHANNELS), ("shape", SHAPE_PARAMS)):
        t |= {f"head.{head}.w": ((h, width), _normal()), f"head.{head}.b": ((width,), _full(0.0))}
    for i in range(0 if anchors is None else len(anchors)):
        for key, factor in zip(soft_keys(i), (anchors.soft_w1[i], anchors.soft_w2[i])):
            t[key] = factor.shape, _full(factor)
    return t


def init_params(cfg: NetConfig, rng_seed: int, anchors=None) -> XFusionParams:
    """Seeded parameter initialization: `param_layout`'s draws in its order."""
    rng = _as_rng(rng_seed)
    return XFusionParams(cfg, {name: NdBuffer(draw(rng, shape))
                               for name, (shape, draw) in param_layout(cfg, anchors).items()})


def _as_buffer(x, expect_shape=None, what="input") -> NdBuffer:
    if isinstance(x, MotionSequence):
        x = x.values
    if not isinstance(x, NdBuffer):
        x = NdBuffer(x)
    if expect_shape is not None and x.shape != expect_shape:
        raise DimensionError(f"{what} has shape {x.shape}, expected {expect_shape}")
    return x


def encode_context(q_in, p_in, p_gt, u_star, params: XFusionParams) -> tuple[NdBuffer, NdBuffer]:
    """Per-location encoding of query and prompt with positional embeddings.

    The query branch sees [q_in, p_gt] plus the soft anchor; the prompt branch
    sees [p_in, p_gt] and no soft anchor. Inputs are (F, J, C) or (B, F, J, C)
    and must agree on the batch axis; u_star is (..., F, J, H).
    """
    cfg = params.config
    q = _as_buffer(q_in)
    lead = q.shape[:1] if q.ndim == 4 else ()
    shape = lead + (cfg.frames, cfg.joints, CHANNELS)
    q = _as_buffer(q, shape, "query input")
    p = _as_buffer(p_in, shape, "prompt input")
    gt = _as_buffer(p_gt, shape, "prompt target")
    u = _as_buffer(u_star, lead + (cfg.frames, cfg.joints, cfg.hidden), "soft anchor")

    def encode(branch: str, first: NdBuffer) -> NdBuffer:
        cat = nd.concat([first, gt], axis=-1)
        feat = nd.linear(cat, params[f"{branch}.w"], params[f"{branch}.b"])
        feat = nd.add(feat, nd.reshape(params[f"{branch}.pos_t"], (cfg.frames, 1, cfg.hidden)))
        return nd.add(feat, params[f"{branch}.pos_s"])

    h_q = nd.add(encode("enc_q", q), u)
    h_p = encode("enc_p", p)
    return h_q, h_p


def aggregate_level(h: NdBuffer, level: str, view: str, weights: dict[str, NdBuffer]) -> NdBuffer:
    """One aggregation level over tracks laid out as (..., T, H).

    attention: single-head scaled dot-product over T, its core one
    `nd.attention` record. graph: adjacency-mixed linear map; the
    adjacency is the frame path graph in the temporal view and the skeleton
    tree in the spatial view, built once per (view, T). The adjacency is a
    constant operand, so no gradient is formed for it. ssm: causal diagonal
    recurrence along T (projected input u_t; s_t = a*s_{t-1} + b*u_t,
    y_t = c*s_t + d*u_t) with the transition bounded by tanh; the whole
    recurrence is one `nd.scan` record with a reverse-scan backward, and the
    readout one `nd.mul_add` record. Every affine map with a bias is one
    `nd.linear` record.
    """
    if view not in VIEWS:
        raise DomainError(f"unknown view {view!r}; expected one of {VIEWS}")
    if h.ndim < 2:
        raise DimensionError(f"aggregate_level needs (..., T, H), got {h.shape}")
    t_len = h.shape[-2]
    if level == "attention":
        q = nd.matmul(h, weights["wq"])
        k = nd.matmul(h, weights["wk"])
        v = nd.matmul(h, weights["wv"])
        ctx = nd.attention(q, k, v, 1.0 / np.sqrt(q.shape[-1]))
        return nd.linear(ctx, weights["wo"], weights["bo"])
    if level == "graph":
        return nd.matmul(nd.matmul(_default_adjacency(view, t_len), h), weights["w"])
    if level == "ssm":
        u = nd.linear(h, weights["w"], weights["b"])
        s = nd.scan(nd.tanh(weights["a_raw"]), weights["b_gate"], u, axis=u.ndim - 2)
        return nd.mul_add(weights["c"], s, weights["d"], u)
    raise DomainError(f"unknown aggregation level {level!r}; expected one of {LEVELS}")


def cross_level_update(levels: list[NdBuffer], w_compress: NdBuffer,
                       bias: NdBuffer) -> tuple[NdBuffer, np.ndarray]:
    """Fuse level outputs with softmax influence scores.

    Per position: logits = w_compress @ concat(level features) + bias, scores
    = softmax(logits), fused = sum_l score_l * level_l, as one
    `nd.level_fusion` record. Returns the fused features and the score array
    (..., T, L).
    """
    return nd.level_fusion(levels, w_compress, bias)


def _swap_tracks(h: NdBuffer) -> NdBuffer:
    # (..., F, J, H) <-> (..., J, F, H): the temporal view's per-joint tracks.
    axes = list(range(h.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return nd.transpose(h, axes)


def _view_pass(tracks: NdBuffer, params: XFusionParams, layer: int, branch: str,
               view: str) -> tuple[NdBuffer, np.ndarray]:
    # Tracks are (..., J, F, H), over frames, in the temporal view and
    # (..., F, J, H), over joints, in the spatial view.
    base = f"layer{layer}.{branch}.{view}"
    outs = [aggregate_level(tracks, level, view,
                            {name: params[f"{base}.{prefix}.{name}"] for name in weights})
            for level, (prefix, weights) in _LEVEL_WEIGHTS.items()]
    fused, alpha = cross_level_update(outs, params[f"layer{layer}.compress.w"],
                                      params[f"layer{layer}.compress.b"])
    return nd.layer_norm(fused, params[f"{base}.ln.g"], params[f"{base}.ln.b"],
                         skip=tracks), alpha


@dataclass(frozen=True)
class InfluenceScores:
    """Softmax level weights per track position, one array per view.

    raw_temporal is (J, F, L): per joint track, over frames; raw_spatial is
    (F, J, L): per frame track, over joints. A batched pass keeps its leading
    batch axis on both. Per-position means are `raw_*.mean(axis=-3)`.
    """

    raw_temporal: np.ndarray
    raw_spatial: np.ndarray


def xfusion_block(h: NdBuffer, params: XFusionParams, layer: int,
                  branch: str) -> tuple[NdBuffer, InfluenceScores]:
    """One fusion block: the temporal view, then the spatial view, shared compression."""
    joint_tracks, temporal = _view_pass(_swap_tracks(h), params, layer, branch, "temporal")
    out, spatial = _view_pass(_swap_tracks(joint_tracks), params, layer, branch, "spatial")
    return out, InfluenceScores(raw_temporal=temporal, raw_spatial=spatial)


def context_inject(z_p: NdBuffer, z_q: NdBuffer) -> NdBuffer:
    """Prompt-to-query injection: an elementwise sum."""
    if z_p.shape != z_q.shape:
        raise DimensionError(f"inject needs matching shapes, got {z_p.shape} and {z_q.shape}")
    return nd.add(z_p, z_q)


@dataclass(frozen=True)
class ForwardResult:
    prediction: NdBuffer          # (..., F, J, C)
    betas: NdBuffer               # (..., S)
    influence: tuple[dict[str, InfluenceScores], ...]  # per layer: branch -> scores


def _distinct_prompts(p_in: NdBuffer, p_gt: NdBuffer):
    """Group batch rows by the bytes of their (prompt input, prompt target):
    returns `first` (U,), the first row of each distinct prompt, and `rows`
    (B,), each row's distinct prompt, in first-occurrence order; None when
    the inputs are unbatched or every prompt is distinct."""
    if p_in.ndim != 4:
        return None
    index: dict[tuple[bytes, bytes], int] = {}
    rows = [index.setdefault((p.tobytes(), g.tobytes()), len(index))
            for p, g in zip(p_in.array, p_gt.array)]
    if len(index) == len(rows):
        return None
    return np.unique(rows, return_index=True)[1], np.array(rows)


def _in_sequence(first, second):
    return first(), second()


def forward(q_in, p_in, p_gt, u_star, params: XFusionParams) -> ForwardResult:
    """Full network: encode, K dual-branch fusion layers with injection after
    every layer, then the location head and the pooled shape head on the
    query branch. Inputs are (F, J, C) or carry a leading batch axis.

    The prompt branch never sees the query, so a batch runs it once per
    distinct prompt: it keeps the first row of each after encoding, and every
    injection gathers the rows back per sample with `nd.take_rows`. Its
    influence scores are gathered the same way. A batch of distinct prompts
    takes no gather.

    The two blocks of a layer are independent until the injection after it,
    so when `nd.fork_pays` holds for the smaller branch's B*F*J*H elements
    they run at once through `nd.fork`, the prompt block on a thread of
    its own. The tape then holds the records of the sequential pass in the
    same order, and every output and gradient is bitwise the sequential one."""
    cfg = params.config
    p_in, p_gt = _as_buffer(p_in), _as_buffer(p_gt)
    h_q, h_p = encode_context(q_in, p_in, p_gt, u_star, params)
    distinct = _distinct_prompts(p_in, p_gt)
    if distinct is not None:
        first, rows = distinct
        h_p = nd.take_rows(h_p, first)
    pair = nd.fork if nd.fork_pays(min(h_q.size, h_p.size)) else _in_sequence
    influence = []
    for k in range(cfg.layers):
        (z_q, s_q), (h_p, s_p) = pair(functools.partial(xfusion_block, h_q, params, k, "q"),
                                      functools.partial(xfusion_block, h_p, params, k, "p"))
        if distinct is None:
            h_q = context_inject(h_p, z_q)
        else:
            h_q = context_inject(nd.take_rows(h_p, rows), z_q)
            s_p = InfluenceScores(**{name: a[rows] for name, a in vars(s_p).items()})
        influence.append({"q": s_q, "p": s_p})
    prediction = nd.linear(h_q, params["head.pos.w"], params["head.pos.b"])
    lead = h_q.shape[:-3]
    pooled = nd.mean(h_q, axis=(-3, -2))
    rows = int(np.prod(lead, dtype=np.int64))
    betas = nd.linear(nd.reshape(pooled, (rows, cfg.hidden)), params["head.shape.w"],
                      params["head.shape.b"])
    return ForwardResult(prediction=prediction,
                         betas=nd.reshape(betas, lead + (SHAPE_PARAMS,)),
                         influence=tuple(influence))


@dataclass(frozen=True)
class LossWeights:
    position: float = 1.0
    velocity: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        for name in ("position", "velocity", "shape"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise DomainError(f"loss weight {name} must be >= 0, got {getattr(self, name)}")


def loss(prediction: NdBuffer, betas_hat: NdBuffer, samples,
         weights: LossWeights = LossWeights()) -> tuple[NdBuffer, dict[str, float]]:
    """Weighted position + velocity (+ shape for mesh outputs) objective.

    `samples` is one TaskSample scored against an (F, J, C) prediction and
    (S,) betas, or a sequence of B samples scored against (B, F, J, C) and
    (B, S); one sample is the batch of one. Per sample, position is the mean
    Euclidean error over frames and native joints, velocity the same norm on
    frame-to-frame differences of the error, and shape the mean squared beta
    error when the target modality carries betas (0 otherwise). The returned
    total and components are batch means of the per-sample values.

    Samples may differ in native joint count: the error is scaled by
    1/(F * native) on native joints and by 0 on virtual ones before any norm,
    so virtual joints never contribute and their gradient is exactly zero.
    The target positions and betas, that per-joint scale and the mesh mask
    enter as constant float64 arrays, so backward forms no gradient for them.
    """
    single = isinstance(samples, TaskSample)
    batch = [samples] if single else list(samples)
    if not batch:
        raise StateError("loss needs at least one sample")
    targets = [s.query_target for s in batch]
    try:
        target = np.stack([t.values.array for t in targets])
    except ValueError:
        raise DimensionError(f"loss targets disagree on shape: "
                             f"{sorted({t.values.shape for t in targets})}") from None
    expected = target.shape[1:] if single else target.shape
    if prediction.shape != expected:
        raise DimensionError(f"prediction shape {prediction.shape} does not match "
                             f"target {expected}")
    if single:
        prediction = nd.reshape(prediction, target.shape)
        betas_hat = nd.reshape(betas_hat, (1,) + betas_hat.shape)
    b, f, j, _ = target.shape
    native = np.array([t.native_joint_count for t in targets])
    scale = np.where(np.arange(j) < native[:, None], 1.0 / (f * native[:, None]), 0.0)
    err = nd.mul(nd.sub(prediction, target), scale.reshape(b, 1, j, 1))

    def mean_norm(x: NdBuffer) -> NdBuffer:
        # Batch mean of the per-sample sums of scaled per-location norms.
        per_sample = nd.reduce_sum(nd.sqrt(nd.reduce_sum(nd.square(x), axis=-1)), axis=(1, 2))
        return nd.mean(per_sample)

    position = mean_norm(err)
    total = nd.mul(position, weights.position)
    components = {"position": position.item()}

    if f > 1:
        vel_err = nd.sub(nd.slice_axis(err, 1, 1, f), nd.slice_axis(err, 1, 0, f - 1))
        velocity = nd.mul(mean_norm(vel_err), f / (f - 1))  # per-frame scale 1/(F-1)
    else:
        velocity = NdBuffer(0.0)
    total = nd.add(total, nd.mul(velocity, weights.velocity))
    components["velocity"] = velocity.item()

    mesh = np.array([t.modality is Modality.MESH for t in targets], dtype=np.float64)
    if mesh.any():
        target_betas = np.stack([s.target_betas for s in batch])
        if betas_hat.shape != target_betas.shape:
            raise DimensionError(f"beta prediction shape {betas_hat.shape} does not match "
                                 f"target {target_betas.shape}")
        per_sample = nd.mean(nd.square(nd.sub(betas_hat, target_betas)), axis=-1)
        shape_term = nd.mean(nd.mul(per_sample, mesh))
        total = nd.add(total, nd.mul(shape_term, weights.shape))
        components["shape"] = shape_term.item()
    else:
        components["shape"] = 0.0
    components["total"] = total.item()
    return total, components


def _native_error(prediction, target: MotionSequence, root_aligned: bool) -> float:
    """Mean L2 error over frames and native joints of a prediction (sequence,
    buffer or array), each frame's root joint subtracted when `root_aligned`."""
    values = prediction.values if isinstance(prediction, MotionSequence) else prediction
    pred = np.asarray(values.array if isinstance(values, NdBuffer) else values, dtype=np.float64)
    tgt = target.values.array
    if pred.shape != tgt.shape:
        raise DimensionError(f"prediction shape {pred.shape} does not match target {tgt.shape}")
    n = target.native_joint_count
    pred, tgt = pred[:, :n, :], tgt[:, :n, :]
    if root_aligned:
        pred, tgt = pred - pred[:, ROOT_JOINT, None], tgt - tgt[:, ROOT_JOINT, None]
    return float(np.sqrt(((pred - tgt) ** 2).sum(axis=-1)).mean())


def mpjpe(prediction, target: MotionSequence) -> float:
    """Mean per-joint position error after root alignment, native joints only."""
    if target.modality is Modality.MESH:
        raise DomainError("mpjpe is defined for pose modalities, not mesh parameters")
    return _native_error(prediction, target, root_aligned=True)


def mean_param_error(prediction, target: MotionSequence) -> float:
    """Mean per-joint L2 error in parameter space (mesh outputs), native only."""
    return _native_error(prediction, target, root_aligned=False)
