"""Dual-branch fusion network over unified motion sequences.

Query and prompt sequences are encoded per location into H-dim features with
positional embeddings; the retrieved soft anchor is added to the query branch
only. Each layer runs three aggregation levels (self-attention, graph
convolution over a fixed normalized adjacency, and a causal diagonal
state-space recurrence) in a temporal view (per-joint tracks over frames) and
then a spatial view (per-frame tracks over joints). A per-layer compression
map, shared between views and branches, produces softmax influence scores
that fuse the level outputs; each fused view is wrapped in a residual
connection and layer normalization. After every layer the prompt features are
summed into the query branch. Location-wise and pooled affine heads emit the
predicted sequence and shape parameters.

The compression map starts at zero with equal biases, so every influence
score is exactly 1/3 at initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nd
from .errors import ConfigError, DimensionError, DomainError
from .motion import CHANNELS, ROOT_JOINT, SHAPE_PARAMS, Modality, MotionSequence, TaskSample
from .nd import NdBuffer

LEVELS = ("attention", "graph", "ssm")
VIEWS = ("temporal", "spatial")
LN_EPS = 1e-5

# Parent of each joint in the 24-joint SMPL kinematic tree (root is -1).
SMPL_PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21)


def skeleton_adjacency(joints: int) -> np.ndarray:
    """Normalized adjacency over the kinematic tree, truncated or padded to
    `joints`. Joints beyond the tree get only a self-loop. Rows sum to one."""
    if joints < 1:
        raise DimensionError(f"adjacency needs at least one joint, got {joints}")
    a = np.zeros((joints, joints))
    for child in range(1, min(joints, len(SMPL_PARENTS))):
        parent = SMPL_PARENTS[child]
        a[child, parent] = 1.0
        a[parent, child] = 1.0
    a += np.eye(joints)
    return a / a.sum(axis=1, keepdims=True)


def path_adjacency(length: int) -> np.ndarray:
    """Normalized path-graph adjacency linking each position to its neighbors."""
    if length < 1:
        raise DimensionError(f"adjacency needs at least one position, got {length}")
    a = np.eye(length)
    idx = np.arange(length - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a / a.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class NetConfig:
    frames: int = 16
    joints: int = 24
    hidden: int = 128
    layers: int = 8
    shape_params: int = SHAPE_PARAMS
    view_order: tuple[str, ...] = VIEWS

    def __post_init__(self):
        if min(self.frames, self.joints, self.hidden, self.layers) < 1:
            raise ConfigError(f"network extents must be positive: {self}")
        if sorted(self.view_order) != sorted(VIEWS):
            raise ConfigError(f"view_order must arrange {VIEWS}, got {self.view_order}")


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
        self.tensors[name] = NdBuffer._wrap(np.array(array, dtype=np.float64))

    def copy(self) -> "XFusionParams":
        return XFusionParams(self.config, dict(self.tensors))

    def count(self) -> int:
        return sum(v.size for v in self.tensors.values())


def init_params(cfg: NetConfig, rng_seed: int, anchors=None) -> XFusionParams:
    """Seeded parameter initialization.

    The compression map is zero with equal (zero) biases; layer norms start at
    identity; everything else draws small scaled normals. When an anchor set
    is given its soft-anchor factors are copied in under soft.{index}.{w1,w2}
    so the optimizer can train them.
    """
    rng = np.random.default_rng(rng_seed)
    h = cfg.hidden
    t: dict[str, np.ndarray] = {}

    def normal(shape, scale):
        return rng.normal(scale=scale, size=shape)

    for branch in ("enc_q", "enc_p"):
        t[f"{branch}.w"] = normal((2 * CHANNELS, h), 1.0 / np.sqrt(2 * CHANNELS))
        t[f"{branch}.b"] = np.zeros(h)
        t[f"{branch}.pos_t"] = normal((cfg.frames, h), 0.02)
        t[f"{branch}.pos_s"] = normal((cfg.joints, h), 0.02)
    for k in range(cfg.layers):
        for branch in ("q", "p"):
            for view in VIEWS:
                base = f"layer{k}.{branch}.{view}"
                s = 1.0 / np.sqrt(h)
                t[f"{base}.attn.wq"] = normal((h, h), s)
                t[f"{base}.attn.wk"] = normal((h, h), s)
                t[f"{base}.attn.wv"] = normal((h, h), s)
                t[f"{base}.attn.wo"] = normal((h, h), s)
                t[f"{base}.attn.bo"] = np.zeros(h)
                t[f"{base}.graph.w"] = normal((h, h), s)
                t[f"{base}.ssm.w"] = normal((h, h), s)
                t[f"{base}.ssm.b"] = np.zeros(h)
                t[f"{base}.ssm.a_raw"] = normal((h,), 0.1) + 0.5
                t[f"{base}.ssm.b_gate"] = normal((h,), 0.5)
                t[f"{base}.ssm.c"] = normal((h,), 0.5)
                t[f"{base}.ssm.d"] = normal((h,), 0.5)
                t[f"{base}.ln.g"] = np.ones(h)
                t[f"{base}.ln.b"] = np.zeros(h)
        t[f"layer{k}.compress.w"] = np.zeros((len(LEVELS), len(LEVELS) * h))
        t[f"layer{k}.compress.b"] = np.zeros(len(LEVELS))
    t["head.pos.w"] = normal((h, CHANNELS), 1.0 / np.sqrt(h))
    t["head.pos.b"] = np.zeros(CHANNELS)
    t["head.shape.w"] = normal((h, cfg.shape_params), 1.0 / np.sqrt(h))
    t["head.shape.b"] = np.zeros(cfg.shape_params)
    if anchors is not None:
        for i in range(len(anchors)):
            t[f"soft.{i}.w1"] = np.array(anchors.soft_w1[i])
            t[f"soft.{i}.w2"] = np.array(anchors.soft_w2[i])
    return XFusionParams(cfg, {k: NdBuffer(v) for k, v in t.items()})


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
    sees [p_in, p_gt] and no soft anchor.
    """
    cfg = params.config
    shape = (cfg.frames, cfg.joints, CHANNELS)
    q = _as_buffer(q_in, shape, "query input")
    p = _as_buffer(p_in, shape, "prompt input")
    gt = _as_buffer(p_gt, shape, "prompt target")
    u = _as_buffer(u_star, (cfg.frames, cfg.joints, cfg.hidden), "soft anchor")

    def encode(branch: str, first: NdBuffer) -> NdBuffer:
        cat = nd.concat([first, gt], axis=2)
        feat = nd.add(nd.matmul(cat, params[f"{branch}.w"]), params[f"{branch}.b"])
        feat = nd.add(feat, nd.reshape(params[f"{branch}.pos_t"], (cfg.frames, 1, cfg.hidden)))
        return nd.add(feat, params[f"{branch}.pos_s"])

    h_q = nd.add(encode("enc_q", q), u)
    h_p = encode("enc_p", p)
    return h_q, h_p


def aggregate_level(h: NdBuffer, level: str, view: str, weights: dict[str, NdBuffer],
                    adjacency: np.ndarray | None = None) -> NdBuffer:
    """One aggregation level over tracks laid out as (..., T, H).

    attention: single-head scaled dot-product over T. graph: adjacency-mixed
    linear map; the default adjacency is the frame path graph in the temporal
    view and the skeleton tree in the spatial view. ssm: causal diagonal
    recurrence along T (projected input u_t; s_t = a*s_{t-1} + b*u_t,
    y_t = c*s_t + d*u_t) with the transition bounded by tanh; the whole
    recurrence is one `nd.scan` record with a reverse-scan backward.
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
        scale = 1.0 / np.sqrt(q.shape[-1])
        scores = nd.mul(nd.matmul(q, nd.swap_last2(k)), scale)
        ctx = nd.matmul(nd.softmax_lastdim(scores), v)
        return nd.add(nd.matmul(ctx, weights["wo"]), weights["bo"])
    if level == "graph":
        if adjacency is None:
            adjacency = path_adjacency(t_len) if view == "temporal" else skeleton_adjacency(t_len)
        if adjacency.shape != (t_len, t_len):
            raise DimensionError(f"adjacency {adjacency.shape} does not match T={t_len}")
        mixed = nd.matmul(NdBuffer(adjacency), h)
        return nd.matmul(mixed, weights["w"])
    if level == "ssm":
        u = nd.add(nd.matmul(h, weights["w"]), weights["b"])
        s = nd.scan(nd.tanh(weights["a_raw"]), weights["b_gate"], u, axis=u.ndim - 2)
        return nd.add(nd.mul(weights["c"], s), nd.mul(weights["d"], u))
    raise DomainError(f"unknown aggregation level {level!r}; expected one of {LEVELS}")


def cross_level_update(levels: list[NdBuffer], w_compress: NdBuffer,
                       bias: NdBuffer) -> tuple[NdBuffer, np.ndarray]:
    """Fuse level outputs with softmax influence scores.

    Per position: logits = w_compress @ concat(level features) + bias, scores
    = softmax(logits), fused = sum_l score_l * level_l. Returns the fused
    features and the score array (..., T, L).
    """
    n = len(levels)
    if n == 0:
        raise DimensionError("cross_level_update needs at least one level")
    shape = levels[0].shape
    for y in levels:
        if y.shape != shape:
            raise DimensionError(f"level shapes disagree: {shape} vs {y.shape}")
    width = shape[-1]
    if w_compress.shape != (n, n * width):
        raise DimensionError(f"compression map has shape {w_compress.shape}, "
                             f"expected {(n, n * width)} for {n} levels of width {width}")
    cat = nd.concat(levels, axis=-1)
    logits = nd.add(nd.matmul(cat, nd.swap_last2(w_compress)), bias)
    alpha = nd.softmax_lastdim(logits)
    fused = None
    for l, y in enumerate(levels):
        piece = nd.mul(nd.slice_axis(alpha, alpha.ndim - 1, l, l + 1), y)
        fused = piece if fused is None else nd.add(fused, piece)
    return fused, alpha.array


def _layer_norm(h: NdBuffer, gamma: NdBuffer, beta: NdBuffer) -> NdBuffer:
    mu = nd.mean(h, axis=-1, keepdims=True)
    centered = nd.sub(h, mu)
    var = nd.mean(nd.square(centered), axis=-1, keepdims=True)
    inv = nd.div(1.0, nd.sqrt(nd.add(var, LN_EPS)))
    return nd.add(nd.mul(nd.mul(centered, inv), gamma), beta)


def _view_pass(h: NdBuffer, params: XFusionParams, layer: int, branch: str,
               view: str) -> tuple[NdBuffer, np.ndarray]:
    # h arrives as (F, J, H); tracks run over frames in the temporal view and
    # over joints in the spatial view.
    base = f"layer{layer}.{branch}.{view}"
    tracks = nd.transpose(h, (1, 0, 2)) if view == "temporal" else h
    outs = []
    for level in LEVELS:
        if level == "attention":
            w = {k: params[f"{base}.attn.{k}"] for k in ("wq", "wk", "wv", "wo", "bo")}
        elif level == "graph":
            w = {"w": params[f"{base}.graph.w"]}
        else:
            w = {"w": params[f"{base}.ssm.w"], "b": params[f"{base}.ssm.b"],
                 "a_raw": params[f"{base}.ssm.a_raw"], "b_gate": params[f"{base}.ssm.b_gate"],
                 "c": params[f"{base}.ssm.c"], "d": params[f"{base}.ssm.d"]}
        outs.append(aggregate_level(tracks, level, view, w))
    fused, alpha = cross_level_update(outs, params[f"layer{layer}.compress.w"],
                                      params[f"layer{layer}.compress.b"])
    wrapped = _layer_norm(nd.add(tracks, fused), params[f"{base}.ln.g"], params[f"{base}.ln.b"])
    if view == "temporal":
        wrapped = nd.transpose(wrapped, (1, 0, 2))
    return wrapped, alpha


@dataclass(frozen=True)
class InfluenceScores:
    """Mean softmax level weights per position, plus the per-track arrays.

    temporal: (F, L) averaged over joint tracks; spatial: (J, L) averaged over
    frames. raw_temporal is (J, F, L) and raw_spatial (F, J, L).
    """

    temporal: np.ndarray
    spatial: np.ndarray
    raw_temporal: np.ndarray
    raw_spatial: np.ndarray


def xfusion_block(h: NdBuffer, params: XFusionParams, layer: int,
                  branch: str) -> tuple[NdBuffer, InfluenceScores]:
    """One fusion block: both views in configured order, shared compression."""
    alphas: dict[str, np.ndarray] = {}
    out = h
    for view in params.config.view_order:
        out, alphas[view] = _view_pass(out, params, layer, branch, view)
    return out, InfluenceScores(
        temporal=alphas["temporal"].mean(axis=0),
        spatial=alphas["spatial"].mean(axis=0),
        raw_temporal=alphas["temporal"],
        raw_spatial=alphas["spatial"],
    )


def context_inject(z_p: NdBuffer, z_q: NdBuffer) -> NdBuffer:
    """Prompt-to-query injection: an elementwise sum."""
    if z_p.shape != z_q.shape:
        raise DimensionError(f"inject needs matching shapes, got {z_p.shape} and {z_q.shape}")
    return nd.add(z_p, z_q)


@dataclass(frozen=True)
class ForwardResult:
    prediction: NdBuffer          # (F, J, C)
    betas: NdBuffer               # (S,)
    influence: tuple[dict[str, InfluenceScores], ...]  # per layer: branch -> scores


def forward(q_in, p_in, p_gt, u_star, params: XFusionParams) -> ForwardResult:
    """Full network: encode, K dual-branch fusion layers with injection after
    every layer, then the location head and the pooled shape head on the
    query branch."""
    cfg = params.config
    if u_star is None:
        u_star = NdBuffer._wrap(np.zeros((cfg.frames, cfg.joints, cfg.hidden)))
    h_q, h_p = encode_context(q_in, p_in, p_gt, u_star, params)
    influence = []
    for k in range(cfg.layers):
        z_q, s_q = xfusion_block(h_q, params, k, "q")
        z_p, s_p = xfusion_block(h_p, params, k, "p")
        h_q = context_inject(z_p, z_q)
        h_p = z_p
        influence.append({"q": s_q, "p": s_p})
    prediction = nd.add(nd.matmul(h_q, params["head.pos.w"]), params["head.pos.b"])
    pooled = nd.mean(h_q, axis=(0, 1))
    betas = nd.add(nd.matmul(nd.reshape(pooled, (1, cfg.hidden)), params["head.shape.w"]),
                   params["head.shape.b"])
    return ForwardResult(prediction=prediction, betas=nd.reshape(betas, (cfg.shape_params,)),
                         influence=tuple(influence))


@dataclass(frozen=True)
class LossWeights:
    position: float = 1.0
    velocity: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        for name in ("position", "velocity", "shape"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"loss weight {name} must be >= 0, got {getattr(self, name)}")


def loss(prediction: NdBuffer, betas_hat: NdBuffer, sample: TaskSample,
         weights: LossWeights = LossWeights()) -> tuple[NdBuffer, dict[str, float]]:
    """Weighted position + velocity (+ shape for mesh outputs) objective.

    Position: mean Euclidean error per frame and native joint. Velocity: the
    same norm on frame-to-frame differences of the error. Shape: mean squared
    beta error, only when the target modality carries betas. Virtual joints
    never contribute (native joints are a leading block by construction).
    """
    target = sample.query_target
    native = target.native_joint_count
    f = target.frames
    if prediction.shape != target.values.shape:
        raise DimensionError(f"prediction shape {prediction.shape} does not match "
                             f"target {target.values.shape}")
    err = nd.sub(nd.slice_axis(prediction, 1, 0, native),
                 NdBuffer._wrap(np.ascontiguousarray(target.values.array[:, :native, :])))
    position = nd.mean(nd.sqrt(nd.reduce_sum(nd.square(err), axis=-1)))
    total = nd.mul(position, weights.position)
    components = {"position": position.item()}

    if f > 1:
        vel_err = nd.sub(nd.slice_axis(err, 0, 1, f), nd.slice_axis(err, 0, 0, f - 1))
        velocity = nd.mean(nd.sqrt(nd.reduce_sum(nd.square(vel_err), axis=-1)))
    else:
        velocity = NdBuffer(0.0)
    total = nd.add(total, nd.mul(velocity, weights.velocity))
    components["velocity"] = velocity.item()

    mesh_output = target.modality is Modality.MESH
    if mesh_output:
        if betas_hat.shape != sample.target_betas.shape:
            raise DimensionError(f"beta prediction shape {betas_hat.shape} does not match "
                                 f"target {sample.target_betas.shape}")
        shape_term = nd.mean(nd.square(nd.sub(betas_hat, NdBuffer(sample.target_betas))))
        total = nd.add(total, nd.mul(shape_term, weights.shape))
        components["shape"] = shape_term.item()
    else:
        components["shape"] = 0.0
    components["total"] = total.item()
    return total, components


def mpjpe(prediction, target: MotionSequence) -> float:
    """Mean per-joint position error after root alignment, native joints only."""
    if target.modality is Modality.MESH:
        raise DomainError("mpjpe is defined for pose modalities, not mesh parameters")
    pred = prediction.values.array if isinstance(prediction, MotionSequence) else (
        prediction.array if isinstance(prediction, NdBuffer) else np.asarray(prediction, dtype=np.float64))
    tgt = target.values.array
    if pred.shape != tgt.shape:
        raise DimensionError(f"prediction shape {pred.shape} does not match target {tgt.shape}")
    n = target.native_joint_count
    pred = pred[:, :n, :] - pred[:, ROOT_JOINT:ROOT_JOINT + 1, :]
    tgt = tgt[:, :n, :] - tgt[:, ROOT_JOINT:ROOT_JOINT + 1, :]
    return float(np.sqrt(((pred - tgt) ** 2).sum(axis=-1)).mean())


def mean_param_error(prediction, target: MotionSequence) -> float:
    """Mean per-joint L2 error in parameter space (mesh outputs), native only."""
    pred = prediction.values.array if isinstance(prediction, MotionSequence) else (
        prediction.array if isinstance(prediction, NdBuffer) else np.asarray(prediction, dtype=np.float64))
    tgt = target.values.array
    if pred.shape != tgt.shape:
        raise DimensionError(f"prediction shape {pred.shape} does not match target {tgt.shape}")
    n = target.native_joint_count
    return float(np.sqrt(((pred[:, :n, :] - tgt[:, :n, :]) ** 2).sum(axis=-1)).mean())
