"""Fusion network: encoding, levels, fusion, forward, losses, metrics."""

import hashlib
import math
import re
import weakref

import numpy as np
import pytest

from helpers import make_clip, memory_blocks, tape_holdings
from motionctx import network, nd
from motionctx.errors import ConfigError, DimensionError, DomainError, NumericError
from motionctx.motion import SHAPE_PARAMS, Modality, MotionSequence, derive_task, unify_pose3d
from motionctx.nd import NdBuffer, Tape
from motionctx.network import (LEVELS, VIEWS, LossWeights, NetConfig, aggregate_level,
                               context_inject, cross_level_update, encode_context, forward,
                               init_params, loss, mean_param_error, mpjpe, path_adjacency,
                               skeleton_adjacency, xfusion_block)
from motionctx.prompting import random_sample, soft_anchor_value
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import AdamWState, TrainConfig, anchor_corpus, build_batch, train_step


def small_cfg(**kw):
    base = dict(frames=3, joints=4, hidden=6, layers=2)
    base.update(kw)
    return NetConfig(**base)


def test_adjacency_structure():
    for a in (skeleton_adjacency(24), skeleton_adjacency(6), path_adjacency(5), path_adjacency(1)):
        assert np.allclose(a.sum(axis=1), 1.0)
        assert np.all(np.diag(a) > 0.0)
        assert np.array_equal(a > 0, (a > 0).T)  # symmetric support
    # kinematic tree: joint 4 is a child of joint 1, never of joint 2
    a = skeleton_adjacency(24)
    assert a[4, 1] > 0 and a[4, 2] == 0
    # joints beyond the tree only see themselves
    wide = skeleton_adjacency(30)
    assert np.all(wide[29] == np.eye(30)[29])


def test_adjacency_values_are_pinned():
    path = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]]) / [[2], [3], [3], [2]]
    assert np.array_equal(path_adjacency(4), path)
    # joints 1, 2 and 3 hang off the root, joint 4 off joint 1
    tree = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 1], [1, 0, 1, 0, 0], [1, 0, 0, 1, 0],
                     [0, 1, 0, 0, 1]]) / [[4], [3], [2], [2], [2]]
    assert np.array_equal(skeleton_adjacency(5), tree)
    assert np.array_equal(skeleton_adjacency(1), [[1.0]])


def test_config_validation():
    for kwargs in ({"frames": 0}, {"frames": 2.5}, {"hidden": True}, {"layers": float("inf")}):
        with pytest.raises(ConfigError):
            NetConfig(**kwargs)


def test_replace_keeps_buffers_finite():
    params = init_params(small_cfg(layers=1), 0)
    with pytest.raises(NumericError):
        params.replace("head.pos.b", [np.nan, 1.0, np.inf])
    with pytest.raises(ConfigError):
        params.replace("head.pos.c", [0.0, 1.0, 2.0])
    with pytest.raises(DimensionError):
        params.replace("head.pos.b", [0.0, 1.0])
    params.replace("head.pos.b", [0.0, 1.0, 2.0])
    assert np.array_equal(params["head.pos.b"].array, [0.0, 1.0, 2.0])


# sha256 of init_params(cfg, 0) over names in insertion order, shapes and bytes.
INIT_SHA256 = {
    (8, 6, 16, 1, True): "611093f1049caf020f81711c395c6de2ba5af5632a3710832073e3615bcbea05",
    (8, 6, 16, 2, False): "529441c1336c7e9bcae489e0483cff4d36dd56f9fa41ad7bab5779c51d620879",
    (16, 24, 128, 8, False): "a6ed25b255674beae359faa13b5101782e8d63917dec2bc39ebbbe64974d4ead",
}


@pytest.mark.parametrize("frames,joints,hidden,layers,soft", sorted(INIT_SHA256))
def test_init_params_are_pinned_in_order(frames, joints, hidden, layers, soft):
    cfg = NetConfig(frames=frames, joints=joints, hidden=hidden, layers=layers)
    anchors = None
    if soft:  # 5 anchors: the rest pose and 4 random picks
        clips = make_dataset(SynthConfig(clips=4, frames=frames, joints=joints, seed=1))
        anchors = random_sample(anchor_corpus(clips, seed=0), 4, 0, hidden_dim=hidden)
        assert len(anchors) == 5
    params = init_params(cfg, 0, anchors=anchors)
    h = hashlib.sha256()
    for name, buf in params.tensors.items():
        h.update(f"{name}{buf.shape}".encode())
        h.update(buf.array.tobytes())
    assert h.hexdigest() == INIT_SHA256[(frames, joints, hidden, layers, soft)]
    layout = network.param_layout(cfg, anchors)
    assert list(layout) == list(params.tensors)
    assert all(layout[k][0] == v.shape for k, v in params.tensors.items())


@pytest.mark.parametrize("field", ["frames", "joints", "hidden"])
def test_init_params_rejects_an_anchor_set_of_another_shape(field):
    # The anchors' frames and joints come from their clips, their hidden
    # width from the sampler; each must be the config's.
    cfg = NetConfig(frames=4, joints=6, hidden=4, layers=1)
    clips = make_dataset(SynthConfig(clips=2, frames=4, joints=6, seed=0))
    anchors = random_sample(anchor_corpus(clips, domains=("pe",)), 2, 0, hidden_dim=4)
    with_soft = init_params(cfg, 0, anchors=anchors).tensors
    assert list(with_soft) == list(init_params(cfg, 0).tensors) + list(network.SOFT_TABLES)
    assert [with_soft[name].shape for name in network.SOFT_TABLES] == [(3, 4, 6, 1), (3, 1, 1, 4)]
    other = NetConfig(**{**vars(cfg), field: 2 * getattr(cfg, field)})
    with pytest.raises(DimensionError) as err:
        init_params(other, 0, anchors=anchors)
    assert "(4, 6, 4)" in str(err.value)
    assert str((other.frames, other.joints, other.hidden)) in str(err.value)


def test_encode_context_bias_broadcast_and_soft_add():
    cfg = small_cfg(layers=1)
    params = init_params(cfg, 0)
    bias = np.arange(cfg.hidden, dtype=np.float64)
    params.replace("enc_q.b", bias)
    params.replace("enc_q.pos_t", np.zeros((cfg.frames, cfg.hidden)))
    params.replace("enc_q.pos_s", np.zeros((cfg.joints, cfg.hidden)))
    zero = NdBuffer(np.zeros((cfg.frames, cfg.joints, 3)))
    zero_u = NdBuffer(np.zeros((cfg.frames, cfg.joints, cfg.hidden)))
    h_q, h_p = encode_context(zero, zero, zero, zero_u, params)
    assert np.array_equal(h_q.array, np.broadcast_to(bias, h_q.shape))
    assert h_p.shape == (cfg.frames, cfg.joints, cfg.hidden)

    rng = np.random.default_rng(0)
    q = NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, 3)))
    u = NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, cfg.hidden)))
    with_u, _ = encode_context(q, zero, zero, u, params)
    without, _ = encode_context(q, zero, zero, zero_u, params)
    assert np.allclose(with_u.array - without.array, u.array, atol=1e-12)


def test_encode_context_output_shape_at_reference_size():
    cfg = NetConfig(frames=16, joints=24, hidden=128, layers=1)
    params = init_params(cfg, 1)
    zero = NdBuffer(np.zeros((16, 24, 3)))
    u = NdBuffer(np.zeros((16, 24, 128)))
    h_q, h_p = encode_context(zero, zero, zero, u, params)
    assert h_q.shape == (16, 24, 128)
    assert h_p.shape == (16, 24, 128)


def test_soft_anchor_rank_one_frames():
    rng = np.random.default_rng(2)
    w1 = rng.normal(size=(3, 5, 1))
    w2 = rng.normal(size=(1, 1, 7))
    u = soft_anchor_value(w1, w2).array
    assert u.shape == (3, 5, 7)
    for f in range(3):
        assert np.linalg.matrix_rank(u[f]) == 1


def _attn_weights(h, hp, seed=0):
    rng = np.random.default_rng(seed)
    return {"wq": NdBuffer(rng.normal(size=(h, hp))), "wk": NdBuffer(rng.normal(size=(h, hp))),
            "wv": NdBuffer(rng.normal(size=(h, hp))), "wo": NdBuffer(rng.normal(size=(hp, hp))),
            "bo": NdBuffer(rng.normal(size=(hp,)))}


def test_attention_single_token_is_value_then_output():
    h = NdBuffer(np.random.default_rng(3).normal(size=(1, 4)))
    w = _attn_weights(4, 4, seed=4)
    out = aggregate_level(h, "attention", "temporal", w)
    want = h.array @ w["wv"].array @ w["wo"].array + w["bo"].array
    assert np.allclose(out.array, want, atol=1e-12)


@pytest.mark.parametrize("view,lead", [("temporal", ()), ("spatial", ()), ("spatial", (2, 3))])
def test_graph_adjacency_is_a_constant(view, lead):
    t_len, width = 5, 8
    rng = np.random.default_rng(31)
    h = NdBuffer(rng.normal(size=lead + (t_len, width)))
    w = {"w": NdBuffer(rng.normal(size=(width, width)))}
    with Tape() as tape:
        out = aggregate_level(h, "graph", view, w)
    fresh = path_adjacency(t_len) if view == "temporal" else skeleton_adjacency(t_len)
    assert np.array_equal(out.array, nd.matmul(nd.matmul(NdBuffer(fresh), h), w["w"]).array)
    # The adjacency is built once per (view, T), frozen, and never an input
    # of a record, so no backward forms a gradient for it.
    cached = network._default_adjacency(view, t_len)
    assert cached is network._default_adjacency(view, t_len)
    assert not cached.flags.writeable and np.array_equal(cached, fresh)
    grads = []
    for _, rec_out, backward in tape._records:
        grads += [key.shape for key, _ in backward(np.ones(rec_out.shape))]
    assert (t_len, t_len) not in grads and len(grads) == 3  # h, w, and the mixed tracks


@pytest.mark.parametrize("bad", [[1, 2], "anchors", 0], ids=["list", "string", "int"])
def test_init_params_rejects_what_is_not_an_anchor_set(bad):
    with pytest.raises(DomainError, match=f"^init_params needs an AnchorSet or None, "
                                          f"got {re.escape(repr(bad))}$"):
        init_params(small_cfg(layers=1), 0, anchors=bad)


def _step_tapes(monkeypatch, net, batch_size, seed):
    # The tapes a train step takes gradients on.
    clips = make_dataset(SynthConfig(clips=8, frames=net.frames, joints=net.joints,
                                     native_pose_joints=net.joints - 1, seed=1))
    anchors = random_sample(anchor_corpus(clips, seed=0), 8, 0, hidden_dim=net.hidden)
    params = init_params(net, 1, anchors=anchors)
    batch = build_batch(clips, anchors, batch_size, seed)
    assert any(s.query_target.modality is Modality.MESH for s, _ in batch)
    tapes = []
    grad = Tape.grad
    monkeypatch.setattr(Tape, "grad", lambda self, *a: tapes.append(self) or grad(self, *a))
    cfg = TrainConfig(batch_size=batch_size)
    train_step(batch, params, AdamWState(), cfg, cfg.learning_rate)
    return tapes


def _count_step_records(monkeypatch, net, batch_size, seed):
    return [len(tape) for tape in _step_tapes(monkeypatch, net, batch_size, seed)]


def _held_bytes(tape) -> int:
    return sum(a.nbytes for a in memory_blocks(tape_holdings(tape._records)).values())


def test_tape_records_per_pass(monkeypatch):
    # Each view pass writes 25 records fewer than the composite chains did:
    # one record each for attention, level fusion and layer norm. It writes
    # 5 fewer again since `linear` folds the attention output map's and the
    # ssm input map's bias adds, `mul_add` the ssm readout's mul, mul, add,
    # and the layer norm takes the residual add; the encoders and heads write
    # 4 fewer (4 `linear` for 4 bias adds). A step thus writes 5 * 4 * L + 4
    # fewer: toy L=1 128 -> 104, L=8 665 -> 501, the L=2 forward 174 -> 130.
    # The shape head then took the pooled features as they are, with no
    # reshape before or after its `linear`, so every pass writes 2 fewer again:
    # 102, 499 and 128. The toy batch retrieves 5 distinct anchors for 8
    # samples, so its prompt branch adds one `take_rows` after encoding and
    # one per layer (100 + 2); the paper-layered batch retrieves 4 distinct
    # anchors and takes none.
    toy = NetConfig(frames=8, joints=6, hidden=16, layers=1)
    assert _count_step_records(monkeypatch, toy, 8, 1) == [102]
    paper_layers = NetConfig(frames=4, joints=5, hidden=8, layers=8)
    assert _count_step_records(monkeypatch, paper_layers, 4, 1) == [499]
    gradcheck = NetConfig(frames=4, joints=5, hidden=8, layers=2)  # criterion 06's network
    inputs = _toy_inputs(gradcheck)
    params = init_params(gradcheck, 0)
    with Tape() as tape:
        forward(*inputs, params)
    assert len(tape) == 128


def test_tape_holds_keys_and_pinned_bytes(monkeypatch):
    # Records and backward closures hold gradient keys and only the arrays
    # backward reads, never a buffer, so no op can keep its inputs or output
    # alive unread. The pinned bytes are those of the distinct memory blocks
    # they reach (weights included) for the two steps of
    # test_tape_records_per_pass; holding every record's output and its
    # operand buffers, as the tape once did, reached 3,098,904 and 2,710,464.
    # The paper-layered step runs again with the blocks forked.
    toy = NetConfig(frames=8, joints=6, hidden=16, layers=1)
    paper_layers = NetConfig(frames=4, joints=5, hidden=8, layers=8)
    [toy_tape] = _step_tapes(monkeypatch, toy, 8, 1)
    [paper_tape] = _step_tapes(monkeypatch, paper_layers, 4, 1)
    monkeypatch.setattr(nd, "fork_pays", lambda work: True)
    [forked_tape] = _step_tapes(monkeypatch, paper_layers, 4, 1)
    assert forked_tape._pairs
    for tape in (toy_tape, paper_tape, forked_tape):
        held = tape_holdings(tape._records)
        assert not any(isinstance(obj, NdBuffer) for obj in held)
        assert all(isinstance(key, nd.GradKey) for _, key, _ in tape._records)
    assert [_held_bytes(tape) for tape in (toy_tape, paper_tape, forked_tape)] == [
        2_199_064, 2_274_232, 2_274_232]


def test_fused_outputs_are_freed_during_the_taped_forward(monkeypatch):
    # No backward reads a level_fusion or a layer_norm output (the norm keeps
    # its x_hat, the swap and the injection add only shapes), so each is
    # collected once the forward drops it, while the tape lives on; the
    # gradients are those of a pass that kept every output alive.
    cfg = NetConfig(frames=4, joints=5, hidden=8, layers=2)
    params = init_params(cfg, 3)
    rng = np.random.default_rng(42)
    q, p, gt = (NdBuffer(rng.normal(size=(2, cfg.frames, cfg.joints, 3))) for _ in range(3))
    u = NdBuffer(rng.normal(size=(2, cfg.frames, cfg.joints, cfg.hidden)))
    leaves = list(params.tensors.values())

    def taped():
        with Tape() as tape:
            result = forward(q, p, gt, u, params)
            total = nd.reduce_sum(nd.square(result.prediction))
        return tape, total

    held, refs = [], {"level_fusion": [], "layer_norm": []}
    for name, found in refs.items():
        def watched(*args, op=getattr(nd, name), found=found, **kwargs):
            out = op(*args, **kwargs)
            buf = out[0] if isinstance(out, tuple) else out
            found.append(weakref.ref(buf.array))
            if held:  # the first pass holds every output
                held.append(buf)
            return out
        monkeypatch.setattr(nd, name, watched)
    held.append(None)
    tape, total = taped()
    want = tape.grad(total, leaves)
    held.clear()
    tape, total = taped()
    calls = 2 * 2 * cfg.layers  # branches x views x layers
    assert [len(found) for found in refs.values()] == [2 * calls] * 2
    assert all(ref() is None for found in refs.values() for ref in found)
    for got, expected in zip(tape.grad(total, leaves), want, strict=True):
        assert np.array_equal(got, expected)


def test_view_pass_op_sequence():
    cfg = small_cfg(layers=1)
    tracks = NdBuffer(np.random.default_rng(40).normal(size=(2, cfg.joints, cfg.frames, 6)))
    with Tape() as tape:
        network._view_pass(tracks, init_params(cfg, 0), 0, "q", "temporal")
    assert [name for name, _, _ in tape._records] == [
        "matmul", "matmul", "matmul", "attention", "linear",  # attention level
        "matmul", "matmul",                                    # graph level
        "linear", "tanh", "scan", "mul_add",                   # ssm level
        "level_fusion", "layer_norm"]


def test_taped_forward_keeps_13_activations_per_view_pass(monkeypatch):
    # Records whose output is (B, F, J, H)-sized, written inside each fusion
    # block: its two view passes plus the swap of tracks before each.
    cfg = NetConfig(frames=4, joints=5, hidden=8, layers=2)
    rng = np.random.default_rng(41)
    b = 3
    q, p, gt = (NdBuffer(rng.normal(size=(b, cfg.frames, cfg.joints, 3))) for _ in range(3))
    u = NdBuffer(rng.normal(size=(b, cfg.frames, cfg.joints, cfg.hidden)))
    activation = b * cfg.frames * cfg.joints * cfg.hidden
    per_block, kept = [], []
    block = network.xfusion_block

    def counted(h, *args):
        start = len(tape)
        result = block(h, *args)
        records = tape._records[start:]
        per_block.append(sum(math.prod(out.shape) == activation for _, out, _ in records))
        kept.append(sum(a.size == activation
                        for a in memory_blocks(tape_holdings(records)).values()))
        return result

    monkeypatch.setattr(network, "xfusion_block", counted)
    with Tape() as tape:
        forward(q, p, gt, u, init_params(cfg, 0))
    assert per_block == [2 * 13] * (2 * cfg.layers)
    # Of those, backward reads 11 (all but the level fusion and the norm),
    # plus the norm's x_hat: 12 kept per view pass. Keeping every output and
    # the block's input buffer kept 29 per block.
    assert kept == [2 * 12] * (2 * cfg.layers)


def test_ssm_degenerates_to_passthrough():
    h = NdBuffer(np.random.default_rng(6).normal(size=(5, 4)))
    w = {"w": NdBuffer(np.eye(4)), "b": NdBuffer(np.zeros(4)),
         "a_raw": NdBuffer(np.zeros(4)), "b_gate": NdBuffer(np.ones(4)),
         "c": NdBuffer(np.zeros(4)), "d": NdBuffer(np.ones(4))}
    out = aggregate_level(h, "ssm", "temporal", w)
    assert np.array_equal(out.array, h.array)


def test_ssm_causality():
    rng = np.random.default_rng(7)
    w = {"w": NdBuffer(rng.normal(size=(4, 4))), "b": NdBuffer(rng.normal(size=(4,))),
         "a_raw": NdBuffer(rng.normal(size=(4,))), "b_gate": NdBuffer(rng.normal(size=(4,))),
         "c": NdBuffer(rng.normal(size=(4,))), "d": NdBuffer(rng.normal(size=(4,)))}
    base = rng.normal(size=(6, 4))
    out_base = aggregate_level(NdBuffer(base), "ssm", "temporal", w).array
    for t in range(1, 6):
        bumped = base.copy()
        bumped[t] += rng.normal(size=4)
        out_bumped = aggregate_level(NdBuffer(bumped), "ssm", "temporal", w).array
        assert np.array_equal(out_base[:t], out_bumped[:t])
        assert not np.array_equal(out_base[t:], out_bumped[t:])


def test_aggregate_level_rejects_unknown_tags():
    h = NdBuffer(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        aggregate_level(h, "pooling", "temporal", {})
    with pytest.raises(DomainError):
        aggregate_level(h, "graph", "diagonal", {})


def test_cross_level_update_uniform_at_zero_compression():
    rng = np.random.default_rng(8)
    levels = [NdBuffer(rng.normal(size=(4, 5))) for _ in range(3)]
    w = NdBuffer(np.zeros((3, 15)))
    b = NdBuffer(np.full(3, 0.7))
    fused, alpha = cross_level_update(levels, w, b)
    assert np.all(alpha == 1.0 / 3.0)
    want = sum((1.0 / 3.0) * y.array for y in levels)
    assert np.allclose(fused.array, want, atol=1e-12)


def test_cross_level_update_frozen_two_level_case():
    y1 = NdBuffer(np.full((1, 1), 2.0))
    y2 = NdBuffer(np.full((1, 1), 4.0))
    w = NdBuffer(np.zeros((2, 2)))
    b = NdBuffer(np.array([np.log(3.0), 0.0]))
    fused, alpha = cross_level_update([y1, y2], w, b)
    assert np.allclose(alpha[0], [0.75, 0.25], atol=1e-12)
    assert fused.array[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_cross_level_update_scores_normalized():
    rng = np.random.default_rng(9)
    levels = [NdBuffer(rng.normal(size=(2, 6, 4))) for _ in range(3)]
    w = NdBuffer(rng.normal(size=(3, 12)))
    b = NdBuffer(rng.normal(size=(3,)))
    _, alpha = cross_level_update(levels, w, b)
    assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(alpha > 0.0)


def test_cross_level_update_shape_errors():
    levels = [NdBuffer(np.zeros((2, 4))) for _ in range(3)]
    with pytest.raises(DimensionError):
        cross_level_update(levels, NdBuffer(np.zeros((2, 8))), NdBuffer(np.zeros(2)))


def test_block_shape_determinism_and_init_mean():
    cfg = small_cfg(layers=1)
    params = init_params(cfg, 10)
    h = NdBuffer(np.random.default_rng(11).normal(size=(cfg.frames, cfg.joints, cfg.hidden)))
    out1, scores = xfusion_block(h, params, 0, "q")
    out2, _ = xfusion_block(h, params, 0, "q")
    assert out1.shape == (cfg.frames, cfg.joints, cfg.hidden)
    assert np.array_equal(out1.array, out2.array)
    assert np.all(scores.raw_temporal == 1.0 / 3.0)
    assert np.all(scores.raw_spatial == 1.0 / 3.0)
    assert scores.raw_temporal.mean(axis=-3).shape == (cfg.frames, 3)
    assert scores.raw_spatial.mean(axis=-3).shape == (cfg.joints, 3)

    # at init the block is the residual-wrapped unweighted level mean, per view
    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    cur = h.array
    for view in VIEWS:
        tracks = cur.transpose(1, 0, 2) if view == "temporal" else cur
        base = f"layer0.q.{view}"
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
            outs.append(aggregate_level(NdBuffer(tracks), level, view, w).array)
        fused = np.mean(outs, axis=0)
        wrapped = ln(tracks + fused, params[f"{base}.ln.g"].array, params[f"{base}.ln.b"].array)
        cur = wrapped.transpose(1, 0, 2) if view == "temporal" else wrapped
    assert np.allclose(out1.array, cur, atol=1e-9)


def test_context_inject_properties():
    rng = np.random.default_rng(12)
    a = NdBuffer(rng.normal(size=(2, 3, 4)))
    b = NdBuffer(rng.normal(size=(2, 3, 4)))
    zero = NdBuffer(np.zeros((2, 3, 4)))
    assert np.array_equal(context_inject(zero, a).array, a.array)
    assert np.array_equal(context_inject(a, b).array, context_inject(b, a).array)
    neg = NdBuffer(-a.array)
    assert np.all(context_inject(a, neg).array == 0.0)
    with pytest.raises(DimensionError):
        context_inject(a, NdBuffer(np.zeros((2, 3, 5))))


def _toy_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    shape = (cfg.frames, cfg.joints, 3)
    return (NdBuffer(rng.normal(size=shape)), NdBuffer(rng.normal(size=shape)),
            NdBuffer(rng.normal(size=shape)), NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, cfg.hidden))))


def test_forward_shapes_and_uniform_influence_at_init():
    cfg = small_cfg()
    params = init_params(cfg, 13)
    q, p, gt, u = _toy_inputs(cfg, seed=14)
    result = forward(q, p, gt, u, params)
    assert result.prediction.shape == (cfg.frames, cfg.joints, 3)
    assert result.betas.shape == (SHAPE_PARAMS,)
    assert len(result.influence) == cfg.layers
    for layer in result.influence:
        for branch in ("q", "p"):
            assert np.all(layer[branch].raw_temporal == 1.0 / 3.0)
            assert np.all(layer[branch].raw_spatial == 1.0 / 3.0)


def test_forward_permutation_counterexample():
    cfg = small_cfg(layers=1)
    params = init_params(cfg, 15)
    q, p, gt, u = _toy_inputs(cfg, seed=16)
    base = forward(q, p, gt, u, params).prediction.array
    perm = np.random.default_rng(17).permutation(cfg.joints)
    permuted = forward(NdBuffer(q.array[:, perm]), NdBuffer(p.array[:, perm]),
                       NdBuffer(gt.array[:, perm]), NdBuffer(u.array[:, perm]),
                       params).prediction.array
    assert not np.allclose(permuted, base[:, perm], atol=1e-6)


def test_forward_isolation_from_anchor_when_prompt_zeroed():
    cfg = small_cfg(layers=1)
    params = init_params(cfg, 18)
    q, p, gt, u = _toy_inputs(cfg, seed=19)
    p2, gt2, u2 = (NdBuffer(x.array * -2.5) for x in (p, gt, u))
    assert not np.allclose(forward(q, p, gt, u, params).prediction.array,
                           forward(q, p2, gt2, u2, params).prediction.array)
    zero = NdBuffer(np.zeros((cfg.frames, cfg.joints, 3)))
    zero_u = NdBuffer(np.zeros((cfg.frames, cfg.joints, cfg.hidden)))
    a = forward(q, zero, zero, zero_u, params).prediction.array
    b = forward(q, zero, zero, zero_u, params).prediction.array
    assert np.array_equal(a, b)


def _mesh_sample(cfg, seed=20):
    clip = make_clip(half=cfg.frames, joints=cfg.joints, native_pose=cfg.joints - 1, seed=seed)
    return derive_task(clip, "mp_m", rng_seed=seed)


def test_full_gradient_check_on_loss():
    cfg = small_cfg()
    params = init_params(cfg, 21)
    sample = _mesh_sample(cfg)
    rng = np.random.default_rng(22)
    p_in = NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, 3)))
    p_gt = NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, 3)))
    subset = [
        "enc_q.w", "enc_p.b", "enc_q.pos_s",
        "layer0.q.temporal.attn.wq", "layer0.p.temporal.attn.wv",
        "layer0.q.spatial.graph.w", "layer1.q.spatial.ssm.a_raw",
        "layer1.p.temporal.ssm.c", "layer0.q.temporal.ln.g",
        "layer0.compress.w", "layer1.compress.b",
        "head.pos.w", "head.shape.b",
    ]
    base = {k: params.tensors[k].array for k in subset}
    base["soft.w1"] = rng.normal(scale=0.1, size=(cfg.frames, cfg.joints, 1))
    base["soft.w2"] = rng.normal(scale=0.1, size=(1, 1, cfg.hidden))

    def f(leaves):
        p = params.copy()
        for k in subset:
            p.tensors[k] = leaves[k]
        u = soft_anchor_value(leaves["soft.w1"], leaves["soft.w2"])
        result = forward(sample.query_input, p_in, p_gt, u, p)
        total, _ = loss(result.prediction, result.betas, sample)
        return total

    report = nd.grad_check(f, base)
    assert report.max_rel_err < 1e-4, repr(report)


def test_loss_zero_at_perfect_prediction():
    cfg = small_cfg()
    sample = _mesh_sample(cfg, seed=23)
    pred = NdBuffer(sample.query_target.values.array)
    betas = NdBuffer(sample.target_betas)
    total, comps = loss(pred, betas, sample)
    assert total.item() == 0.0
    assert comps["position"] == 0.0 and comps["velocity"] == 0.0 and comps["shape"] == 0.0


def test_loss_constant_offset_is_offset_norm():
    cfg = small_cfg()
    sample = _mesh_sample(cfg, seed=24)
    offset = np.array([3.0, 0.0, 4.0])
    pred = NdBuffer(sample.query_target.values.array + offset)
    betas = NdBuffer(sample.target_betas)
    total, comps = loss(pred, betas, sample, LossWeights(position=1.0, velocity=0.0, shape=0.0))
    assert total.item() == pytest.approx(5.0, abs=1e-12)
    # gradients stay finite despite exactly-zero velocity differences
    x = NdBuffer(sample.query_target.values.array + offset)
    with Tape() as tape:
        t, _ = loss(x, betas, sample, LossWeights())
    (g,) = tape.grad(t, [x])
    assert np.all(np.isfinite(g))


def test_loss_matches_bruteforce_formula():
    cfg = small_cfg()
    sample = _mesh_sample(cfg, seed=25)
    rng = np.random.default_rng(26)
    pred = rng.normal(size=sample.query_target.values.shape)
    betas = rng.normal(size=10)
    w = LossWeights(position=0.7, velocity=0.2, shape=1.3)
    total, comps = loss(NdBuffer(pred), NdBuffer(betas), sample, w)

    n = sample.query_target.native_joint_count
    err = pred[:, :n, :] - sample.query_target.values.array[:, :n, :]
    pos = np.sqrt((err ** 2).sum(-1)).mean()
    vel = np.sqrt(((err[1:] - err[:-1]) ** 2).sum(-1)).mean()
    shp = ((betas - sample.target_betas) ** 2).mean()
    assert comps["position"] == pytest.approx(pos, rel=1e-12)
    assert comps["velocity"] == pytest.approx(vel, rel=1e-12)
    assert comps["shape"] == pytest.approx(shp, rel=1e-12)
    assert total.item() == pytest.approx(0.7 * pos + 0.2 * vel + 1.3 * shp, rel=1e-12)


def test_loss_pose_targets_skip_shape_term():
    cfg = small_cfg()
    clip = make_clip(half=cfg.frames, joints=cfg.joints, native_pose=3, seed=27)
    sample = derive_task(clip, "pe", rng_seed=0)
    rng = np.random.default_rng(28)
    total_a, comps = loss(NdBuffer(rng.normal(size=(cfg.frames, cfg.joints, 3))),
                          NdBuffer(rng.normal(size=10)), sample)
    assert comps["shape"] == 0.0
    # virtual joints do not contribute: corrupting them changes nothing
    pred = rng.normal(size=(cfg.frames, cfg.joints, 3))
    a, _ = loss(NdBuffer(pred), NdBuffer(np.zeros(10)), sample)
    pred2 = pred.copy()
    pred2[:, 3:, :] += 100.0
    b, _ = loss(NdBuffer(pred2), NdBuffer(np.zeros(10)), sample)
    assert a.item() == b.item()


def test_loss_weights_must_be_nonnegative():
    with pytest.raises(DomainError):
        LossWeights(position=-0.1)


@pytest.mark.parametrize("name,value", [
    ("position", "nan"), ("velocity", "nan"), ("shape", "nan"),
    ("position", "inf"), ("velocity", "inf"), ("shape", "inf"),
], ids=["position", "velocity", "shape", "position-inf", "velocity-inf", "shape-inf"])
def test_nan_loss_weight_is_rejected(name, value):
    with pytest.raises(DomainError, match=f"loss weight {name} must be >= 0, got {value}"):
        LossWeights(**{name: float(value)})


def test_mpjpe_cases():
    seq = unify_pose3d(np.random.default_rng(29).normal(size=(2, 3, 3)))
    assert mpjpe(seq, seq) == 0.0
    shifted = unify_pose3d(seq.values.array + np.array([1.0, -2.0, 0.5]))
    assert mpjpe(shifted, seq) < 1e-9

    target = unify_pose3d(np.zeros((1, 2, 3)))
    pred = np.zeros((1, 2, 3))
    pred[0, 1] = [3.0, 4.0, 0.0]
    assert mpjpe(pred, target) == pytest.approx(2.5, abs=1e-12)

    mesh = MotionSequence(NdBuffer(np.zeros((1, 2, 3))), Modality.MESH, 2)
    with pytest.raises(DomainError):
        mpjpe(pred, mesh)


def test_mpjpe_ignores_virtual_joints():
    arr = np.random.default_rng(30).normal(size=(2, 3, 3))
    from motionctx.motion import pad_virtual_joints
    target = pad_virtual_joints(unify_pose3d(arr), 5)
    pred = np.concatenate([arr + 0.1, np.full((2, 2, 3), 9.0)], axis=1)
    bare = mpjpe(arr + 0.1, unify_pose3d(arr))
    assert mpjpe(pred, target) == pytest.approx(bare, rel=1e-12)


def _reference_error(pred, target, root_aligned):
    n = target.native_joint_count
    p, t = pred[:, :n, :], target.values.array[:, :n, :]
    if root_aligned:
        p, t = p - p[:, :1, :], t - t[:, :1, :]
    return float(np.mean(np.sqrt(np.sum((p - t) ** 2, axis=-1))))


def test_metrics_match_a_numpy_reference_bitwise():
    rng = np.random.default_rng(32)
    native = rng.normal(size=(5, 4, 3)) + [30.0, -20.0, 10.0]  # root far from the origin
    values = np.concatenate([native, np.zeros((5, 2, 3))], axis=1)
    pose = MotionSequence(NdBuffer(values), Modality.POSE3D, 4)
    mesh = MotionSequence(NdBuffer(values), Modality.MESH, 4, betas=rng.normal(size=SHAPE_PARAMS))
    pred = values + rng.normal(size=values.shape)  # virtual joints nonzero too
    for p in (pred, NdBuffer(pred)):
        assert mpjpe(p, pose) == _reference_error(pred, pose, True)
        assert mean_param_error(p, mesh) == _reference_error(pred, mesh, False)
    assert mpjpe(pred, pose) != mean_param_error(pred, pose)


def test_mean_param_error_native_only():
    clip = make_clip(half=2, joints=4, native_pose=3, seed=31)
    sample = derive_task(clip, "mp_m", 0)
    pred = sample.query_target.values.array + 2.0
    err = mean_param_error(pred, sample.query_target)
    assert err == pytest.approx(2.0 * np.sqrt(3), rel=1e-12)
