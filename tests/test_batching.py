"""One taped pass per batch against the per-sample reference it replaced."""

import threading

import numpy as np
import pytest

from helpers import div, make_clip, soft_pair, stack
from motionctx import cli, fileio, network, nd, training
from motionctx.errors import ConfigError, DimensionError, NumericError
from motionctx.motion import SHAPE_PARAMS, Modality, derive_task
from motionctx.nd import NdBuffer, Tape
from motionctx.network import (LEVELS, SOFT_TABLES, VIEWS, LossWeights, NetConfig, aggregate_level,
                               context_inject, cross_level_update, encode_context, forward,
                               init_params, loss, mean_param_error, mpjpe)
from motionctx.prompting import retrieve_prompt, soft_anchor_value, sps_sample
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import (AdamWState, TrainConfig, anchor_corpus, derive_seed, evaluate,
                                train, train_step)

HALF, JOINTS, HIDDEN = 4, 6, 8
RTOL = 1e-10


def mixed_setup(layers=2):
    """Clips with 3, 4 and 5 native pose joints (mesh targets have all 6)."""
    clips = [make_clip(half=HALF, joints=JOINTS, native_pose=3 + i % 3, seed=i,
                       clip_id=f"c{i}") for i in range(6)]
    corpus = anchor_corpus(clips, domains=("pe", "mr", "jc_m"), seed=0)
    anchors = sps_sample(corpus, 6, hidden_dim=HIDDEN)
    params = init_params(NetConfig(frames=HALF, joints=JOINTS, hidden=HIDDEN, layers=layers),
                         1, anchors=anchors)
    return clips, anchors, params


def mixed_batch(clips, anchors, params):
    """Pose and mesh domains, three native joint counts and one anchor
    retrieved twice."""
    batch = []
    for i, domain in enumerate(("pe", "mib_p", "mr", "jc_m", "fmr")):
        sample = derive_task(clips[i], domain, derive_seed(0, i, domain))
        batch.append((sample, retrieve_prompt(sample.query_input, anchors)))
    sample = derive_task(clips[5], "mp_p", derive_seed(0, 5, "mp_p"))
    batch.append((sample, batch[2][1]))
    assert {s.query_target.native_joint_count for s, _ in batch} == {3, 4, 5, 6}
    assert {s.query_target.modality for s, _ in batch} == {Modality.POSE3D, Modality.MESH}
    return batch


def reference_loss(prediction, betas, sample, weights):
    """Per-sample objective on the leading native-joint block, as one sample
    was scored before batches were masked."""
    target = sample.query_target
    native, f = target.native_joint_count, target.frames
    err = nd.sub(nd.slice_axis(prediction, 1, 0, native),
                 NdBuffer(target.values.array[:, :native, :]))
    position = nd.mean(nd.sqrt(nd.reduce_sum(nd.square(err), axis=-1)))
    vel_err = nd.sub(nd.slice_axis(err, 0, 1, f), nd.slice_axis(err, 0, 0, f - 1))
    velocity = nd.mean(nd.sqrt(nd.reduce_sum(nd.square(vel_err), axis=-1)))
    total = nd.add(nd.mul(position, weights.position), nd.mul(velocity, weights.velocity))
    shape = 0.0
    if target.modality is Modality.MESH:
        term = nd.mean(nd.square(nd.sub(betas, NdBuffer(sample.target_betas))))
        total = nd.add(total, nd.mul(term, weights.shape))
        shape = term.item()
    return total, {"position": position.item(), "velocity": velocity.item(), "shape": shape}


def per_sample_reference(batch, params, weights):
    """Mean loss, mean components and gradients from one taped pass per sample."""
    keys = sorted(params.tensors)
    totals, sums = [], {"position": 0.0, "velocity": 0.0, "shape": 0.0}
    with Tape() as tape:
        for sample, prompt in batch:
            u = soft_anchor_value(*soft_pair(params, prompt.index))
            result = forward(sample.query_input, prompt.hard_input, prompt.hard_target, u,
                             params)
            total, comps = reference_loss(result.prediction, result.betas, sample, weights)
            totals.append(total)
            for k in sums:
                sums[k] += comps[k]
        mean = nd.mean(stack(totals, axis=0))
    grads = dict(zip(keys, tape.grad(mean, [params.tensors[k] for k in keys])))
    return mean.item(), {k: v / len(batch) for k, v in sums.items()}, grads


class RecordingState(AdamWState):
    def update(self, params, grads, *args, **kwargs):
        self.grads = grads
        super().update(params, grads, *args, **kwargs)


def assert_close(got, want, what):
    # rtol against the array's own scale, so entries that cancel to ~0 count too
    scale = max(float(np.abs(want).max()), 1e-300)
    err = float(np.abs(np.asarray(got) - want).max()) / scale
    assert err <= RTOL, f"{what}: relative error {err:.2e}"


def branch_rows(monkeypatch):
    """Record (branch, leading extent) of every `xfusion_block` call."""
    seen = []
    block = network.xfusion_block
    monkeypatch.setattr(network, "xfusion_block", lambda h, params, layer, branch:
                        seen.append((branch, h.shape[0])) or block(h, params, layer, branch))
    return seen


def test_batched_step_matches_per_sample_reference(monkeypatch):
    clips, anchors, params = mixed_setup()
    batch = mixed_batch(clips, anchors, params)
    weights = LossWeights(position=0.7, velocity=0.4, shape=1.3)
    want_loss, want_comps, want_grads = per_sample_reference(batch, params, weights)

    state = RecordingState()
    cfg = TrainConfig(weights=weights)
    seen = branch_rows(monkeypatch)
    record = train_step(batch, params, state, cfg, cfg.learning_rate)
    # The repeated anchor's prompt rows ran once; its gathered gradients sum.
    distinct = len({p.index for _, p in batch})
    assert distinct < len(batch) and seen == [("q", len(batch)), ("p", distinct)] * 2
    assert record["loss"] == pytest.approx(want_loss, rel=RTOL, abs=0)
    for k, v in want_comps.items():
        assert record[k] == pytest.approx(v, rel=RTOL, abs=0), k
    assert set(state.grads) == set(want_grads)
    for k, g in state.grads.items():
        assert_close(g, want_grads[k], k)
    assert np.abs(state.grads["head.shape.w"]).max() > 0.0  # mesh samples reach the shape head


def test_anchor_without_soft_parameters_is_a_config_error():
    # Soft factors come only from the parameters: a retrieved anchor beyond
    # the soft tables' rows stops the step before any update.
    clips, anchors, params = mixed_setup(layers=1)
    batch = mixed_batch(clips, anchors, params)
    held = max(prompt.index for _, prompt in batch)  # the tables lose this row and those after
    first = next(sample for sample, prompt in batch if prompt.index == held)
    assert held >= 1
    for name in SOFT_TABLES:
        params.tensors[name] = NdBuffer(params.tensors[name].array[:held])
    before = {k: v.array for k, v in params.tensors.items()}
    cfg = TrainConfig()
    with pytest.raises(ConfigError, match=f"^no soft factors for anchor {held}: the soft "
                                          f"tables hold {held} rows$"):
        train_step(batch, params, AdamWState(), cfg, cfg.learning_rate)
    assert all(params.tensors[k].array is v for k, v in before.items())
    # evaluate derives and retrieves that sample again, among others.
    with pytest.raises(ConfigError, match="^no soft factors for anchor"):
        evaluate(clips, anchors, params, domains=(first.domain,))
    del params.tensors[SOFT_TABLES[0]]
    with pytest.raises(ConfigError, match=f"^missing parameter '{SOFT_TABLES[0]}'$"):
        train_step(batch, params, AdamWState(), cfg, cfg.learning_rate)


def test_single_sample_loss_is_the_batch_of_one():
    clips, _, _ = mixed_setup(layers=1)
    weights = LossWeights(position=0.7, velocity=0.4, shape=1.3)
    for domain in ("pe", "mr"):
        sample = derive_task(clips[0], domain, 3)
        rng = np.random.default_rng(4)
        pred = rng.normal(size=sample.query_target.values.shape)
        betas = rng.normal(size=10)
        one, one_comps = loss(NdBuffer(pred), NdBuffer(betas), sample, weights)
        many, many_comps = loss(NdBuffer(pred[None]), NdBuffer(betas[None]), [sample], weights)
        assert one.item() == many.item()
        assert one_comps == many_comps
        want, want_comps = reference_loss(NdBuffer(pred), NdBuffer(betas), sample, weights)
        assert one.item() == pytest.approx(want.item(), rel=RTOL, abs=0)
        for k, v in want_comps.items():
            assert one_comps[k] == pytest.approx(v, rel=RTOL, abs=0), k


def test_batched_loss_gives_virtual_joints_exactly_zero_gradient():
    clips, _, _ = mixed_setup(layers=1)
    samples = [derive_task(clips[i], "pe", i) for i in range(3)]
    rng = np.random.default_rng(5)
    pred = NdBuffer(rng.normal(size=(3, HALF, JOINTS, 3)))
    with Tape() as tape:
        total, comps = loss(pred, NdBuffer(rng.normal(size=(3, 10))), samples)
    (g,) = tape.grad(total, [pred])
    assert comps["shape"] == 0.0
    for b, sample in enumerate(samples):
        native = sample.query_target.native_joint_count
        assert np.all(g[b, :, native:] == 0.0)
        assert np.all(g[b, :, :native] != 0.0)


def test_loss_rejects_mismatched_batch():
    clips, _, _ = mixed_setup(layers=1)
    samples = [derive_task(clips[i], "pe", i) for i in range(2)]
    with pytest.raises(DimensionError):
        loss(NdBuffer(np.zeros((3, HALF, JOINTS, 3))), NdBuffer(np.zeros((3, 10))), samples)


def _forward_unbatched_layout(q, p, gt, u, params):
    """The forward pass written for (F, J, .) inputs only, from public pieces."""
    cfg = params.config
    h_q, h_p = encode_context(q, p, gt, u, params)

    def block(h, layer, branch):
        for view in VIEWS:
            base = f"layer{layer}.{branch}.{view}"
            tracks = nd.transpose(h, (1, 0, 2)) if view == "temporal" else h
            outs = []
            for level in LEVELS:
                prefix = {"attention": "attn"}.get(level, level)
                w = {k.split(".")[-1]: v for k, v in params.tensors.items()
                     if k.startswith(f"{base}.{prefix}.")}
                outs.append(aggregate_level(tracks, level, view, w))
            fused, _ = cross_level_update(outs, params[f"layer{layer}.compress.w"],
                                          params[f"layer{layer}.compress.b"])
            x = nd.add(tracks, fused)
            mu = nd.mean(x, axis=-1, keepdims=True)
            centered = nd.sub(x, mu)
            var = nd.mean(nd.square(centered), axis=-1, keepdims=True)
            inv = div(1.0, nd.sqrt(nd.add(var, 1e-5)))
            h = nd.add(nd.mul(nd.mul(centered, inv), params[f"{base}.ln.g"]),
                       params[f"{base}.ln.b"])
            if view == "temporal":
                h = nd.transpose(h, (1, 0, 2))
        return h

    for k in range(cfg.layers):
        z_q, z_p = block(h_q, k, "q"), block(h_p, k, "p")
        h_q, h_p = context_inject(z_p, z_q), z_p
    prediction = nd.add(nd.matmul(h_q, params["head.pos.w"]), params["head.pos.b"])
    pooled = nd.reshape(nd.mean(h_q, axis=(0, 1)), (1, cfg.hidden))
    betas = nd.add(nd.matmul(pooled, params["head.shape.w"]), params["head.shape.b"])
    return prediction.array, nd.reshape(betas, (SHAPE_PARAMS,)).array


def test_unbatched_forward_is_bitwise_the_unbatched_layout():
    _, _, params = mixed_setup()
    rng = np.random.default_rng(6)
    q, p, gt = (NdBuffer(rng.normal(size=(HALF, JOINTS, 3))) for _ in range(3))
    u = NdBuffer(rng.normal(size=(HALF, JOINTS, HIDDEN)))
    result = forward(q, p, gt, u, params)
    pred, betas = _forward_unbatched_layout(q, p, gt, u, params)
    assert np.array_equal(result.prediction.array, pred)
    assert np.array_equal(result.betas.array, betas)


def test_batched_forward_rows_match_unbatched_calls():
    # Distinct prompts, then a batch that repeats two of them.
    _, _, params = mixed_setup()
    for prompt_rows in ((0, 1, 2), (0, 1, 0, 2, 1)):
        rng = np.random.default_rng(7)
        batch = len(prompt_rows)
        q = rng.normal(size=(batch, HALF, JOINTS, 3))
        p, gt = (rng.normal(size=(3, HALF, JOINTS, 3))[list(prompt_rows)] for _ in range(2))
        u = rng.normal(size=(batch, HALF, JOINTS, HIDDEN))
        batched = forward(NdBuffer(q), NdBuffer(p), NdBuffer(gt), NdBuffer(u), params)
        assert batched.prediction.shape == (batch, HALF, JOINTS, 3)
        assert batched.betas.shape == (batch, 10)
        for b in range(batch):
            one = forward(NdBuffer(q[b]), NdBuffer(p[b]), NdBuffer(gt[b]), NdBuffer(u[b]),
                          params)
            assert_close(batched.prediction.array[b], one.prediction.array, "prediction")
            assert_close(batched.betas.array[b], one.betas.array, "betas")
            for layer_b, layer_one in zip(batched.influence, one.influence):
                for branch in ("q", "p"):
                    for field in ("raw_temporal", "raw_spatial"):
                        assert_close(getattr(layer_b[branch], field)[b],
                                     getattr(layer_one[branch], field), field)


def test_prompt_branch_runs_once_per_distinct_prompt(monkeypatch):
    _, _, params = mixed_setup()
    rng = np.random.default_rng(8)
    q, u = rng.normal(size=(5, HALF, JOINTS, 3)), rng.normal(size=(5, HALF, JOINTS, HIDDEN))
    p, gt = (rng.normal(size=(3, HALF, JOINTS, 3)) for _ in range(2))
    seen = branch_rows(monkeypatch)
    for rows, distinct in [((0, 1, 0, 2, 1), 3), ((0, 1, 2, 2, 2), 3), ((0,) * 5, 1)]:
        seen.clear()
        with Tape() as tape:
            forward(NdBuffer(q), NdBuffer(p[list(rows)]), NdBuffer(gt[list(rows)]),
                    NdBuffer(u), params)
        assert seen == [("q", 5), ("p", distinct)] * 2, rows
        # One gather after encoding and one before each of the two injections.
        assert [name for name, _, _ in tape._records].count("take_rows") == 3
    # Equal prompt inputs with other targets are distinct prompts; a batch of
    # distinct prompts takes no gather, so it runs the tape it ran before.
    seen.clear()
    with Tape() as tape:
        forward(NdBuffer(q), NdBuffer(p[[0, 1, 0, 2, 1]]),
                NdBuffer(rng.normal(size=(5, HALF, JOINTS, 3))), NdBuffer(u), params)
    assert seen == [("q", 5), ("p", 5)] * 2
    assert "take_rows" not in [name for name, _, _ in tape._records]


def test_batched_evaluate_matches_per_sample_loop(monkeypatch):
    clips, anchors, params = mixed_setup()
    monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # 6 clips: a full and a partial chunk
    domains = ("pe", "mr", "jc_m")
    seen = branch_rows(monkeypatch)
    table = evaluate(clips, anchors, params, domains=domains, seed=2)
    # Some chunk repeats an anchor, so its prompt branch ran on fewer rows.
    assert any(p < q for (_, q), (_, p) in zip(seen[::2], seen[1::2]))
    for domain in domains:
        errors = []
        for i, clip in enumerate(clips):
            sample = derive_task(clip, domain, derive_seed(2, i, domain))
            prompt = retrieve_prompt(sample.query_input, anchors)
            u = soft_anchor_value(*soft_pair(params, prompt.index))
            pred = forward(sample.query_input, prompt.hard_input, prompt.hard_target, u,
                           params).prediction
            metric = mean_param_error if sample.query_target.modality is Modality.MESH else mpjpe
            errors.append(metric(pred, sample.query_target))
        assert abs(table[domain] - float(np.mean(errors))) <= 1e-10, domain


def test_mixed_domain_training_is_bitwise_reproducible():
    runs = []
    for _ in range(2):
        clips, anchors, params = mixed_setup(layers=1)
        log = train(clips, anchors, params,
                    TrainConfig(epochs=2, steps_per_epoch=3, batch_size=5,
                                domains=("pe", "mr", "jc_m", "mp_m"), seed=8))
        runs.append((log, {k: v.array.copy() for k, v in params.tensors.items()}))
    assert runs[0][0] == runs[1][0]
    for k, v in runs[0][1].items():
        assert np.array_equal(v, runs[1][1][k]), k


# The two blocks of a layer on two threads (`nd.fork`), forced on below the
# work floor by patching the fork rule: everything bitwise the sequential run.

def paper_shaped_setup(anchor_count, seed):
    """F=16, J=24 clips and a net of the paper's shape at H=8, L=2."""
    clips = make_dataset(SynthConfig(clips=6, frames=16, joints=24, native_pose_joints=17,
                                     seed=seed))
    anchors = sps_sample(anchor_corpus(clips, domains=("pe", "mr"), seed=0), anchor_count,
                         hidden_dim=8)
    return clips, anchors, init_params(NetConfig(frames=16, joints=24, hidden=8, layers=2), 3,
                                       anchors=anchors)


def spied_training(monkeypatch, forked, setup, config):
    """Trains with the fork rule forced to `forked`. Returns the log, the
    final parameters and, per step, the tape's record names and number of
    forked pairs, the gradients, the influence arrays and whether the prompt
    branch ran once per distinct prompt on fewer rows."""
    grad, forward_fn, distinct = nd.Tape.grad, training.forward, network._distinct_prompts
    seen = {"records": [], "pairs": [], "grads": [], "influence": [], "deduped": []}

    def spy_grad(tape, output, wrt):
        seen["records"].append([name for name, _, _ in tape._records])
        seen["pairs"].append(len(tape._pairs))
        seen["grads"].append(grad(tape, output, wrt))
        return seen["grads"][-1]

    def spy_forward(*args):
        result = forward_fn(*args)
        seen["influence"].append([a for layer in result.influence for scores in layer.values()
                                  for a in vars(scores).values()])
        return result

    def spy_distinct(*args):
        found = distinct(*args)
        seen["deduped"].append(found is not None)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(nd, "fork_pays", lambda work: forked)
        patch.setattr(nd.Tape, "grad", spy_grad)
        patch.setattr(training, "forward", spy_forward)
        patch.setattr(network, "_distinct_prompts", spy_distinct)
        clips, anchors, params = setup()
        log = train(clips, anchors, params, config)
    return log, params, seen


@pytest.mark.parametrize("case", ["toy", "paper_distinct", "paper_deduped"])
def test_forked_training_is_bitwise_the_sequential_run(monkeypatch, case):
    setup, config, deduped = {
        "toy": (lambda: mixed_setup(layers=2),
                TrainConfig(steps_per_epoch=3, batch_size=5, domains=("pe", "mr", "jc_m"),
                            seed=8), None),
        "paper_distinct": (lambda: paper_shaped_setup(24, 1),
                           TrainConfig(steps_per_epoch=2, batch_size=2, domains=("pe", "mr"),
                                       seed=3), False),
        "paper_deduped": (lambda: paper_shaped_setup(1, 1),
                          TrainConfig(steps_per_epoch=2, batch_size=4, domains=("pe", "mr"),
                                      seed=2), True),
    }[case]
    log, params, seen = spied_training(monkeypatch, False, setup, config)
    f_log, f_params, f_seen = spied_training(monkeypatch, True, setup, config)
    if deduped is not None:
        assert set(seen["deduped"]) == {deduped}
    assert f_log == log
    assert seen["pairs"] == [0] * len(log) and f_seen["pairs"] == [2] * len(log)
    assert f_seen["records"] == seen["records"]
    for key in ("grads", "influence"):
        for want, got in zip(seen[key], f_seen[key], strict=True):
            for a, b in zip(want, got, strict=True):
                assert np.array_equal(a, b), key
    for name, value in params.tensors.items():
        assert np.array_equal(value.array, f_params.tensors[name].array), name


def assert_pairs_left_no_trace(threads_before: int):
    """The caller's tape stack is back to empty, and no branch thread
    outlives its pair."""
    assert nd._TAPES.stack == []
    assert threading.active_count() == threads_before


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_prompt_block_errors_reach_the_caller_typed(monkeypatch, tmp_path, capsys):
    clips, anchors, params = mixed_setup(layers=1)
    batch = mixed_batch(clips, anchors, params)
    monkeypatch.setattr(nd, "fork_pays", lambda work: True)
    threads_before = threading.active_count()
    training._batch_forward(batch, params)
    assert_pairs_left_no_trace(threads_before)
    # An overflowing prompt-branch weight: only the prompt block, on its
    # branch thread, produces a non-finite value.
    params.replace("layer0.p.temporal.graph.w", np.full((HIDDEN, HIDDEN), 1e308))
    with Tape() as tape:
        with nd.debug_checks(), pytest.raises(NumericError, match="matmul"):
            training._batch_forward(batch, params)
        assert nd._active_tape() is tape
    assert_pairs_left_no_trace(threads_before)

    block = network.xfusion_block

    def failing_prompt_block(h, params, layer, branch):
        if branch == "p":
            raise DimensionError("prompt block failed")
        return block(h, params, layer, branch)

    monkeypatch.setattr(network, "xfusion_block", failing_prompt_block)
    _, _, params = mixed_setup(layers=1)
    with Tape() as tape:
        with pytest.raises(DimensionError, match="prompt block failed"):
            training._batch_forward(batch, params)
        assert nd._active_tape() is tape
    assert_pairs_left_no_trace(threads_before)

    # The command line keeps exit code 3 for a numeric error on a branch thread.
    def numeric_prompt_block(h, params, layer, branch):
        if branch == "p":
            raise NumericError("non-finite value in the prompt block")
        return block(h, params, layer, branch)

    monkeypatch.setattr(network, "xfusion_block", numeric_prompt_block)
    data, anchor_file = str(tmp_path / "d.bin"), str(tmp_path / "a.bin")
    fileio.save_dataset(data, clips)
    fileio.save_anchors(anchor_file, anchors)
    assert cli.main(["train", "--dataset", data, "--anchors", anchor_file,
                     "--out", str(tmp_path / "ck.bin")]) == 3
    assert "prompt block" in capsys.readouterr().err
    assert_pairs_left_no_trace(threads_before)


def test_forks_keep_at_most_one_extra_thread_and_toy_shapes_start_none(monkeypatch):
    clips, anchors, params = mixed_setup(layers=1)
    batch = mixed_batch(clips, anchors, params)
    toy = init_params(NetConfig(frames=8, joints=6, hidden=16, layers=1), 0)
    start = threading.active_count()
    forks = []
    join = nd._join
    monkeypatch.setattr(nd, "_join", lambda *a: forks.append(1) or join(*a))
    rng = np.random.default_rng(0)
    q, p, gt = (rng.normal(size=(8, 8, 6, 3)) for _ in range(3))
    forward(q, p, gt, np.zeros((8, 8, 6, 16)), toy)
    assert forks == [] and threading.active_count() == start

    monkeypatch.setattr(nd, "fork_pays", lambda work: True)
    for _ in range(20):
        training._batch_forward(batch, params)
    assert len(forks) == 20
    assert threading.active_count() <= start + 1
