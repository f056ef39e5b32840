"""Training loop: batching, optimizer semantics, reproducibility, evaluation."""

import collections
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import soft_pair
from motionctx.cli import run_gradient_check
from motionctx.errors import ConfigError, DomainError, NumericError, StateError
from motionctx.motion import (DOMAIN_ORDER, DOMAINS, Modality, MotionSequence, TaskSample,
                              derive_task, is_count)
from motionctx.nd import NdBuffer
from motionctx.network import (SOFT_TABLES, LossWeights, NetConfig, forward, init_params, loss,
                               mean_param_error, mpjpe)
from motionctx.prompting import (RetrievedPrompt, cluster_sample, random_sample,
                                 retrieve_prompt, soft_anchor_value, sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamWState, TrainConfig,
                                anchor_corpus, build_batch, derive_seed, evaluate, lr_at_epoch,
                                train, train_step)

HALF, JOINTS, NATIVE, HIDDEN = 4, 6, 5, 8


def build_setup(n_clips=3, domains=("pe",), k=4, seed=0, layers=1):
    dataset = make_dataset(SynthConfig(clips=n_clips, frames=HALF, joints=JOINTS,
                                       native_pose_joints=NATIVE,
                                       clusters=min(2, n_clips), seed=seed))
    corpus = anchor_corpus(dataset, domains=domains, seed=seed)
    anchors = sps_sample(corpus, k, hidden_dim=HIDDEN)
    net = NetConfig(frames=HALF, joints=JOINTS, hidden=HIDDEN, layers=layers)
    params = init_params(net, seed, anchors=anchors)
    return dataset, anchors, params


def batch_loss(batch, params, weights=LossWeights()):
    """Mean loss of a batch under the current parameters, no gradient step."""
    values = []
    for sample, prompt in batch:
        u = soft_anchor_value(*soft_pair(params, prompt.index))
        result = forward(sample.query_input, prompt.hard_input, prompt.hard_target, u, params)
        values.append(loss(result.prediction, result.betas, sample, weights)[0].item())
    return float(np.mean(values))


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 2e-4
    assert cfg.lr_decay == 0.99
    assert cfg.batch_size == 8
    assert cfg.weight_decay == 0.01
    assert cfg.domains == DOMAIN_ORDER


@pytest.mark.parametrize("kwargs", [
    {"learning_rate": -1e-4},
    {"lr_decay": 0.0},
    {"lr_decay": 1.5},
    {"epochs": 0},
    {"steps_per_epoch": 0},
    {"batch_size": 0},
    {"weight_decay": -0.1},
    {"domains": ("pe", "nope")},
    {"domains": ()},
    {"learning_rate": float("nan")},
    {"weight_decay": float("nan")},
    {"epochs": float("nan")},
    {"batch_size": float("nan")},
    {"steps_per_epoch": True},
    {"learning_rate": float("inf")},
    {"weight_decay": float("inf")},
    {"epochs": float("inf")},
    {"batch_size": 2.5},
    {"epochs": True},
    {"seed": 2.5},
    {"seed": True},
    {"seed": -1},
    {"learning_rate": None},
    {"learning_rate": "x"},
    {"learning_rate": True},
    {"lr_decay": "x"},
    {"weight_decay": "x"},
    {"weights": None},
    {"weights": {"position": 1.0}},
    {"learning_rate": 10 ** 400},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def _loss_with(weights):
    sample = derive_task(make_dataset(SynthConfig(clips=1, clusters=1))[0], "pe", 0)
    shape = sample.query_target.values.shape
    return loss(NdBuffer(np.zeros(shape)), NdBuffer(np.zeros(10)), sample, weights)


# (call, error class, message pattern): a loss weight's error names the
# weight, a config object of the wrong type names that type. TrainConfig's and
# SynthConfig's fields are in their own validation tests.
WRONG_TYPES = {
    "position str": (lambda: LossWeights(position="x"), DomainError, "position"),
    "position None": (lambda: LossWeights(position=None), DomainError, "position"),
    "shape bool": (lambda: LossWeights(shape=True), DomainError, "shape"),
    "train config None": (lambda: train(*build_setup(), config=None), ConfigError,
                          "NoneType"),
    "init_params None": (lambda: init_params(None, 0), ConfigError, "NoneType"),
    "loss weights None": (lambda: _loss_with(None), ConfigError, "NoneType"),
    "gradcheck None": (lambda: run_gradient_check(None, 0), ConfigError, "NoneType"),
}


@pytest.mark.parametrize("call,error,pattern", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_config_values_of_the_wrong_type_end_in_a_package_error(call, error, pattern):
    with pytest.raises(error, match=pattern):
        call()


def test_zero_learning_rate_is_accepted():
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


def test_lr_schedule():
    cfg = TrainConfig()
    for epoch in range(60):
        assert abs(lr_at_epoch(cfg, epoch) - 2e-4 * 0.99 ** epoch) <= 1e-15


def test_derive_seed_is_stable_and_domain_sensitive():
    assert derive_seed(0, 3, "pe") == derive_seed(0, 3, "pe")
    assert derive_seed(0, 3, "pe") != derive_seed(0, 3, "mr")
    assert derive_seed(0, 3, "pe") != derive_seed(0, 4, "pe")
    assert derive_seed(0, 3, "pe") != derive_seed(1, 3, "pe")
    assert derive_seed(-1, 3, "pe") == derive_seed(2 ** 63 - 1, 3, "pe")


@pytest.mark.parametrize("bad", [2.5, True, "x"])
@pytest.mark.parametrize("call", ["build_batch", "evaluate", "anchor_corpus",
                                  "anchor_corpus_without_clips", "derive_seed"])
def test_entry_points_reject_a_non_integer_count_or_seed(call, bad):
    dataset, anchors, params = build_setup(n_clips=2)
    calls = {
        "build_batch": lambda: build_batch(dataset, anchors, bad, 0),
        "evaluate": lambda: evaluate(dataset, anchors, params, domains=("pe",), seed=bad),
        "anchor_corpus": lambda: anchor_corpus(dataset, seed=bad),
        "anchor_corpus_without_clips": lambda: anchor_corpus([], seed=bad),
        "derive_seed": lambda: derive_seed(bad, 0, "pe"),
    }
    field = "batch_size" if call == "build_batch" else "seed"
    with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
        calls[call]()


@pytest.mark.parametrize("bad", [{"pe"}, "pe", None], ids=["set", "string", "none"])
@pytest.mark.parametrize("call", ["build_batch", "anchor_corpus", "evaluate"])
def test_entry_points_take_domains_only_as_a_list_or_tuple(call, bad):
    # A set cannot be indexed, and a string would be read letter by letter.
    dataset, anchors, params = build_setup(n_clips=2)
    calls = {
        "build_batch": lambda: build_batch(dataset, anchors, 2, 0, domains=bad),
        "anchor_corpus": lambda: anchor_corpus(dataset, domains=bad),
        "evaluate": lambda: evaluate(dataset, anchors, params, domains=bad),
    }
    with pytest.raises(ConfigError, match=f"^domains must be a list or tuple of task ids, "
                                          f"got {re.escape(repr(bad))}$"):
        calls[call]()


@pytest.mark.parametrize("call,bad", [
    ("config", {"pe"}), ("config", "pe"), ("config", ()),
    ("build_batch", ()), ("anchor_corpus", ()), ("evaluate", ()),
], ids=["config-set", "config-string", "config-empty", "build_batch-empty",
        "anchor_corpus-empty", "evaluate-empty"])
def test_every_entry_point_applies_one_domains_rule(call, bad):
    # One rule, `_domain_list`: a non-empty list or tuple. An empty one would
    # give evaluate an empty table and anchor_corpus an empty corpus.
    dataset, anchors, params = build_setup(n_clips=2)
    calls = {
        "config": lambda: TrainConfig(domains=bad),
        "build_batch": lambda: build_batch(dataset, anchors, 2, 0, domains=bad),
        "anchor_corpus": lambda: anchor_corpus(dataset, domains=bad),
        "evaluate": lambda: evaluate(dataset, anchors, params, domains=bad),
    }
    message = ("domains must not be empty" if bad == () else
               f"domains must be a list or tuple of task ids, got {re.escape(repr(bad))}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        calls[call]()


def test_anchor_corpus_layout_and_determinism():
    dataset, _, _ = build_setup(n_clips=3)
    a = anchor_corpus(dataset, domains=("pe", "mr"), seed=5)
    b = anchor_corpus(dataset, domains=("pe", "mr"), seed=5)
    assert len(a) == 6
    assert [e[2] for e in a] == ["pe"] * 3 + ["mr"] * 3
    assert anchor_corpus([], seed=-1) == []
    for ea, eb in zip(a, b):
        assert np.array_equal(ea[0].values.array, eb[0].values.array)
        assert np.array_equal(ea[1].values.array, eb[1].values.array)


def test_build_batch_same_seed_gives_identical_batches():
    dataset, anchors, _ = build_setup(n_clips=3, domains=("pe", "jc_p"))
    a = build_batch(dataset, anchors, 6, rng_seed=7, domains=("pe", "jc_p"))
    b = build_batch(dataset, anchors, 6, rng_seed=7, domains=("pe", "jc_p"))
    for (sa, pa), (sb, pb) in zip(a, b):
        assert sa.domain == sb.domain
        assert pa.index == pb.index
        assert np.array_equal(sa.query_input.values.array, sb.query_input.values.array)
        assert np.array_equal(sa.query_target.values.array, sb.query_target.values.array)


def test_single_clip_single_domain_retrieves_one_anchor():
    dataset, anchors, _ = build_setup(n_clips=1, domains=("pe",), k=2)
    batch = build_batch(dataset, anchors, 4, rng_seed=0, domains=("pe",))
    indices = {prompt.index for _, prompt in batch}
    assert len(indices) == 1
    # the clip's own derived anchor wins over the rest pose
    assert indices == {1}


def test_uniform_domain_draw_frequencies():
    dataset = make_dataset(SynthConfig(clips=2, frames=2, joints=3, native_pose_joints=3,
                                       clusters=2, seed=1))
    corpus = anchor_corpus(dataset, domains=("pe",), seed=0)
    anchors = sps_sample(corpus, 2, hidden_dim=4)
    batch = build_batch(dataset, anchors, 10_000, rng_seed=123)
    counts = collections.Counter(sample.domain for sample, _ in batch)
    sigma = np.sqrt(10_000 * 0.1 * 0.9)
    for domain in DOMAIN_ORDER:
        assert abs(counts[domain] - 1000) <= 3 * sigma, (domain, counts[domain])


def test_build_batch_empty_dataset_raises():
    _, anchors, _ = build_setup()
    with pytest.raises(StateError):
        build_batch([], anchors, 4, rng_seed=0)


def test_zero_learning_rate_step_leaves_params_bitwise_unchanged():
    dataset, anchors, params = build_setup(n_clips=2)
    before = {k: v.array.copy() for k, v in params.tensors.items()}
    cfg = TrainConfig(learning_rate=0.0, domains=("pe",), batch_size=3)
    batch = build_batch(dataset, anchors, 3, rng_seed=1, domains=("pe",))
    record = train_step(batch, params, AdamWState(), cfg, cfg.learning_rate)
    assert np.isfinite(record["loss"])
    for k, v in params.tensors.items():
        assert np.array_equal(v.array, before[k]), k


def test_weight_decay_only_shrink_is_exact():
    _, _, params = build_setup()
    name = "head.pos.w"
    p = params.tensors[name].array.copy()
    state = AdamWState()
    lr, wd = 1e-3, 0.5
    state.update(params, {name: np.zeros_like(p)}, lr, wd)
    assert np.array_equal(params.tensors[name].array, p - lr * wd * p)


class _ReferenceAdamW(AdamWState):
    """AdamW written as whole-array expressions, one temporary per operation;
    each moved row of a soft table is stepped as a tensor of its own."""

    def update(self, params, grads, lr, weight_decay, rows=None):
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS

        def step(p, g, m, v, t):
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            return p - lr * weight_decay * p - lr * m_hat / (np.sqrt(v_hat) + eps)

        for name, g in grads.items():
            p = params.tensors[name].array
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
                self.t[name] = np.zeros(len(p), np.int64) if name in SOFT_TABLES else 0
            if name in SOFT_TABLES:
                new = p.copy()
                for r in range(len(p)) if rows is None else rows:
                    self.t[name][r] += 1
                    new[r] = step(p[r], g[r], self.m[name][r], self.v[name][r],
                                  int(self.t[name][r]))
            else:
                self.t[name] += 1
                new = step(p, g, self.m[name], self.v[name], self.t[name])
            params.tensors[name] = NdBuffer(new)


def test_adamw_in_place_update_bitwise_equal_to_reference_formula():
    dataset, anchors, params = build_setup(n_clips=3, k=4)
    shared = {k: v.array for k, v in params.tensors.items()}
    initial = {k: a.copy() for k, a in shared.items()}
    ref_params = params.copy()  # shares every buffer with params
    cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.05, domains=("pe",), batch_size=2)
    state, ref_state = AdamWState(), _ReferenceAdamW()
    # Row 1 is retrieved at every step, row 2 at three of the nine, so its
    # step count lags; past step 7 numpy's array power would differ from the
    # Python float power the bias corrections use.
    for step, second in enumerate((1, 2, 1, 1, 2, 1, 1, 1, 2)):
        prompts = [RetrievedPrompt(hard_input=anchors.anchors[i].input,
                                   hard_target=anchors.anchors[i].target, index=i, similarity=0.0)
                   for i in (1, second)]
        batch = [(derive_task(dataset[c], "pe", rng_seed=step), prompt)
                 for c, prompt in zip((0, 2), prompts)]
        train_step(batch, params, state, cfg, cfg.learning_rate)
        train_step(batch, ref_params, ref_state, cfg, cfg.learning_rate)
    assert state.t["head.pos.w"] == ref_state.t["head.pos.w"] == 9
    for name in SOFT_TABLES:
        assert state.t[name].tolist() == ref_state.t[name].tolist() == \
            [0, 9, 3] + [0] * (len(anchors) - 3)
    assert state.t.keys() == ref_state.t.keys() == params.tensors.keys()
    assert all(state.t[k] == ref_state.t[k] for k in state.t if k not in SOFT_TABLES)
    for name, value in params.tensors.items():
        assert value.array.tobytes() == ref_params.tensors[name].array.tobytes(), name
    for name in state.m:
        assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
        assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
    # Each update made fresh parameter arrays: the shared initial ones are untouched.
    assert not np.array_equal(params.tensors["head.pos.w"].array, initial["head.pos.w"])
    assert all(np.array_equal(shared[k], initial[k]) for k in shared)


def test_single_sample_step_descends_in_most_seeds():
    wins = 0
    for seed in range(20):
        dataset, anchors, params = build_setup(n_clips=2, seed=seed)
        cfg = TrainConfig(learning_rate=1e-4, domains=("pe",), batch_size=1)
        batch = build_batch(dataset, anchors, 1, rng_seed=seed, domains=("pe",))
        before = batch_loss(batch, params)
        train_step(batch, params, AdamWState(), cfg, cfg.learning_rate)
        after = batch_loss(batch, params)
        wins += after < before
    assert wins >= 18, wins


def test_only_retrieved_soft_anchors_update():
    dataset, anchors, params = build_setup(n_clips=3, k=4)
    assert len(anchors) >= 3
    before = {k: v.array.copy() for k, v in params.tensors.items()}
    sample = derive_task(dataset[0], "pe", rng_seed=0)
    a = anchors.anchors[1]
    prompt = RetrievedPrompt(hard_input=a.input, hard_target=a.target, index=1, similarity=0.0)
    cfg = TrainConfig(learning_rate=1e-3, domains=("pe",), batch_size=1)
    state = AdamWState()
    train_step([(sample, prompt)], params, state, cfg, cfg.learning_rate)
    for name in SOFT_TABLES:
        after = params.tensors[name].array
        assert after.shape == before[name].shape == (len(anchors),) + after.shape[1:]
        assert not np.array_equal(after[1], before[name][1]), name
        for i in range(len(anchors)):
            if i != 1:
                assert np.array_equal(after[i], before[name][i]), (name, i)
        assert state.t[name].tolist() == [0, 1] + [0] * (len(anchors) - 2)
        assert not state.m[name][np.arange(len(anchors)) != 1].any()
    assert not np.array_equal(params.tensors["head.pos.w"].array, before["head.pos.w"])


def test_train_step_empty_batch_raises():
    _, _, params = build_setup()
    with pytest.raises(StateError):
        train_step([], params, AdamWState(), TrainConfig(), 2e-4)


def test_non_finite_loss_raises_numeric_error_naming_the_batch():
    dataset, anchors, params = build_setup(n_clips=1)
    sample = derive_task(dataset[0], "pe", rng_seed=0)
    huge = TaskSample(domain=sample.domain, query_input=sample.query_input,
                      query_target=MotionSequence(
                          NdBuffer(sample.query_target.values.array * 1e200),
                          Modality.POSE3D, sample.query_target.native_joint_count),
                      time_mask=None, joint_mask=None)
    prompt = retrieve_prompt(sample.query_input, anchors)
    cfg = TrainConfig(domains=("pe",), batch_size=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 0 step 7"):
            train_step([(huge, prompt)], params, AdamWState(), cfg, cfg.learning_rate,
                       batch_id="epoch 0 step 7")


def test_train_is_bitwise_reproducible():
    finals, logs = [], []
    for _ in range(2):
        dataset, anchors, params = build_setup(n_clips=3, domains=("pe", "mp_p"))
        cfg = TrainConfig(epochs=2, steps_per_epoch=2, batch_size=2,
                          domains=("pe", "mp_p"), seed=4)
        logs.append(train(dataset, anchors, params, cfg))
        finals.append({k: v.array.copy() for k, v in params.tensors.items()})
    assert logs[0] == logs[1]
    for k in finals[0]:
        assert np.array_equal(finals[0][k], finals[1][k]), k


def test_train_log_layout_and_lr_schedule():
    dataset, anchors, params = build_setup(n_clips=2)
    cfg = TrainConfig(epochs=3, steps_per_epoch=2, batch_size=2, domains=("pe",), seed=0)
    log = train(dataset, anchors, params, cfg)
    assert len(log) == 6
    for i, rec in enumerate(log):
        assert rec["global_step"] == i
        assert rec["epoch"] == i // 2
        assert rec["step"] == i % 2
        assert rec["lr"] == 2e-4 * 0.99 ** rec["epoch"]
        for key in ("loss", "position", "velocity", "shape"):
            assert np.isfinite(rec[key])


def test_train_default_steps_cover_the_dataset():
    dataset, anchors, params = build_setup(n_clips=3)
    cfg = TrainConfig(epochs=1, batch_size=2, domains=("pe", "mr"))
    # 3 clips x 2 domains // batch 2 = 3 steps
    assert len(train(dataset, anchors, params, cfg)) == 3


def test_zero_lr_training_run_equals_initialization():
    dataset, anchors, params = build_setup(n_clips=2)
    before = {k: v.array.copy() for k, v in params.tensors.items()}
    cfg = TrainConfig(learning_rate=0.0, epochs=1, steps_per_epoch=2, batch_size=2,
                      domains=("pe",))
    train(dataset, anchors, params, cfg)
    for k, v in params.tensors.items():
        assert np.array_equal(v.array, before[k]), k


def test_hard_anchors_are_byte_identical_after_training():
    dataset, anchors, params = build_setup(n_clips=2, domains=("pe", "jc_p"))
    snapshots = [(a.input.values.array.copy(), a.target.values.array.copy())
                 for a in anchors.anchors]
    cfg = TrainConfig(learning_rate=1e-2, epochs=1, steps_per_epoch=3, batch_size=2,
                      domains=("pe", "jc_p"))
    train(dataset, anchors, params, cfg)
    for a, (inp, tgt) in zip(anchors.anchors, snapshots):
        assert np.array_equal(a.input.values.array, inp)
        assert np.array_equal(a.target.values.array, tgt)


def test_evaluate_oracle_prediction_scores_zero():
    # The oracle predicts each target exactly; both metrics `evaluate` uses score it 0.
    dataset, _, _ = build_setup(n_clips=2, domains=("pe", "mr"))
    for domain, metric in (("pe", mpjpe), ("mr", mean_param_error)):
        for i, clip in enumerate(dataset):
            target = derive_task(clip, domain, derive_seed(0, i, domain)).query_target
            assert metric(target.values.array, target) == 0.0, domain


def test_evaluate_is_deterministic_and_side_effect_free():
    dataset, anchors, params = build_setup(n_clips=2, domains=("pe", "mp_m"))
    before = {k: v.array.copy() for k, v in params.tensors.items()}
    a = evaluate(dataset, anchors, params, domains=("pe", "mp_m"), seed=3)
    b = evaluate(dataset, anchors, params, domains=("pe", "mp_m"), seed=3)
    assert a == b
    assert set(a) == {"pe", "mp_m"}
    assert all(np.isfinite(v) for v in a.values())
    for k, v in params.tensors.items():
        assert np.array_equal(v.array, before[k]), k


def test_evaluate_empty_dataset_raises():
    _, anchors, params = build_setup()
    with pytest.raises(StateError):
        evaluate([], anchors, params)


@functools.cache
def seed_setup():
    dataset, anchors, _ = build_setup()
    return dataset, anchor_corpus(dataset, domains=("pe",)), anchors


MASKED = [d for d in DOMAIN_ORDER if DOMAINS[d].mask_kind is not None]
SEEDS = st.one_of(st.sampled_from([True, 2.5, float("nan"), -1, np.int64(3), "x", [], 0]),
                  st.builds(np.random.default_rng, st.integers(0, 9)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=SEEDS, call=st.sampled_from(["random", "cluster", "init", "batch"] + MASKED),
       domains=st.sampled_from([(), ("pe",), ("jc_m", "mib_p")]))
def test_a_seed_is_a_generator_or_an_integer_at_least_zero(seed, call, domains):
    # Every seeded entry point takes a numpy Generator or an integer >= 0 (a
    # numpy integer too, never a bool) and rejects anything else, and
    # build_batch an empty domain list, with a ConfigError.
    dataset, corpus, anchors = seed_setup()
    net = NetConfig(frames=HALF, joints=JOINTS, hidden=HIDDEN, layers=1)
    run = {"random": lambda: random_sample(corpus, 2, seed, hidden_dim=HIDDEN),
           "cluster": lambda: cluster_sample(corpus, 2, seed, hidden_dim=HIDDEN),
           "init": lambda: init_params(net, seed),
           "batch": lambda: build_batch(dataset, anchors, 2, seed, domains=domains),
           }.get(call, lambda: derive_task(dataset[0], call, seed))
    valid = isinstance(seed, np.random.Generator) or is_count(seed, 0)
    if valid and (call != "batch" or domains):
        run()
    else:
        with pytest.raises(ConfigError):
            run()
