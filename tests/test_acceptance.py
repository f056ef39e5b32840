"""Acceptance gate: twelve behavioral criteria at fixed tolerances.

Each test measures its own wall-clock time, prints exactly one PASS/FAIL
line (visible with -s, and always on failure), and asserts both the
behavioral claim and the runtime bound.
"""

import dataclasses
import struct
import time

import numpy as np

from motionctx.errors import FormatError
from motionctx.fileio import (load_anchors, load_checkpoint, load_dataset, read_file,
                              save_anchors, save_checkpoint, save_dataset)
from motionctx.motion import (MotionSequence, Modality, canonical_tbody, make_joint_mask,
                              make_time_mask, unify_pose3d)
from motionctx.nd import NdBuffer
from motionctx.network import (VIEWS, NetConfig, aggregate_level, encode_context, forward,
                               init_params, xfusion_block)
from motionctx.cli import run_gradient_check
from motionctx.prompting import (cluster_sample, coverage, random_sample, retrieve_prompt,
                                 similarity, sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import TrainConfig, anchor_corpus, evaluate, train


def report(num, name, ok, detail, elapsed, bound):
    in_time = elapsed < bound
    verdict = "PASS" if ok and in_time else "FAIL"
    line = f"[criterion {num:2d}] {name}: {verdict} ({detail}; {elapsed:.1f}s / bound {bound:.0f}s)"
    print(line)
    assert ok and in_time, line


def _pose_entry(values):
    seq = unify_pose3d(values)
    return (seq, seq, "pe")


def _random_corpus(rng, n, frames, joints, integer_grid=False):
    out = []
    for _ in range(n):
        if integer_grid:
            vals = rng.integers(-2, 3, size=(frames, joints, 3)).astype(float)
        else:
            vals = rng.normal(size=(frames, joints, 3))
        out.append(_pose_entry(vals))
    return out


def _naive_max_min(corpus, k):
    """Reference sampler: recompute every max-similarity from scratch each step."""
    frames, joints = corpus[0][0].values.shape[:2]
    anchors = [canonical_tbody(frames, joints)]
    picked = []
    while len(anchors) < k and len(picked) < len(corpus):
        best_i, best_v = None, None
        for i in range(len(corpus)):
            if i in picked:
                continue
            max_sim = max(similarity(corpus[i][0], a) for a in anchors)
            if best_v is None or max_sim < best_v:
                best_i, best_v = i, max_sim
        picked.append(best_i)
        anchors.append(corpus[best_i][0])
    return picked


def test_criterion_01_sampler_matches_naive_max_min_oracle():
    t0 = time.time()
    mismatches = 0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 65))
        frames = int(rng.integers(1, 5))
        joints = int(rng.integers(1, 4))
        corpus = _random_corpus(rng, n, frames, joints, integer_grid=trial % 2 == 0)
        k = int(rng.integers(1, n + 2))
        got = [a.source_index for a in sps_sample(corpus, k, hidden_dim=2).anchors[1:]]
        if got != _naive_max_min(corpus, k):
            mismatches += 1
    report(1, "max-min sampler equals naive oracle", mismatches == 0,
           f"50 corpora, {mismatches} mismatches, exact", time.time() - t0, 10)


def test_criterion_02_scalar_toy_selection_order():
    t0 = time.time()
    corpus = [_pose_entry(np.full((1, 1, 3), 0.0) + [v, 0.0, 0.0]) for v in (1.0, 2.0, 10.0)]
    anchors = sps_sample(corpus, 4, hidden_dim=2)
    values = [float(a.input.values.array[0, 0, 0]) for a in anchors.anchors]
    sources = [a.source_index for a in anchors.anchors]
    ok = values == [0.0, 10.0, 2.0, 1.0] and sources == [-1, 2, 1, 0]
    report(2, "scalar toy selects [0, 10, 2, 1]", ok,
           f"values {values}, sources {sources}, exact", time.time() - t0, 1)


def test_criterion_03_similarity_metric_properties():
    t0 = time.time()
    rng = np.random.default_rng(3)
    n = 10_000
    frames, joints = 3, 2
    triples = [[MotionSequence(NdBuffer(rng.normal(size=(frames, joints, 3))),
                               Modality.POSE3D, joints) for _ in range(3)]
               for _ in range(n)]
    sym_ok = self_ok = True
    worst_gap = 0.0
    for x, y, z in triples:
        sxy, syx = similarity(x, y), similarity(y, x)
        sym_ok &= sxy == syx
        self_ok &= similarity(x, x) == 0.0
        # triangle inequality of the induced distance -sim
        gap = (-similarity(x, z)) - ((-sxy) + (-similarity(y, z)))
        worst_gap = max(worst_gap, gap)
    ok = sym_ok and self_ok and worst_gap <= 1e-9
    report(3, "similarity symmetry, zero self, triangle", ok,
           f"{n} triples, worst triangle gap {worst_gap:.2e} <= 1e-9",
           time.time() - t0, 5)


def test_criterion_04_retrieval_equals_linear_scan():
    t0 = time.time()
    mismatches = 0
    for trial in range(1000):
        rng = np.random.default_rng(10_000 + trial)
        n = int(rng.integers(1, 8))
        frames = int(rng.integers(1, 4))
        joints = int(rng.integers(1, 4))
        corpus = _random_corpus(rng, n, frames, joints, integer_grid=trial % 3 == 0)
        if trial % 4 == 0 and n > 1:
            corpus[1] = corpus[0]  # duplicate forces a similarity tie
        anchors = sps_sample(corpus, int(rng.integers(1, n + 2)), hidden_dim=2)
        query = MotionSequence(NdBuffer(rng.normal(size=(frames, joints, 3))),
                               Modality.POSE3D, joints)
        sims = [similarity(query, a.input) for a in anchors.anchors]
        oracle = max(range(len(sims)), key=lambda i: (sims[i], -i))
        if retrieve_prompt(query, anchors).index != oracle:
            mismatches += 1
    report(4, "retrieval equals linear-scan argmax", mismatches == 0,
           f"1000 configurations, {mismatches} mismatches, exact", time.time() - t0, 5)


def test_criterion_05_fresh_parameters_weigh_levels_uniformly():
    t0 = time.time()
    cfg = NetConfig(frames=4, joints=6, hidden=8, layers=2)
    params = init_params(cfg, 11)
    rng = np.random.default_rng(12)
    q, p, p_gt = (NdBuffer(rng.normal(size=(4, 6, 3))) for _ in range(3))
    third = 1.0 / 3.0
    u0 = NdBuffer(np.zeros((4, 6, 8)))
    result = forward(q, p, p_gt, u0, params)
    scores_ok = True
    for layer_scores in result.influence:
        for s in layer_scores.values():
            scores_ok &= bool(np.all(s.raw_temporal == third) and np.all(s.raw_spatial == third)
                              and np.all(s.raw_temporal.mean(axis=-3) == third)
                              and np.all(s.raw_spatial.mean(axis=-3) == third))

    # fused output is the residual-wrapped mean of the three level outputs
    hq, hp = encode_context(q, p, p_gt, u0, params)
    max_dev = 0.0
    for branch, h in (("q", hq), ("p", hp)):
        cur = h.array
        for view in VIEWS:
            base = f"layer0.{branch}.{view}"
            tracks = cur.transpose(1, 0, 2) if view == "temporal" else cur
            weights = {
                "attention": {k: params[f"{base}.attn.{k}"]
                              for k in ("wq", "wk", "wv", "wo", "bo")},
                "graph": {"w": params[f"{base}.graph.w"]},
                "ssm": {"w": params[f"{base}.ssm.w"], "b": params[f"{base}.ssm.b"],
                        "a_raw": params[f"{base}.ssm.a_raw"],
                        "b_gate": params[f"{base}.ssm.b_gate"],
                        "c": params[f"{base}.ssm.c"], "d": params[f"{base}.ssm.d"]},
            }
            levels = [aggregate_level(NdBuffer(tracks), lvl, view, weights[lvl]).array
                      for lvl in ("attention", "graph", "ssm")]
            resid = tracks + (levels[0] + levels[1] + levels[2]) / 3.0
            mu = resid.mean(axis=-1, keepdims=True)
            var = ((resid - mu) ** 2).mean(axis=-1, keepdims=True)
            normed = (resid - mu) / np.sqrt(var + 1e-5)
            cur = normed.transpose(1, 0, 2) if view == "temporal" else normed
        block_out, _ = xfusion_block(h, params, 0, branch)
        max_dev = max(max_dev, float(np.abs(block_out.array - cur).max()))
    ok = scores_ok and max_dev <= 1e-9
    report(5, "fresh net weighs levels 1/3 and fuses by mean", ok,
           f"scores exact, fused deviation {max_dev:.2e} <= 1e-9", time.time() - t0, 5)


def test_criterion_06_analytic_gradients_match_central_differences():
    t0 = time.time()
    reportd = run_gradient_check(NetConfig(frames=4, joints=5, hidden=8, layers=2), 0)
    ok = reportd.max_rel_err < 1e-4
    report(6, "analytic gradients vs central differences", ok,
           f"all parameters, max rel err {reportd.max_rel_err:.2e} < 1e-4 "
           f"(worst {reportd.worst_param})", time.time() - t0, 120)


def test_criterion_07_recurrence_is_causal():
    t0 = time.time()
    ok = True
    for case in range(100):
        rng = np.random.default_rng(500 + case)
        steps = int(rng.integers(2, 9))
        width = int(rng.integers(2, 7))
        w = {"w": NdBuffer(rng.normal(size=(width, width))),
             "b": NdBuffer(rng.normal(size=(width,))),
             "a_raw": NdBuffer(rng.normal(size=(width,))),
             "b_gate": NdBuffer(rng.normal(size=(width,))),
             "c": NdBuffer(rng.normal(size=(width,))),
             "d": NdBuffer(rng.normal(size=(width,)))}
        base = rng.normal(size=(steps, width))
        out_base = aggregate_level(NdBuffer(base), "ssm", "temporal", w).array
        t = int(rng.integers(1, steps))
        bumped = base.copy()
        bumped[t] += rng.normal(size=width)
        out_bumped = aggregate_level(NdBuffer(bumped), "ssm", "temporal", w).array
        ok &= bool(np.array_equal(out_base[:t], out_bumped[:t]))
    report(7, "recurrence outputs are causal", ok,
           "100 cases, prefixes bitwise equal", time.time() - t0, 5)


def test_criterion_08_mask_law():
    t0 = time.time()
    ok = True
    for seed in range(10_000):
        tm = make_time_mask(16, 0.4, seed)
        ok &= int((tm == 0.0).sum()) == 6 and tm[0] == 1.0 and tm[15] == 1.0
        jm = make_joint_mask(16, 0, 0.4, seed)
        ok &= int((jm == 0.0).sum()) == 6 and jm[0] == 1.0
    report(8, "mask law (count and protected positions)", ok,
           "10000 masks each kind, F=16 ratio 0.4 -> 6 zeros, ends and root kept",
           time.time() - t0, 5)


OVERFIT_DOMAINS = ("pe", "mp_p", "mib_p")


def _overfit_setup(seed):
    clips = make_dataset(SynthConfig(clips=16, frames=8, joints=6, native_pose_joints=5,
                                     clusters=2, seed=seed, amplitude=0.1))
    corpus = anchor_corpus(clips, domains=OVERFIT_DOMAINS, seed=seed)
    anchors = sps_sample(corpus, 8, hidden_dim=16)
    net = NetConfig(frames=8, joints=6, hidden=16, layers=1)
    return clips, anchors, net


def test_criterion_09_toy_overfit():
    t0 = time.time()
    clips, anchors, net = _overfit_setup(0)
    params = init_params(net, 0, anchors=anchors)
    untrained = evaluate(clips, anchors, params, domains=OVERFIT_DOMAINS, seed=0)
    cfg = TrainConfig(epochs=10, steps_per_epoch=50, batch_size=8,
                      domains=OVERFIT_DOMAINS, seed=0)  # optimizer at defaults
    log = train(clips, anchors, params, cfg)
    trained = evaluate(clips, anchors, params, domains=OVERFIT_DOMAINS, seed=0)
    first, last = log[0]["loss"], log[-1]["loss"]
    ratio = last / first
    eval_ok = all(trained[d] < untrained[d] for d in OVERFIT_DOMAINS)
    ok = len(log) == 500 and ratio <= 0.10 and eval_ok
    report(9, "toy overfit (16 clips, 3 domains, 500 steps)", ok,
           f"loss {first:.3f} -> {last:.3f} (ratio {ratio:.3f} <= 0.10), "
           f"position error trained < untrained on all domains: {eval_ok}",
           time.time() - t0, 300)


def test_criterion_10_sampling_coverage_trend():
    t0 = time.time()
    beats_random = beats_cluster = 0
    trials = 20
    for seed in range(trials):
        clips = make_dataset(SynthConfig(clips=24, frames=4, joints=5, native_pose_joints=4,
                                         clusters=2, outliers=4, cluster_spread=0.02,
                                         amplitude=0.1, seed=seed))
        corpus = anchor_corpus(clips, domains=("pe",), seed=seed)
        queries = [entry[0] for entry in corpus]
        cov_sps = coverage(queries, sps_sample(corpus, 8, hidden_dim=4))
        beats_random += cov_sps >= coverage(queries, random_sample(corpus, 8, seed, hidden_dim=4))
        beats_cluster += cov_sps >= coverage(queries, cluster_sample(corpus, 8, seed, hidden_dim=4))
    ok = beats_random >= 16 and beats_cluster >= 12
    report(10, "max-min coverage beats baselines", ok,
           f"K=8 on 2 clusters + outliers: >= random {beats_random}/20 (need 16), "
           f">= cluster {beats_cluster}/20 (need 12)", time.time() - t0, 60)


def test_criterion_11_soft_anchor_trend():
    t0 = time.time()

    def final_loss(seed, soft):
        clips = make_dataset(SynthConfig(clips=8, frames=8, joints=6, native_pose_joints=5,
                                         clusters=2, seed=seed, amplitude=0.1))
        corpus = anchor_corpus(clips, domains=("pe", "mp_p"), seed=seed)
        anchors = sps_sample(corpus, 4, hidden_dim=8)
        net = NetConfig(frames=8, joints=6, hidden=8, layers=1)
        if not soft:
            # frozen-at-zero arm: zero is a fixed point of AdamW on w1 * w2
            # (both gradients are exactly 0), so these factors never move
            anchors = dataclasses.replace(anchors,
                                          soft_w1=np.zeros_like(anchors.soft_w1),
                                          soft_w2=np.zeros_like(anchors.soft_w2))
        params = init_params(net, seed, anchors=anchors)
        cfg = TrainConfig(epochs=3, steps_per_epoch=50, batch_size=8,
                          domains=("pe", "mp_p"), seed=seed)
        log = train(clips, anchors, params, cfg)
        assert soft or not any(v.array.any() for k, v in params.tensors.items()
                               if k.startswith("soft."))
        return float(np.mean([r["loss"] for r in log[-10:]]))

    softs = [final_loss(seed, True) for seed in range(5)]
    frozens = [final_loss(seed, False) for seed in range(5)]
    ok = bool(np.median(softs) <= np.median(frozens))
    report(11, "trainable soft anchors do not lose to frozen zeros", ok,
           f"5 seeds, median {np.median(softs):.4f} (soft) vs "
           f"{np.median(frozens):.4f} (frozen)", time.time() - t0, 900)


def test_criterion_12_persistence(tmp_path):
    t0 = time.time()
    clips = make_dataset(SynthConfig(clips=4, frames=4, joints=5, native_pose_joints=4,
                                     clusters=2, seed=9))
    d1, d2 = str(tmp_path / "d1.bin"), str(tmp_path / "d2.bin")
    save_dataset(d1, clips)
    save_dataset(d2, load_dataset(d1))
    dataset_ok = open(d1, "rb").read() == open(d2, "rb").read()

    anchors = sps_sample(anchor_corpus(load_dataset(d1), domains=("pe", "mp_m"), seed=0),
                         4, hidden_dim=8)
    a1, a2 = str(tmp_path / "a1.bin"), str(tmp_path / "a2.bin")
    save_anchors(a1, anchors, meta={"domains": ["pe", "mp_m"], "corpus_seed": 0})
    loaded, meta = load_anchors(a1)
    save_anchors(a2, loaded, meta=meta)
    anchors_ok = (open(a1, "rb").read() == open(a2, "rb").read()
                  and np.array_equal(loaded.soft_w1, anchors.soft_w1)
                  and np.array_equal(loaded.soft_w2, anchors.soft_w2))

    params = init_params(NetConfig(frames=4, joints=5, hidden=8, layers=1), 3,
                         anchors=anchors)
    ck = str(tmp_path / "ck.bin")
    save_checkpoint(ck, params, meta={"steps": 0})
    reloaded, _ = load_checkpoint(ck)
    checkpoint_ok = all(np.array_equal(reloaded.tensors[k].array, v.array)
                        for k, v in params.tensors.items())

    raw = bytearray(open(d1, "rb").read())
    raw[0:4] = b"QQQQ"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    try:
        read_file(str(bad))
        magic_ok = False
    except FormatError:
        magic_ok = True
    raw = bytearray(open(d1, "rb").read())
    raw[4:6] = struct.pack("<H", 42)
    bad.write_bytes(bytes(raw))
    try:
        read_file(str(bad))
        version_ok = False
    except FormatError:
        version_ok = True

    ok = dataset_ok and anchors_ok and checkpoint_ok and magic_ok and version_ok
    report(12, "persistence round trips and header rejection", ok,
           f"dataset {dataset_ok}, anchors {anchors_ok}, checkpoint {checkpoint_ok}, "
           f"bad magic rejected {magic_ok}, bad version rejected {version_ok}",
           time.time() - t0, 5)
