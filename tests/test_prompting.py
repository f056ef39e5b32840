"""Similarity space, max-min sampling, baselines, and retrieval."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from motionctx.errors import DimensionError, DomainError, StateError
from motionctx.motion import Modality, MotionSequence, canonical_tbody, unify_pose3d
from motionctx.nd import NdBuffer
from motionctx import prompting
from motionctx.prompting import (_sims_to_one, cluster_sample, corpus_fingerprint, coverage,
                                 random_sample, retrieve_prompt, retrieve_prompts, similarity,
                                 soft_anchor_value, sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus


def mesh_seq(values):
    arr = np.asarray(values, dtype=np.float64)
    return MotionSequence(NdBuffer(arr), Modality.MESH, arr.shape[1])


def scalar_seq(v):
    return mesh_seq([[[float(v), 0.0, 0.0]]])


def entry(seq, domain="mp_m"):
    return (seq, seq, domain)


def scalar_corpus(values):
    return [entry(scalar_seq(v)) for v in values]


def random_corpus(n, frames=2, joints=3, seed=0):
    rng = np.random.default_rng(seed)
    return [entry(mesh_seq(rng.normal(size=(frames, joints, 3)))) for _ in range(n)]


def test_similarity_frozen_values():
    a = scalar_seq(0.0)
    assert similarity(a, a) == 0.0
    b = mesh_seq([[[3.0, 4.0, 0.0]]])
    assert similarity(mesh_seq([[[0.0, 0.0, 0.0]]]), b) == -5.0
    x = mesh_seq(np.zeros((2, 2, 3)))
    y = mesh_seq([[[1.0, 0, 0], [2.0, 0, 0]], [[3.0, 0, 0], [4.0, 0, 0]]])
    assert similarity(x, y) == -2.5


def test_similarity_symmetric_nonpositive_definite():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = mesh_seq(rng.normal(size=(3, 4, 3)))
        y = mesh_seq(rng.normal(size=(3, 4, 3)))
        s = similarity(x, y)
        assert s <= 0.0
        assert s == similarity(y, x)
    x = mesh_seq(rng.normal(size=(3, 4, 3)))
    assert similarity(x, x) == 0.0


def test_similarity_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(300):
        x, y, z = (rng.normal(size=(2, 3, 3)) for _ in range(3))
        d = lambda a, b: -similarity(mesh_seq(a), mesh_seq(b))
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-9


def test_similarity_shape_mismatch():
    with pytest.raises(DimensionError):
        similarity(mesh_seq(np.zeros((1, 2, 3))), mesh_seq(np.zeros((2, 2, 3))))


def _plain_sims(stacked, one):
    """The similarity kernel as the plain formula, one (n, F, J, 3) temporary."""
    return 0.0 - np.sqrt(((stacked - one) ** 2).sum(axis=-1)).mean(axis=(1, 2))


def assert_kernel_is_plain_formula(stacked, one):
    got = _sims_to_one(stacked, one)
    assert got.shape == (len(stacked),)
    assert got.tobytes() == _plain_sims(stacked, one).tobytes()
    return got


def block_rows(frames, joints):
    return prompting._SIM_BLOCK_BYTES // (frames * joints * 3 * 8)


def test_sims_to_one_bitwise_equal_to_plain_formula_across_blocks():
    rng = np.random.default_rng(11)
    rows = block_rows(16, 24)
    assert rows > 1
    for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
        stacked = rng.normal(size=(n, 16, 24, 3))
        assert_kernel_is_plain_formula(stacked, rng.normal(size=(16, 24, 3)))
    for n in (1, 7, block_rows(1, 1) + 3):  # F = J = 1
        assert_kernel_is_plain_formula(rng.normal(size=(n, 1, 1, 3)), rng.normal(size=(1, 1, 3)))


def test_sims_to_one_bitwise_equal_over_magnitudes():
    rng = np.random.default_rng(12)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1, 1, 1))
    stacked = rng.normal(size=(300, 4, 5, 3)) * scale
    for one in (np.zeros((4, 5, 3)), 1e-3 * rng.normal(size=(4, 5, 3)),
                1e3 * rng.normal(size=(4, 5, 3))):
        assert_kernel_is_plain_formula(stacked, one)


def test_sims_to_one_leaves_a_read_only_stack_unwritten():
    anchors = sps_sample(random_corpus(20, frames=3, joints=4, seed=5), k=12, hidden_dim=4)
    stacked = anchors.stacked_inputs()
    before = stacked.copy()
    sims = assert_kernel_is_plain_formula(stacked, stacked[3])
    assert not stacked.flags.writeable
    assert np.array_equal(stacked, before)
    # An identical row scores exactly +0.0, never -0.0.
    assert sims[3] == 0.0 and not np.signbit(sims[3])
    assert np.all(sims[np.arange(len(sims)) != 3] < 0.0)


def test_sims_to_one_temporaries_stay_within_a_few_blocks():
    n = 5000
    stacked = np.random.default_rng(13).normal(size=(n, 16, 24, 3))
    one = stacked[17].copy()
    tracemalloc.start()
    try:
        sims = _sims_to_one(stacked, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sims.shape == (n,)
    assert peak < 4 * prompting._SIM_BLOCK_BYTES + sims.nbytes, peak


def test_sps_scalar_toy_trace():
    anchors = sps_sample(scalar_corpus([1.0, 2.0, 10.0]), k=4, hidden_dim=8)
    values = [a.input.values.array[0, 0, 0] for a in anchors.anchors]
    assert values == [0.0, 10.0, 2.0, 1.0]
    assert [a.source_index for a in anchors.anchors] == [-1, 2, 1, 0]
    # selection trace holds the max-min similarity at each pick
    assert anchors.selection_trace == (-10.0, -2.0, -1.0)


def test_sps_k1_and_corpus_exhaustion():
    only_tbody = sps_sample(scalar_corpus([1.0, 2.0]), k=1, hidden_dim=4)
    assert len(only_tbody) == 1
    exhausted = sps_sample(scalar_corpus([1.0, 2.0, 3.0]), k=10, hidden_dim=4)
    assert len(exhausted) == 4  # rest pose + whole corpus


def test_sps_rejects_bad_arguments():
    with pytest.raises(DomainError):
        sps_sample(scalar_corpus([1.0]), k=0)
    with pytest.raises(StateError):
        sps_sample([], k=2)


@pytest.mark.parametrize("hidden", [0, -1])
@pytest.mark.parametrize("sample", [
    lambda corpus, hidden: sps_sample(corpus, 2, hidden_dim=hidden),
    lambda corpus, hidden: random_sample(corpus, 2, rng_seed=0, hidden_dim=hidden),
    lambda corpus, hidden: cluster_sample(corpus, 2, rng_seed=0, hidden_dim=hidden),
], ids=["sps", "random", "cluster"])
def test_samplers_reject_a_hidden_width_below_one(sample, hidden):
    with pytest.raises(DomainError, match=f"hidden width must be >= 1, got {hidden}$"):
        sample(scalar_corpus([1.0, 2.0, 3.0]), hidden)


def _oracle_sps(stacked, k):
    """Literal max-min selection recomputing every pairwise similarity."""

    def sim(a, b):
        return float(-np.sqrt(((a - b) ** 2).sum(axis=-1)).mean())

    anchors = [np.zeros(stacked.shape[1:])]
    unsampled = list(range(len(stacked)))
    order, trace = [], []
    while len(anchors) < k and unsampled:
        scored = [(max(sim(stacked[i], a) for a in anchors), i) for i in unsampled]
        score, pick = min(scored)  # ties fall to the lowest index
        order.append(pick)
        trace.append(score)
        unsampled.remove(pick)
        anchors.append(stacked[pick])
    return order, trace


def test_sps_matches_bruteforce_oracle():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 24))
        corpus = random_corpus(n, seed=200 + seed)
        k = int(rng.integers(1, n + 2))
        got = sps_sample(corpus, k, hidden_dim=4)
        want, _ = _oracle_sps(np.stack([c[0].values.array for c in corpus]), k)
        assert [a.source_index for a in got.anchors[1:]] == want


def test_sps_matches_bruteforce_oracle_on_synth_corpus():
    # Toy-size synth clips (F=8, J=6) derived for every domain.
    corpus = anchor_corpus(make_dataset(SynthConfig(clips=8)), seed=3)
    got = sps_sample(corpus, 24, hidden_dim=4)
    want, trace = _oracle_sps(np.stack([c[0].values.array for c in corpus]), 24)
    assert [a.source_index for a in got.anchors[1:]] == want
    assert got.selection_trace == tuple(trace)


def _full_update_sps(stacked, k):
    """The max-min loop that rescored every member, taken or not, each step."""
    frames, joints = stacked.shape[1:3]
    best = _sims_to_one(stacked, canonical_tbody(frames, joints).values.array)
    taken = np.zeros(len(stacked), dtype=bool)
    picked, trace = [], []
    while len(picked) + 1 < k and not taken.all():
        idx = int(np.argmin(np.where(taken, np.inf, best)))
        picked.append(idx)
        trace.append(float(best[idx]))
        taken[idx] = True
        best = np.maximum(best, _sims_to_one(stacked, stacked[idx]))
    return picked, trace


def assert_sps_is_full_update(corpus, k):
    got = sps_sample(corpus, k, hidden_dim=4)
    picked, trace = _full_update_sps(np.stack([c[0].values.array for c in corpus]), k)
    assert [a.source_index for a in got.anchors[1:]] == picked
    assert got.selection_trace == tuple(trace)


def test_sps_alive_only_update_equals_full_update_bitwise():
    for seed in range(30):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 40))
        if seed % 3 == 0:  # integer grid: many exactly tied similarities
            corpus = [entry(mesh_seq(rng.integers(-1, 2, size=(2, 3, 3)).astype(float)))
                      for _ in range(n)]
        else:
            corpus = random_corpus(n, seed=400 + seed)
        if seed % 4 == 0 and n > 2:
            corpus[2] = corpus[0]  # duplicate members tie exactly
        k = int(rng.integers(1, n + 5))  # k > corpus size exhausts the corpus
        assert_sps_is_full_update(corpus, k)


def _pruning_corpus(rng, n, kind, scale):
    if kind == "clustered":
        centers = rng.normal(size=(int(rng.integers(2, 9)), 2, 3, 3))
        values = centers[rng.integers(0, len(centers), size=n)] + 0.05 * rng.normal(
            size=(n, 2, 3, 3))
    elif kind == "grid":  # integer values: many exactly tied similarities
        values = rng.integers(-2, 3, size=(n, 2, 3, 3)).astype(float)
    else:
        values = rng.normal(size=(n, 2, 3, 3))
    if kind != "random":  # duplicate members tie exactly
        values[rng.integers(0, n, size=n // 10)] = values[rng.integers(0, n, size=n // 10)]
    return [entry(mesh_seq(v)) for v in scale * values]


def test_sps_pivot_pruning_equals_full_update_bitwise():
    # Corpora well beyond PIVOTS picks, so most picks run the pruned update.
    assert prompting.PIVOTS < 50
    rng = np.random.default_rng(500)
    for case in range(24):
        n = int(rng.integers(50, 401))
        k = [1, prompting.PIVOTS + 1, prompting.PIVOTS + 2, n + 2][case % 4] if case < 8 \
            else int(rng.integers(1, n + 3))
        kind = ("clustered", "grid", "random")[case % 3]
        scale = 10.0 ** rng.uniform(-3, 3) if case % 2 else (1e-3, 1.0, 1e3)[case % 3]
        assert_sps_is_full_update(_pruning_corpus(rng, n, kind, scale), k)


def test_sps_pivot_pruning_on_a_tight_triangle():
    # Collinear scalars: |d(x, v) - d(p, v)| equals d(x, p) for a pivot v on
    # the far side, so only SLACK keeps a bound rounded one ulp high from
    # skipping a member whose similarity ties its best. Repeated values and
    # an evenly spaced grid make the ties; steps of 0.1 and 0.7 round, and
    # SLACK = 0 fails this test.
    values = [float(v) for v in np.arange(-60, 61)] + [3.0, 3.0, -7.0, 0.5, 0.5, 59.5]
    assert len(values) > prompting.PIVOTS
    for k in (prompting.PIVOTS + 2, 40, len(values) + 2):
        assert_sps_is_full_update(scalar_corpus(values), k)
        for step in (0.1, 0.7):
            assert_sps_is_full_update(scalar_corpus([v * step for v in values[::-1]]), k)
            assert_sps_is_full_update(scalar_corpus([v * step for v in values]), k)


def test_sps_pruning_skips_most_rows_and_scores_through_sims_to_one(monkeypatch):
    # Toy bench shape: 64 clips, F=8, J=6, every domain, k=64.
    corpus = anchor_corpus(make_dataset(SynthConfig(clips=64, clusters=4)), seed=1)
    n, k = len(corpus), 64
    want = sps_sample(corpus, k, hidden_dim=4)
    rows, many_calls = [], []
    one, many = prompting._sims_to_one, prompting._sims_to_many
    monkeypatch.setattr(prompting, "_sims_to_one",
                        lambda stacked, q: rows.append(len(stacked)) or one(stacked, q))
    monkeypatch.setattr(prompting, "_sims_to_many",
                        lambda stacked, qs: many_calls.append(1) or many(stacked, qs))
    got = sps_sample(corpus, k, hidden_dim=4)
    assert got.selection_trace == want.selection_trace
    assert [a.source_index for a in got.anchors] == [a.source_index for a in want.anchors]
    assert len(many_calls) == len(rows)  # no scoring call bypasses _sims_to_one
    assert rows[:prompting.PIVOTS + 1] == [n - j for j in range(prompting.PIVOTS + 1)]
    assert sum(rows) < sum(n - j for j in range(k)) / 2


def test_sps_maxmin_property_post_hoc():
    corpus = random_corpus(16, seed=77)
    anchors = sps_sample(corpus, k=6, hidden_dim=4)
    stacked = np.stack([c[0].values.array for c in corpus])

    def sim(a, b):
        return float(-np.sqrt(((a - b) ** 2).sum(axis=-1)).mean())

    chosen = [a.source_index for a in anchors.anchors[1:]]
    prefix = [np.zeros(stacked.shape[1:])]
    for step, pick in enumerate(chosen):
        unsampled = [i for i in range(len(corpus)) if i not in chosen[:step]]
        maxsim = {i: max(sim(stacked[i], a) for a in prefix) for i in unsampled}
        assert maxsim[pick] <= min(maxsim.values()) + 1e-12
        prefix.append(stacked[pick])


def test_sps_invariant_under_corpus_permutation():
    corpus = random_corpus(12, seed=31)  # continuous values: no ties
    base = sps_sample(corpus, k=5, hidden_dim=4)
    perm = [corpus[i] for i in np.random.default_rng(1).permutation(len(corpus))]
    shuffled = sps_sample(perm, k=5, hidden_dim=4)
    for a, b in zip(base.anchors, shuffled.anchors):
        assert np.array_equal(a.input.values.array, b.input.values.array)


def test_anchor_set_size_invariant_and_distinct_members():
    corpus = random_corpus(9, seed=13)
    for k in (1, 4, 9, 12):
        got = sps_sample(corpus, k, hidden_dim=4)
        assert len(got) == min(k, len(corpus) + 1)
        members = [a.source_index for a in got.anchors[1:]]
        assert len(set(members)) == len(members)


def test_max_sim_examples():
    # MaxSim(x, anchors) is the similarity and index of the retrieved prompt.
    def max_sim(x, anchors):
        got = retrieve_prompt(x, anchors)
        return got.similarity, got.index

    anchors = sps_sample(scalar_corpus([1.0, 2.0, 10.0]), k=4, hidden_dim=4)
    target = anchors.anchors[3].input
    assert max_sim(target, anchors) == (0.0, 3)

    pair = sps_sample(scalar_corpus([10.0]), k=2, hidden_dim=4)  # anchors {0, 10}
    assert max_sim(scalar_seq(7.0), pair) == (-3.0, 1)
    assert max_sim(scalar_seq(5.0), pair) == (-5.0, 0)  # tie breaks low


def test_retrieve_prompt_matches_linear_scan():
    corpus = random_corpus(20, seed=3)
    anchors = sps_sample(corpus, k=8, hidden_dim=4)
    stacked = anchors.stacked_inputs()
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = mesh_seq(rng.normal(size=stacked.shape[1:]))
        got = retrieve_prompt(q, anchors)
        sims = [-np.sqrt(((stacked[i] - q.values.array) ** 2).sum(axis=-1)).mean()
                for i in range(len(stacked))]
        assert got.index == int(np.argmax(sims))
        assert got.similarity == pytest.approx(max(sims), abs=1e-12)


def test_retrieve_prompt_toy_cases():
    three = sps_sample(scalar_corpus([10.0, 2.0]), k=3, hidden_dim=4)  # {0, 10, 2}
    assert retrieve_prompt(scalar_seq(7.0), three).hard_input.values.array[0, 0, 0] == 10.0
    pair = sps_sample(scalar_corpus([10.0]), k=2, hidden_dim=4)
    assert retrieve_prompt(scalar_seq(5.0), pair).index == 0
    stored = three.anchors[2].input
    assert retrieve_prompt(stored, three).index == 2


def test_retrieve_prompt_returns_paired_target_and_soft_params():
    corpus = [(mesh_seq(np.full((1, 1, 3), 5.0)), scalar_seq(42.0), "mp_m")]
    anchors = sps_sample(corpus, k=2, hidden_dim=6)
    got = retrieve_prompt(mesh_seq(np.full((1, 1, 3), 4.9)), anchors)
    assert got.index == 1
    assert got.hard_target.values.array[0, 0, 0] == 42.0
    w1, w2 = anchors.soft_w1[got.index], anchors.soft_w2[got.index]
    assert w1.shape == (1, 1, 1)
    assert w2.shape == (1, 1, 6)
    u = soft_anchor_value(w1, w2)
    assert u.shape == (1, 1, 6)
    assert np.allclose(u.array, w1 * w2)


def test_retrieve_prompt_domain_filter():
    corpus = [entry(scalar_seq(1.0), "pe"), entry(scalar_seq(6.0), "mp_p")]
    anchors = sps_sample(corpus, k=3, hidden_dim=4)
    q = scalar_seq(2.0)
    assert retrieve_prompt(q, anchors).hard_input.values.array[0, 0, 0] == 1.0
    only_mp = retrieve_prompt(q, anchors, domain_filter="mp_p")
    assert only_mp.hard_input.values.array[0, 0, 0] == 6.0
    with pytest.raises(StateError):
        retrieve_prompt(q, anchors, domain_filter="jc_m")


def test_retrieve_prompt_domain_filter_matches_filtered_linear_scan():
    rng = np.random.default_rng(41)
    domains = ("pe", "mp_p", "jc_m")
    corpus = [entry(mesh_seq(rng.integers(-1, 2, size=(2, 3, 3)).astype(float)),
                    domains[i % 3]) for i in range(30)]
    anchors = sps_sample(corpus, k=20, hidden_dim=4)
    for _ in range(200):
        q = mesh_seq(rng.integers(-1, 2, size=(2, 3, 3)).astype(float))
        for d in domains:
            members = [i for i, a in enumerate(anchors.anchors) if a.domain == d]
            assert anchors.domain_indices(d).tolist() == members
            sims = [similarity(q, anchors.anchors[i].input) for i in members]
            want = members[max(range(len(members)), key=lambda j: (sims[j], -j))]
            assert retrieve_prompt(q, anchors, domain_filter=d).index == want
    assert anchors.domain_indices("mr").size == 0


def test_stacked_inputs_built_once_and_read_only():
    anchors = sps_sample(random_corpus(6), k=4, hidden_dim=4)
    stacked = anchors.stacked_inputs()
    assert anchors.stacked_inputs() is stacked
    assert not stacked.flags.writeable
    assert np.array_equal(stacked, np.stack([a.input.values.array for a in anchors.anchors]))


def test_retrieve_prompt_shape_mismatch():
    anchors = sps_sample(scalar_corpus([1.0]), k=2, hidden_dim=4)
    wrong = mesh_seq(np.zeros((2, 1, 3)))
    message = r"query shape \(2, 1, 3\) does not match anchor shape \(1, 1, 3\)"
    with pytest.raises(DimensionError, match=message):
        retrieve_prompt(wrong, anchors)
    with pytest.raises(DimensionError, match=message):
        retrieve_prompts([scalar_seq(1.0), wrong], anchors)


def test_random_sample_whole_corpus_in_seed_order():
    corpus = random_corpus(6, seed=21)
    got = random_sample(corpus, k=6, rng_seed=9, hidden_dim=4)
    want = [int(i) for i in np.random.default_rng(9).choice(6, size=6, replace=False)]
    assert [a.source_index for a in got.anchors[1:]] == want
    assert got.anchors[0].source_index == -1


def test_random_sample_deterministic_and_bounded():
    corpus = random_corpus(8, seed=2)
    a = random_sample(corpus, 4, rng_seed=3, hidden_dim=4)
    b = random_sample(corpus, 4, rng_seed=3, hidden_dim=4)
    assert [x.source_index for x in a.anchors] == [x.source_index for x in b.anchors]
    assert np.array_equal(a.soft_w1, b.soft_w1)
    assert np.array_equal(a.soft_w2, b.soft_w2)
    with pytest.raises(DomainError):
        random_sample(corpus, 9, rng_seed=0)


def two_cluster_corpus(seed=0, spread=0.05, per=8):
    rng = np.random.default_rng(seed)
    out = []
    for center in (-4.0, 4.0):
        for _ in range(per):
            out.append(entry(mesh_seq(center + rng.normal(scale=spread, size=(1, 2, 3)))))
    return out


def test_cluster_sample_hits_both_planted_clusters():
    corpus = two_cluster_corpus(seed=6)
    got = cluster_sample(corpus, k=2, rng_seed=1, hidden_dim=4)
    signs = sorted(np.sign(a.input.values.array.mean()) for a in got.anchors[1:])
    assert signs == [-1.0, 1.0]
    again = cluster_sample(corpus, k=2, rng_seed=1, hidden_dim=4)
    assert [a.source_index for a in got.anchors] == [a.source_index for a in again.anchors]


def _naive_assign(flat, centroids):
    return ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def kmeans_reference(corpus, k, seed, assign):
    """The k-means loop of `cluster_sample` with a pluggable assignment;
    returns every iteration's assignment and the picked corpus indices."""
    flat = np.stack([c[0].values.array.reshape(-1) for c in corpus])
    rng = np.random.default_rng(seed)
    centroids = flat[rng.choice(len(corpus), size=k, replace=False)].copy()
    history = []
    for _ in range(prompting.KMEANS_ITERATIONS):
        history.append(assign(flat, centroids))
        for c in range(k):
            members = flat[history[-1] == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    picked, used = [], np.zeros(len(corpus), dtype=bool)
    for c in range(k):
        order = np.argsort(((flat - centroids[c]) ** 2).sum(axis=1), kind="stable")
        picked.append(next(int(i) for i in order if not used[i]))
        used[picked[-1]] = True
    return history, picked


def test_cluster_assignment_by_expansion_matches_difference_tensor():
    for trial in range(30):
        rng = np.random.default_rng(100 + trial)
        n, k = int(rng.integers(4, 40)), int(rng.integers(1, 9))
        k = min(k, n)
        corpus = random_corpus(n, frames=int(rng.integers(1, 4)), joints=int(rng.integers(1, 5)),
                               seed=trial)
        if trial % 3 == 0:  # repeated members: tied distances and equal centroids
            corpus = corpus + corpus[: n // 2]
        naive, naive_picks = kmeans_reference(corpus, k, trial, _naive_assign)
        fast, fast_picks = kmeans_reference(corpus, k, trial, prompting._nearest_centroid)
        for a, b in zip(naive, fast):
            assert np.array_equal(a, b)
        assert fast_picks == naive_picks
        got = cluster_sample(corpus, k, trial, hidden_dim=4)
        assert [a.source_index for a in got.anchors[1:]] == naive_picks


def test_nearest_centroid_rescores_near_ties_by_the_difference_tensor():
    # Rows a rounding step either side of the bisector of two centroids: the
    # GEMM expansion alone disagrees with the difference tensor on about half
    # of them on an AVX-512 host.
    rng = np.random.default_rng(3)
    mid, step, side = rng.normal(size=(3, 50))
    mid, step = 10.0 * mid, 1e-4 * step
    side -= side @ step / (step @ step) * step
    centroids = np.stack([mid + step, mid - step, mid + 3.0 * step])
    flat = (mid + np.outer(np.linspace(-1e-12, 1e-12, 201), step)
            + np.outer(rng.normal(size=201), side))
    assert np.array_equal(prompting._nearest_centroid(flat, centroids),
                          _naive_assign(flat, centroids))


def test_cluster_assignment_holds_on_another_blas_kernel():
    # OpenBLAS reads OPENBLAS_CORETYPE at load, so the other kernel runs in a
    # child process; Prescott's GEMM sums in another order than AVX kernels.
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_cluster_assignment_by_expansion_matches_difference_tensor"],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout[-2000:]


def test_cluster_sample_stops_at_its_fixed_point(monkeypatch):
    # Planted clusters settle within a few iterations; once an assignment
    # repeats, the loop stops with the picks of the full-length loop.
    corpus = anchor_corpus(make_dataset(SynthConfig(clips=12, frames=4, joints=5,
                                                    native_pose_joints=4, clusters=3,
                                                    cluster_spread=0.02, seed=4)),
                           domains=("pe",), seed=0)
    _, reference_picks = kmeans_reference(corpus, 4, 2, prompting._nearest_centroid)
    calls = []
    nearest = prompting._nearest_centroid
    monkeypatch.setattr(prompting, "_nearest_centroid",
                        lambda *a: calls.append(1) or nearest(*a))
    got = cluster_sample(corpus, 4, 2, hidden_dim=4)
    assert len(calls) < prompting.KMEANS_ITERATIONS
    assert [a.source_index for a in got.anchors[1:]] == reference_picks


def test_coverage_values():
    pair = sps_sample(scalar_corpus([10.0]), k=2, hidden_dim=4)  # anchors {0, 10}
    assert coverage([scalar_seq(5.0)], pair) == -5.0
    assert coverage([pair.anchors[1].input, pair.anchors[0].input], pair) == 0.0
    with pytest.raises(StateError):
        coverage([], pair)


def test_empty_query_list_is_a_state_error():
    anchors = sps_sample(scalar_corpus([10.0]), k=2, hidden_dim=4)
    with pytest.raises(StateError, match="at least one query"):
        prompting.query_similarities([], anchors)
    with pytest.raises(StateError, match="at least one query"):
        retrieve_prompts([], anchors)


def clusters_with_outliers(seed=0, per=10):
    """Two tight clusters plus four isolated far members."""
    rng = np.random.default_rng(seed)
    out = []
    for center in (-4.0, 4.0):
        for _ in range(per):
            out.append(entry(mesh_seq(center + rng.normal(scale=0.05, size=(1, 2, 3)))))
    for far in (12.0, -12.0, 20.0, -20.0):
        out.append(entry(mesh_seq(far + rng.normal(scale=0.05, size=(1, 2, 3)))))
    return out


def test_coverage_sps_beats_random_on_planted_clusters():
    # Random sampling almost always misses an isolated member; max-min never does.
    wins = 0
    trials = 10
    for seed in range(trials):
        corpus = clusters_with_outliers(seed=seed)
        queries = [c[0] for c in corpus]
        sps = sps_sample(corpus, k=8, hidden_dim=4)
        rnd = random_sample(corpus, k=8, rng_seed=seed, hidden_dim=4)
        if coverage(queries, sps) >= coverage(queries, rnd):
            wins += 1
    assert wins >= int(0.8 * trials)


def test_fingerprint_tracks_corpus_content():
    c1 = random_corpus(4, seed=0)
    c2 = random_corpus(4, seed=1)
    assert corpus_fingerprint(c1) == corpus_fingerprint(c1)
    assert corpus_fingerprint(c1) != corpus_fingerprint(c2)
    assert sps_sample(c1, 3, hidden_dim=4).fingerprint == corpus_fingerprint(c1)
