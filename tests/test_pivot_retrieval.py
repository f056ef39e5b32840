"""Retrieval through the pivot bound: unfiltered retrieval over a stack
larger than one kernel block scores only where the bound cannot rule an
anchor out, a domain filter scores its members whole, and every pick and
similarity is bitwise that of scoring every anchor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pick_anchors, query_similarities
from motionctx import fileio, prompting
from motionctx.errors import StateError
from motionctx.motion import Modality, MotionSequence
from motionctx.nd import NdBuffer
from motionctx.prompting import (Anchor, AnchorSet, cluster_sample, random_sample,
                                 retrieve_prompt, retrieve_prompts, retrieve_with_margin,
                                 sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus

SHAPE = (16, 24, 3)  # paper shape: 9,216 bytes per anchor, so 57 anchors exceed one block
PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None)


def seq(values):
    return MotionSequence(NdBuffer(np.asarray(values, dtype=np.float64)), Modality.MESH,
                          SHAPE[1])


def clustered_values(rng, n, clusters=6, spread=0.05, scale=1.0, dups=10):
    """n members around a few centers; `dups` of them copy another member,
    so anchors holding both tie exactly with every query."""
    centers = rng.normal(size=(clusters,) + SHAPE)
    values = centers[rng.integers(0, clusters, size=n)] + spread * rng.normal(size=(n,) + SHAPE)
    values[rng.integers(0, n, size=dups)] = values[rng.integers(0, n, size=dups)]
    return scale * values


def corpus_of(values, domains=("pe", "mr", "jc_m")):
    return [(seq(v), seq(v), domains[i % len(domains)]) for i, v in enumerate(values)]


def queries_for(anchors, rng, count=12):
    """Near-anchor points, anchor inputs (pivots and duplicated members among
    them), the rest pose and far points."""
    stacked = anchors.stacked_inputs()
    picks = rng.integers(0, len(stacked), size=count)
    out = [seq(stacked[i] + 0.02 * rng.normal(size=SHAPE)) for i in picks[:count // 2]]
    out += [anchors.anchors[i].input for i in picks[count // 2:]]
    out += [anchors.anchors[3].input, anchors.anchors[0].input, seq(40.0 * rng.normal(size=SHAPE))]
    _, first, copies = np.unique(stacked.reshape(len(stacked), -1), axis=0, return_index=True,
                                 return_counts=True)
    return out + [anchors.anchors[i].input for i in first[copies > 1][:2]]


def bits(values) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


def assert_full_scan(queries, anchors, domain_filter=None):
    """retrieve_prompts (Q > 1) and retrieve_prompt (Q = 1) equal the full
    scan's pick and similarity bitwise."""
    assert anchors.stacked_inputs().nbytes > prompting._SIM_BLOCK_BYTES
    sims = query_similarities(queries, anchors)
    want = pick_anchors(sims, anchors, domain_filter).tolist()
    want_sims = bits(sims[q, i] for q, i in enumerate(want))
    for got in (retrieve_prompts(queries, anchors, domain_filter),
                [retrieve_prompt(x, anchors, domain_filter) for x in queries]):
        assert [g.index for g in got] == want
        assert bits(g.similarity for g in got) == want_sims
        for g in got:
            assert g.hard_input is anchors.anchors[g.index].input
    return sims


def has_tie(sims, anchors, domain_filter=None):
    pool = sims if domain_filter is None else sims[:, anchors.domain_indices(domain_filter)]
    return bool(((pool == pool.max(axis=1, keepdims=True)).sum(axis=1) > 1).any())


@pytest.mark.parametrize("sampler", ["sps", "random", "cluster"])
def test_pruned_retrieval_equals_full_scan_per_sampler(sampler):
    rng = np.random.default_rng(7)
    corpus = corpus_of(clustered_values(rng, 110))
    anchors = {"sps": lambda: sps_sample(corpus, 111, hidden_dim=4),
               "random": lambda: random_sample(corpus, 110, 3, hidden_dim=4),
               "cluster": lambda: cluster_sample(corpus, 70, 3, hidden_dim=4)}[sampler]()
    queries = queries_for(anchors, rng)
    for domain_filter in (None, "pe", "mr"):
        assert_full_scan(queries, anchors, domain_filter)
    if sampler != "cluster":  # every member is an anchor, duplicates included
        assert has_tie(query_similarities(queries, anchors), anchors)


def test_pruned_retrieval_on_a_synth_corpus_at_paper_shape():
    clips = make_dataset(SynthConfig(clips=12, frames=16, joints=24, native_pose_joints=17,
                                     clusters=4, seed=2))
    corpus = anchor_corpus(clips, seed=2)
    anchors = sps_sample(corpus, 100, hidden_dim=4)
    held_out = anchor_corpus(make_dataset(SynthConfig(clips=4, frames=16, joints=24,
                                                      native_pose_joints=17, clusters=4,
                                                      seed=9)), seed=9)
    assert_full_scan([x for x, _, _ in held_out], anchors)


def test_pruned_retrieval_on_a_loaded_set(tmp_path):
    rng = np.random.default_rng(11)
    anchors = sps_sample(corpus_of(clustered_values(rng, 90)), 91, hidden_dim=4)
    fileio.save_anchors(str(tmp_path / "a.bin"), anchors)
    loaded, _ = fileio.load_anchors(str(tmp_path / "a.bin"))
    queries = queries_for(loaded, rng)
    sims = assert_full_scan(queries, loaded)
    assert has_tie(sims, loaded)
    assert_full_scan(queries, loaded, "jc_m")


def test_domain_without_a_pivot_scores_every_member(monkeypatch):
    # The "mr" members copy "pe" members, so max-min sampling takes each
    # after every "pe" member: the set's first PIVOTS + 1 anchors hold no "mr".
    rng = np.random.default_rng(5)
    pe = clustered_values(rng, 70, dups=0)
    corpus = corpus_of(pe, ("pe",)) + corpus_of(pe[rng.integers(0, 10, size=20)], ("mr",))
    anchors = sps_sample(corpus, len(corpus) + 1, hidden_dim=4)
    members = anchors.domain_indices("mr")
    assert members.size == 20 and members.min() > prompting.PIVOTS
    rows = []
    many = prompting._sims_to_many

    def spy(stacked, queries, selected=None):
        rows.append((len(queries), None if selected is None else selected.tolist()))
        return many(stacked, queries, selected)

    queries = queries_for(anchors, rng)
    sims = query_similarities(queries, anchors)
    want = pick_anchors(sims, anchors, "mr").tolist()
    monkeypatch.setattr(prompting, "_sims_to_many", spy)
    got = [retrieve_prompt(x, anchors, domain_filter="mr") for x in queries]
    assert [g.index for g in got] == want
    assert bits(g.similarity for g in got) == bits(sims[q, i] for q, i in enumerate(want))
    assert rows == [(1, members.tolist())] * len(queries)  # one gathered call of every member
    assert has_tie(sims, anchors, "mr")


def test_only_unfiltered_retrieval_builds_the_pivot_table(monkeypatch):
    rng = np.random.default_rng(6)
    anchors = sps_sample(corpus_of(clustered_values(rng, 90)), 91, hidden_dim=4)
    assert anchors.stacked_inputs().nbytes > prompting._SIM_BLOCK_BYTES
    built = []
    table = prompting.AnchorSet.pivot_distances
    monkeypatch.setattr(prompting.AnchorSet, "pivot_distances",
                        lambda self: built.append(self) or table(self))
    queries = queries_for(anchors, rng)
    sims = query_similarities(queries, anchors)
    for domain_filter in ("pe", "mr", "jc_m"):
        want = pick_anchors(sims, anchors, domain_filter).tolist()
        assert [g.index for g in retrieve_prompts(queries, anchors, domain_filter)] == want
        assert [retrieve_with_margin(x, anchors, domain_filter)[0].index
                for x in queries] == want
    want = pick_anchors(sims, anchors, None).tolist()
    assert [retrieve_with_margin(x, anchors)[0].index for x in queries] == want
    assert built == [] and "_pivot_distances" not in vars(anchors)
    assert [g.index for g in retrieve_prompts(queries, anchors)] == want
    assert len(built) == 1 and built[0] is anchors


def test_sims_to_many_calls_within_one_block_and_beyond(monkeypatch):
    calls = []
    many = prompting._sims_to_many

    def spy(stacked, queries, selected=None):
        calls.append((len(stacked), len(queries), selected))
        return many(stacked, queries, selected)

    toy = sps_sample(anchor_corpus(make_dataset(SynthConfig(clips=16)), seed=1), 64,
                     hidden_dim=4)
    assert toy.stacked_inputs().nbytes <= prompting._SIM_BLOCK_BYTES
    rng = np.random.default_rng(3)
    big = sps_sample(corpus_of(clustered_values(rng, 200, clusters=4, dups=0)), 201,
                     hidden_dim=4)
    toy_queries = [toy.anchors[i].input for i in (1, 5, 9)]
    big_queries = [seq(big.stacked_inputs()[i] + 0.01 * rng.normal(size=SHAPE))
                   for i in range(1, 200, 20)]
    want = [pick_anchors(query_similarities(q, s), s, None).tolist()
            for q, s in ((toy_queries, toy), (big_queries, big))]
    big.pivot_distances()  # built outside the spy
    monkeypatch.setattr(prompting, "_sims_to_many", spy)
    got_toy = retrieve_prompts(toy_queries, toy)
    toy_calls = list(calls)
    calls.clear()
    got_big = retrieve_prompts(big_queries, big)
    assert [g.index for g in got_toy] == want[0] and [g.index for g in got_big] == want[1]
    assert toy_calls == [(len(toy), 3, None)]  # one (Q, A) call, as for a full scan
    pivots = prompting.PIVOTS + 1
    assert calls[0] == (pivots, len(big_queries), None)
    scored = [len(selected) for _, q, selected in calls[1:]]
    assert len(scored) == len(big_queries) and all(q == 1 for _, q, _ in calls[1:])
    assert all(pivots + n < len(big) for n in scored)
    assert sum(scored) < len(big_queries) * len(big) / 2


def test_pivot_distances_built_once_and_read_only():
    rng = np.random.default_rng(2)
    anchors = random_sample(corpus_of(clustered_values(rng, 60)), 59, 1, hidden_dim=4)
    table = anchors.pivot_distances()
    stacked = anchors.stacked_inputs()
    assert anchors.pivot_distances() is table and not table.flags.writeable
    assert table.shape == (prompting.PIVOTS + 1, len(anchors))
    assert table.tobytes() == (-prompting._sims_to_many(stacked, stacked[:len(table)])).tobytes()
    small = random_sample(corpus_of(clustered_values(rng, 5)), 3, 1, hidden_dim=4)
    assert small.pivot_distances().shape == (4, 4)


def test_a_missing_domain_is_a_state_error_on_the_pruned_path():
    rng = np.random.default_rng(4)
    anchors = sps_sample(corpus_of(clustered_values(rng, 70)), 71, hidden_dim=4)
    with pytest.raises(StateError, match="no anchors of domain 'mp_p' in the set"):
        retrieve_prompt(anchors.anchors[1].input, anchors, domain_filter="mp_p")


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), clusters=st.integers(1, 8),
       spread=st.sampled_from([0.0, 1e-3, 0.05, 1.0]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       sampler=st.sampled_from(["sps", "random"]), queries=st.integers(1, 6),
       domain_filter=st.sampled_from([None, "pe", "mr"]))
def test_pruned_retrieval_property(seed, clusters, spread, scale, sampler, queries,
                                   domain_filter):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 100))
    corpus = corpus_of(clustered_values(rng, n, clusters, spread, scale, dups=n // 8))
    k = int(rng.integers(58, n + 1))
    anchors = (sps_sample(corpus, k, hidden_dim=2) if sampler == "sps"
               else random_sample(corpus, k, seed, hidden_dim=2))
    stacked = anchors.stacked_inputs()
    picks = rng.integers(0, len(stacked), size=queries)
    near = [seq(stacked[i] + spread * scale * rng.normal(size=SHAPE)) for i in picks]
    chosen = [anchors.anchors[i].input for i in picks]
    qs = [near, chosen][seed % 2]
    if domain_filter is not None and not anchors.domain_indices(domain_filter).size:
        with pytest.raises(StateError):
            retrieve_prompts(qs, anchors, domain_filter)
        return
    assert_full_scan(qs, anchors, domain_filter)


def collinear_set(positions):
    """Anchors c * u for one direction u, the rest pose (c = 0) first: every
    triangle among them is flat, so the pivot bound meets the distance."""
    u = np.random.default_rng(0).normal(size=SHAPE)
    rest = Anchor(seq(np.zeros(SHAPE)), seq(np.zeros(SHAPE)), "tbody", -1)
    anchors = (rest,) + tuple(Anchor(seq(c * u), seq(c * u), "pe", i)
                              for i, c in enumerate(positions))
    n = len(anchors)
    return AnchorSet(anchors, n, np.zeros((n,) + SHAPE[:2] + (1,)), np.zeros((n, 1, 1, 1)),
                     "collinear", "manual"), u


def test_pruned_retrieval_on_a_tight_triangle():
    # Pivots at 2, 3, ..., 17; a non-pivot anchor a hair below each of a few
    # pivots, then far anchors to pass one block. A query at 1 sees the anchor
    # at 2 - eps only just nearer than the pivot at 2, and its bound from
    # that pivot is exact up to rounding: only SLACK keeps it at or below
    # the anchor's distance. SLACK = 0 fails this test.
    pivots = [float(c) for c in range(2, 2 + prompting.PIVOTS)]
    for eps in (1e-10, 1e-13, 4.5e-16, 0.0):
        near = [p - eps * p for p in pivots[:4]] + [p + eps * p for p in pivots[4:8]]
        anchors, u = collinear_set(pivots + near + [float(c) for c in range(20, 80)])
        queries = [seq(c * u) for c in (1.0, 1.5, 2.5, 3.0, 5.0 + 1e-9, 5.5, 7.25, 100.0)]
        assert_full_scan(queries, anchors)
