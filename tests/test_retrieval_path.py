"""One retrieval path: `retrieve_prompts`, `retrieve_prompt` and `coverage`
read the one scorer, whose kept set holds each candidate that could be a
query's best; `retrieve_with_margin` scans its candidates whole. The full
scan in tests/helpers.py is the reference their picks, top-two
similarities, margins and coverage must equal bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pick_anchors, query_similarities
from motionctx import prompting
from motionctx.errors import MotionCtxError
from motionctx.motion import Modality, MotionSequence
from motionctx.nd import NdBuffer
from motionctx.prompting import (Anchor, AnchorSet, cluster_sample, corpus_fingerprint, coverage,
                                 random_sample, retrieve_prompt, retrieve_prompts,
                                 retrieve_with_margin, similarity, sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus

SHAPE = (16, 24, 3)  # paper shape: 9,216 bytes per anchor, so 57 anchors exceed one block
PIVOTS = prompting.PIVOTS + 1
PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def seq(values):
    return MotionSequence(NdBuffer(np.asarray(values, dtype=np.float64)), Modality.MESH,
                          SHAPE[1])


def bits(values) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


def manual_set(values, domains):
    """An anchor set of the rest pose then `values`, in order, with the given domains."""
    rest = Anchor(seq(np.zeros(SHAPE)), seq(np.zeros(SHAPE)), "tbody", -1)
    anchors = (rest,) + tuple(Anchor(seq(v), seq(v), d, i)
                              for i, (v, d) in enumerate(zip(values, domains)))
    n = len(anchors)
    return AnchorSet(anchors, n, np.zeros((n,) + SHAPE[:2] + (1,)), np.zeros((n, 1, 1, 1)),
                     "manual", "manual")


def full_scan_top2(queries, anchors, domain_filter):
    """Per query: the full scan's pick, its two largest similarities (one
    when a single anchor is a candidate) and the runner-up margin."""
    sims = query_similarities(queries, anchors)
    picks = pick_anchors(sims, anchors, domain_filter).tolist()
    pool = sims if domain_filter is None else sims[:, anchors.domain_indices(domain_filter)]
    top = np.sort(pool, axis=1)[:, ::-1][:, :2]
    margins = [t[0] - t[1] if len(t) > 1 else float("inf") for t in top]
    return sims, picks, top, margins


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), clusters=st.integers(2, 8),
       spread=st.sampled_from([0.0, 1e-3, 0.05]), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       domain_filter=st.sampled_from([None, "pe", "jc_m", "mp_p"]))
def test_kept_set_and_margin_equal_the_full_scan(seed, clusters, spread, scale, domain_filter):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 120))
    # Two pivots per cluster (the rest pose is the 17th), so a query near a
    # member has its two nearest pivots in its own cluster and the bound
    # clears the other clusters.
    labels = np.concatenate([np.repeat(np.arange(clusters), 2),
                             rng.integers(0, clusters, size=n - 2 * clusters)])
    values = rng.normal(size=(clusters,) + SHAPE)[labels]
    values += spread * rng.normal(size=(n,) + SHAPE)
    dups = rng.integers(PIVOTS, n, size=n // 8)
    values[dups] = values[rng.integers(0, n, size=n // 8)]  # exact duplicates: exact ties
    values *= scale
    # The pivots hold no "jc_m"; "mp_p" is one anchor, a pivot or not.
    domains = ["pe", "mr"] * (PIVOTS // 2) + ["pe"]
    domains += [("pe", "mr", "jc_m")[i % 3] for i in range(n - len(domains))]
    domains[int(rng.integers(0, n))] = "mp_p"
    anchors = manual_set(values, domains)
    stacked = anchors.stacked_inputs()
    assert stacked.nbytes > prompting._SIM_BLOCK_BYTES
    picks = rng.integers(1, len(anchors), size=4)
    near = [seq(stacked[i] + 0.01 * spread * scale * rng.normal(size=SHAPE)) for i in picks]
    queries = near + [anchors.anchors[i].input for i in (1, 2, int(rng.integers(3, PIVOTS)))]
    queries += [anchors.anchors[int(i) + 1].input for i in dups[:2]]  # duplicated members
    queries += [anchors.anchors[0].input]

    sims, want, top, margins = full_scan_top2(queries, anchors, domain_filter)
    kept = prompting._contenders(queries, anchors, domain_filter)
    candidates = (np.arange(len(anchors)) if domain_filter is None
                  else anchors.domain_indices(domain_filter))
    for q, (found, got) in enumerate(kept):
        assert found is not None and np.all(np.diff(found) > 0)
        assert np.isin(found, candidates).all()
        assert bits(got) == bits(sims[q, found])
        assert found[got.argmax()] == want[q]
        assert bits(got.max(keepdims=True)) == bits(top[q][:1])
        if domain_filter is None and q < len(near):
            assert len(found) < len(anchors)  # pruned
        elif domain_filter is not None:  # scored whole: the top two are held
            assert np.array_equal(found, candidates)
            assert bits(np.sort(got)[::-1][:2]) == bits(top[q])
        prompt, margin = retrieve_with_margin(queries[q], anchors, domain_filter)
        assert prompt.index == want[q] and bits([prompt.similarity]) == bits(top[q][:1])
        assert bits([margin]) == bits([margins[q]])
    if domain_filter == "mp_p":
        assert margins == [float("inf")] * len(queries)


def full_scan_coverage(queries, anchors) -> float:
    return float(query_similarities(queries, anchors).max(axis=1).min())


def test_coverage_equals_the_full_scan_on_criterion_10_sets():
    # The sets of acceptance criterion 10, all within one kernel block.
    for seed in range(20):
        clips = make_dataset(SynthConfig(clips=24, frames=4, joints=5, native_pose_joints=4,
                                         clusters=2, outliers=4, cluster_spread=0.02,
                                         amplitude=0.1, seed=seed))
        corpus = anchor_corpus(clips, domains=("pe",), seed=seed)
        queries = [entry[0] for entry in corpus]
        for anchors in (sps_sample(corpus, 8, hidden_dim=4),
                        random_sample(corpus, 8, seed, hidden_dim=4),
                        cluster_sample(corpus, 8, seed, hidden_dim=4)):
            assert bits([coverage(queries, anchors)]) == \
                bits([full_scan_coverage(queries, anchors)])


def test_coverage_equals_the_full_scan_beyond_one_block():
    clips = make_dataset(SynthConfig(clips=12, frames=16, joints=24, native_pose_joints=17,
                                     clusters=4, seed=2))
    corpus = anchor_corpus(clips, seed=2)
    anchors = sps_sample(corpus, 100, hidden_dim=4)
    assert anchors.stacked_inputs().nbytes > prompting._SIM_BLOCK_BYTES
    held_out = anchor_corpus(make_dataset(SynthConfig(clips=4, frames=16, joints=24,
                                                      native_pose_joints=17, clusters=4,
                                                      seed=9)), seed=9)
    for queries in ([x for x, _, _ in held_out], [x for x, _, _ in corpus[::5]]):
        assert bits([coverage(queries, anchors)]) == bits([full_scan_coverage(queries, anchors)])


def typed_input_anchors():
    rng = np.random.default_rng(0)
    corpus = [(s, s, "pe") for s in (MotionSequence(NdBuffer(rng.normal(size=(2, 3, 3))),
                                                    Modality.MESH, 3) for _ in range(4))]
    return corpus[0][0], sps_sample(corpus, 3, hidden_dim=2)


@pytest.mark.parametrize("call, named", [
    (lambda q, a: retrieve_prompts(["x"], a), "'x'"),
    (lambda q, a: retrieve_prompts([np.zeros((2, 3, 3))], a), "array("),
    (lambda q, a: retrieve_prompts([q], None), "None"),
    (lambda q, a: retrieve_prompts([q], a, ["pe"]), "['pe']"),
    (lambda q, a: retrieve_prompt(None, a), "None"),
    (lambda q, a: coverage(["x"], a), "'x'"),
    (lambda q, a: similarity(q, "x"), "'x'"),
    (lambda q, a: similarity(None, q), "None"),
    (lambda q, a: corpus_fingerprint(None), "None"),
    (lambda q, a: corpus_fingerprint([1]), "triple, got 1"),
    (lambda q, a: corpus_fingerprint([(q, q)]), "triple, got (MotionSequenc"),
    (lambda q, a: sps_sample([1, 2], 3), "triple, got 1"),
    (lambda q, a: random_sample([(q, q, 0)], 1, 0), "triple, got (MotionSequenc"),
    (lambda q, a: cluster_sample("abc", 1, 0), "a corpus must be a list of entries, got 'abc'"),
], ids=["str-query", "array-query", "no-anchor-set", "list-filter", "none-query",
        "coverage-str-query", "similarity-str", "similarity-none", "fingerprint-none",
        "fingerprint-int-entry", "fingerprint-pair-entry", "sps-int-entries",
        "random-int-domain", "cluster-str-corpus"])
def test_typed_junk_at_the_retrieval_entry_is_a_package_error(call, named):
    query, anchors = typed_input_anchors()
    with pytest.raises(MotionCtxError) as caught:
        call(query, anchors)
    assert named in str(caught.value)
