"""Trusted derivation and the multi-query similarity kernel against the
validating, one-query paths they replace."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import make_clip, pick_anchors, query_similarities
from motionctx import prompting
from motionctx.motion import (DOMAIN_ORDER, DOMAINS, MASK_RATIO, ROOT_JOINT, Modality,
                              MotionSequence, derive_task, make_joint_mask, make_time_mask)
from motionctx.nd import NdBuffer
from motionctx.network import NetConfig, init_params
from motionctx.prompting import (_sims_to_many, _sims_to_one, corpus_fingerprint, random_sample,
                                 retrieve_prompt, retrieve_prompts, sps_sample)
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import TrainConfig, anchor_corpus, derive_seed, evaluate, train


def reference_sims_to_one(stacked, one):
    """The one-query kernel the multi-query one generalizes, row blocks and all."""
    n = stacked.shape[0]
    rows = max(1, min(n, prompting._SIM_BLOCK_BYTES // max(1, one.nbytes)))
    sq = np.empty((rows,) + one.shape, dtype=np.result_type(stacked, one))
    dist = np.empty(sq.shape[:-1], dtype=sq.dtype)
    sims = np.empty(n, dtype=sq.dtype)
    for start in range(0, n, rows):
        s, d = sq[:n - start], dist[:n - start]
        np.subtract(stacked[start:start + rows], one, out=s)
        np.multiply(s, s, out=s)
        np.add(s[..., 0], s[..., 1], out=d)
        d += s[..., 2]
        np.sqrt(d, out=d)
        sims[start:start + len(d)] = 0.0 - d.mean(axis=(1, 2))
    return sims


def assert_rows_match(stacked, queries):
    got = _sims_to_many(stacked, queries)
    assert got.shape == (len(queries), len(stacked))
    for row, one in zip(got, queries):
        want = reference_sims_to_one(stacked, one)
        assert np.array_equal(row, want) and np.array_equal(np.signbit(row), np.signbit(want))
    return got


def pairs_per_block(frames, joints):
    return prompting._SIM_BLOCK_BYTES // (frames * joints * 3 * 8)


def test_multi_query_kernel_rows_are_the_one_query_kernel_at_block_edges():
    rng = np.random.default_rng(21)
    pairs = pairs_per_block(16, 24)  # one paper-size query: anchor blocks of `pairs` rows
    for n_a in (pairs - 1, pairs, pairs + 1, 2 * pairs + 3):
        stacked = rng.normal(size=(n_a, 16, 24, 3))
        assert_rows_match(stacked, rng.normal(size=(3, 16, 24, 3)))
    pairs = pairs_per_block(4, 5)
    n_a = 100  # query blocks of pairs // 100 queries against all anchors
    q_rows = pairs // n_a
    stacked = rng.normal(size=(n_a, 4, 5, 3))
    for n_q in (1, q_rows - 1, q_rows, q_rows + 1, 3 * q_rows + 2):
        assert_rows_match(stacked, rng.normal(size=(n_q, 4, 5, 3)))
    for n_a in (pairs - 1, pairs, pairs + 1):
        assert_rows_match(rng.normal(size=(n_a, 4, 5, 3)), rng.normal(size=(2, 4, 5, 3)))
    pairs = pairs_per_block(1, 1)  # F = J = 1
    for n_a, n_q in ((1, 1), (7, pairs // 7 + 1), (pairs + 1, 2)):
        assert_rows_match(rng.normal(size=(n_a, 1, 1, 3)), rng.normal(size=(n_q, 1, 1, 3)))


def test_multi_query_kernel_over_magnitudes_and_the_q1_case():
    rng = np.random.default_rng(22)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1, 1, 1))
    stacked = rng.normal(size=(300, 4, 5, 3)) * scale
    queries = np.stack([np.zeros((4, 5, 3)), 1e-3 * rng.normal(size=(4, 5, 3)),
                        1e3 * rng.normal(size=(4, 5, 3)), stacked[7]])
    got = assert_rows_match(stacked, queries)
    assert got[3, 7] == 0.0 and not np.signbit(got[3, 7])
    for one in queries:
        assert np.array_equal(_sims_to_one(stacked, one), reference_sims_to_one(stacked, one))


def test_multi_query_kernel_leaves_a_read_only_stack_unwritten():
    seqs = [MotionSequence(NdBuffer(v), Modality.MESH, 4)
            for v in np.random.default_rng(5).normal(size=(20, 3, 4, 3))]
    anchors = sps_sample([(s, s, "mp_m") for s in seqs], k=12, hidden_dim=4)
    stacked = anchors.stacked_inputs()
    before = stacked.copy()
    got = assert_rows_match(stacked, stacked[::-1])
    assert not stacked.flags.writeable and np.array_equal(stacked, before)
    assert np.all(np.diag(got[::-1]) == 0.0)


def test_multi_query_kernel_temporaries_stay_within_a_block():
    rng = np.random.default_rng(23)
    stacked = rng.normal(size=(800, 16, 24, 3))
    queries = rng.normal(size=(32, 16, 24, 3))
    tracemalloc.start()
    try:
        sims = _sims_to_many(stacked, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sims.shape == (32, 800)
    assert peak < 2 * prompting._SIM_BLOCK_BYTES + sims.nbytes, peak


def tie_forcing_anchors():
    """Every anchor input appears twice and queries sit halfway between
    values, so most similarities tie."""
    values = [1.0, 3.0, 1.0, 3.0, 5.0, 5.0, 7.0]
    domains = ["mp_p", "mp_m", "mp_m", "mp_p", "mp_p", "mp_m", "mp_p"]
    corpus = []
    for v, d in zip(values, domains):
        seq = MotionSequence(NdBuffer([[[v, 0.0, 0.0]]]), Modality.MESH, 1)
        corpus.append((seq, seq, d))
    anchors = random_sample(corpus, len(corpus), rng_seed=3, hidden_dim=2)
    queries = [MotionSequence(NdBuffer([[[q, 0.0, 0.0]]]), Modality.MESH, 1)
               for q in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0)]
    return anchors, queries


def test_batched_retrieval_equals_per_query_retrieval_on_ties():
    anchors, queries = tie_forcing_anchors()
    batched = retrieve_prompts(queries, anchors)
    for q, got in zip(queries, batched):
        want = retrieve_prompt(q, anchors)
        assert (got.index, got.similarity) == (want.index, want.similarity)
        assert got.hard_input is want.hard_input and got.hard_target is want.hard_target
    sims = query_similarities(queries, anchors)
    for domain in ("mp_p", "mp_m", "tbody"):
        picks = pick_anchors(sims, anchors, domain)
        batched = retrieve_prompts(queries, anchors, domain_filter=domain)
        for q, row, pick, got in zip(queries, sims, picks, batched):
            want = retrieve_prompt(q, anchors, domain_filter=domain)
            assert (int(pick), row[pick]) == (want.index, want.similarity)
            assert (got.index, got.similarity) == (want.index, want.similarity)
            assert anchors.anchors[pick].domain == domain


def test_batched_retrieval_equals_per_query_retrieval_on_a_synth_corpus():
    clips = make_dataset(SynthConfig(clips=12, outliers=2, seed=3))
    corpus = anchor_corpus(clips, seed=3)
    anchors = sps_sample(corpus, 40, hidden_dim=4)
    queries = [entry[0] for entry in corpus[::7]] + [anchors.anchors[5].input]
    batched = retrieve_prompts(queries, anchors)
    for q, got in zip(queries, batched):
        want = retrieve_prompt(q, anchors)
        assert (got.index, got.similarity) == (want.index, want.similarity)
    assert batched[-1].similarity == 0.0


# -- trusted derivation -------------------------------------------------------

def _validated(seq, values):
    return MotionSequence(NdBuffer(values), seq.modality, seq.native_joint_count, betas=seq.betas)


def reference_derive(clip, domain, seed):
    """derive_task built through the validating constructor, with a fresh
    generator per call, as it was before slices were trusted."""
    spec = DOMAINS[domain]
    half = clip.window
    rng = np.random.default_rng(seed)

    def window(seq, future):
        lo, hi = (half, 2 * half) if future else (0, half)
        return _validated(seq, seq.values.array[lo:hi])

    query_input = window(clip.sequence(spec.input_modality), False)
    query_target = window(clip.sequence(spec.target_modality), spec.target_future)
    time_mask = joint_mask = None
    if spec.mask_kind == "time":
        time_mask = make_time_mask(half, MASK_RATIO, rng)
        query_input = _validated(query_input, query_input.values.array * time_mask[:, None, None])
    elif spec.mask_kind == "joint":
        joint_mask = make_joint_mask(clip.joints, ROOT_JOINT, MASK_RATIO, rng,
                                     native_joint_count=query_input.native_joint_count)
        query_input = _validated(query_input, query_input.values.array * joint_mask[None, :, None])
    return query_input, query_target, time_mask, joint_mask


def _same_sequence_bytes(got, want):
    return (got.modality is want.modality and got.native_joint_count == want.native_joint_count
            and got.values.shape == want.values.shape
            and got.values.array.tobytes() == want.values.array.tobytes()
            and got.betas.tobytes() == want.betas.tobytes())


def _same_mask(got, want):
    return (got is None and want is None) or got.tobytes() == want.tobytes()


@pytest.mark.parametrize("domain", DOMAIN_ORDER)
def test_trusted_derivation_equals_the_validating_reference(domain):
    clips = [make_clip(half=5, joints=7, native_pose=4, seed=1),
             make_clip(half=4, joints=6, native_pose=6, seed=2)]
    clips += make_dataset(SynthConfig(clips=2, seed=4))
    for ci, clip in enumerate(clips):
        for seed in (0, 1, 2 ** 40 + 3, derive_seed(7, ci, domain)):
            sample = derive_task(clip, domain, seed)
            query_input, query_target, time_mask, joint_mask = reference_derive(clip, domain, seed)
            assert _same_sequence_bytes(sample.query_input, query_input)
            assert _same_sequence_bytes(sample.query_target, query_target)
            assert _same_mask(sample.time_mask, time_mask)
            assert _same_mask(sample.joint_mask, joint_mask)
            for seq in (sample.query_input, sample.query_target):
                assert not seq.values.array.flags.writeable
                _validated(seq, seq.values.array)  # every invariant still holds


def test_trusted_window_is_a_view_and_a_generator_is_drawn_only_by_masked_domains():
    clip = make_clip(half=4, joints=6, native_pose=5, seed=3)
    sample = derive_task(clip, "mp_p", 0)
    assert np.shares_memory(sample.query_input.values.array, clip.pose3d.values.array)
    for domain in DOMAIN_ORDER:
        rng = np.random.default_rng(11)
        derive_task(clip, domain, rng)
        drew = rng.bit_generator.state != np.random.default_rng(11).bit_generator.state
        assert drew == (DOMAINS[domain].mask_kind is not None), domain


# -- outputs pinned from the one-query, validating implementation ------------

PINNED = {
    "fingerprint": "aa88fd37de2cdc6d92b90cdd4cf0b50a2ca99df575cdf9d91ac7e1c52e5ca22e",
    "picks": [-1, 317, 198, 318, 319, 199, 197, 38, 278, 37, 357, 238, 39, 358, 359, 277,
              239, 279, 237, 397, 398, 399, 306, 311],
    "trace": "869d09760381b4a4e9843688377867ade45f76c526a8f62d2f16d45a59744175",
    "log": "d32688927e97e0241c539e7b733d90c3d8d19be16aa11ba8f24ad33f9df5fb34",
    "table": {"pe": "0x1.38a142d9dc25ap+0", "fpe": "0x1.3849bee7764abp+0",
              "mr": "0x1.545a273d7017dp+0", "fmr": "0x1.5357f6dc8a7dap+0",
              "mp_p": "0x1.54d084449c97bp+0", "mib_p": "0x1.4015934d06d55p+0",
              "jc_p": "0x1.837c81cbcd272p+0", "mp_m": "0x1.144f75c0bf748p+1",
              "mib_m": "0x1.0ff70b969d006p+1", "jc_m": "0x1.0f562e8ba1171p+1"},
}


def test_corpus_anchors_training_and_eval_are_pinned_bitwise():
    clips = make_dataset(SynthConfig(clips=40, outliers=3, seed=5))
    corpus = anchor_corpus(clips, seed=9)
    anchors = sps_sample(corpus, 24, hidden_dim=8)
    assert corpus_fingerprint(corpus) == PINNED["fingerprint"]
    assert [a.source_index for a in anchors.anchors] == PINNED["picks"]
    trace = "".join(float(t).hex() for t in anchors.selection_trace)
    assert hashlib.sha256(trace.encode()).hexdigest() == PINNED["trace"]
    params = init_params(NetConfig(frames=8, joints=6, hidden=8, layers=1), 2, anchors=anchors)
    log = train(clips, anchors, params, TrainConfig(batch_size=4, steps_per_epoch=30, seed=4))
    h = hashlib.sha256()
    for record in log:
        for key in ("loss", "position", "velocity", "shape"):
            h.update(float(record[key]).hex().encode())
    assert h.hexdigest() == PINNED["log"]
    table = evaluate(clips, anchors, params, seed=3)  # 40 clips: a full and a partial chunk
    assert {d: float(v).hex() for d, v in table.items()} == PINNED["table"]
