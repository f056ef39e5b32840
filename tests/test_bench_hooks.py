"""The benchmark's traced run wraps library names in place; they must exist."""

import sys
from pathlib import Path

import numpy as np

from motionctx import fileio, nd, network, prompting, synth, training
from motionctx.motion import Modality, MotionSequence
from motionctx.nd import NdBuffer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_tracer_patches_existing_names_and_restores_them():
    owners = (fileio, nd.Tape, network, prompting, prompting.AnchorSet, synth, training,
              training.AdamWState)
    before = [dict(vars(owner)) for owner in owners]
    with spans.Tracer("t").patched():
        during = [dict(vars(owner)) for owner in owners]
    changed = {(owner, name) for owner, old, new in zip(owners, before, during)
               for name in old if new[name] is not old[name]}
    assert (training, "derive_task") in changed and (nd.Tape, "grad") in changed
    for owner, old in zip(owners, before):
        after = vars(owner)
        assert all(after[name] is value for name, value in old.items()), owner.__name__


def test_tracer_counts_one_similarity_call_per_sps_pick():
    # spans.py derives sps_sample.sim_evals and useful_share from the rows of
    # each _sims_to_one call: one call over the whole corpus, then one per pick
    # over the members not yet taken.
    rng = np.random.default_rng(0)
    corpus = []
    for _ in range(12):
        seq = MotionSequence(NdBuffer(rng.normal(size=(2, 3, 3))), Modality.MESH, 3)
        corpus.append((seq, seq, "mp_m"))
    tracer = spans.Tracer("t")
    with tracer.patched():
        prompting.sps_sample(corpus, 12, hidden_dim=4)
    assert tracer.sps_rows == list(range(12, 0, -1))


def test_tracer_counts_one_retrieval_span_and_its_stacked_bytes():
    # The bench's retrieval counters read the retrieve_prompt span and the
    # stack bytes fetched inside it; retrieval adds no sps rows.
    rng = np.random.default_rng(1)
    corpus = []
    for _ in range(5):
        seq = MotionSequence(NdBuffer(rng.normal(size=(2, 3, 3))), Modality.MESH, 3)
        corpus.append((seq, seq, "mp_m"))
    anchors = prompting.sps_sample(corpus, 4, hidden_dim=2)
    tracer = spans.Tracer("t")
    with tracer.patched():
        prompting.retrieve_prompt(corpus[0][0], anchors)
    assert [s[0] for s in tracer.spans].count("prompting.retrieve_prompt") == 1
    assert tracer.counters["prompting.retrieve_prompt.stacked_bytes"] == \
        anchors.stacked_inputs().nbytes
    assert tracer.sps_rows == []
