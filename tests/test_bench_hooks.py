"""The benchmark's traced run wraps library names in place; they must exist,
and the library must call them there."""

import inspect
import sys
from pathlib import Path

import numpy as np

from motionctx import fileio, nd, network, prompting, synth, training
from motionctx.motion import Modality, MotionSequence
from motionctx.nd import NdBuffer
from motionctx.network import NetConfig
from motionctx.synth import SynthConfig
from motionctx.training import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


OWNERS = (fileio, nd.Tape, network, prompting, prompting.AnchorSet, synth, training,
          training.AdamWState)


def test_tracer_patches_existing_names_and_restores_them():
    owners = OWNERS
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


def _installed_label(wrapper) -> tuple[str, bool]:
    """The span label a tracer wrapper opens, and whether it is only the
    prefix of labels the wrapper names per call; a wrapper around a wrapper
    is read through to the inner one."""
    cells = inspect.getclosurevars(wrapper).nonlocals
    while "name" not in cells:
        cells = inspect.getclosurevars(cells["fn"]).nonlocals
    return cells["name"], cells["name_of"] is not None


def test_a_toy_pipeline_opens_every_span_the_tracer_installs(tmp_path):
    # A per-layer metric reads zero when the library stops calling a wrapped
    # name (say training.soft_anchor_value or AdamWState.update), so each
    # label must be opened by the calls the bench makes.
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer("t")
    with tracer.patched():
        installed = {_installed_label(value) for owner, old in zip(OWNERS, before)
                     for name, value in vars(owner).items() if old.get(name) is not value}
        clips = synth.make_dataset(SynthConfig(clips=4, frames=4, joints=5, native_pose_joints=4,
                                               clusters=2, seed=0))
        corpus = training.anchor_corpus(clips, domains=("pe", "mp_m"), seed=0)
        anchors = prompting.sps_sample(corpus, 4, hidden_dim=8)
        prompting.cluster_sample(corpus, 3, 0, hidden_dim=8)
        params = network.init_params(NetConfig(frames=4, joints=5, hidden=8, layers=1), 0,
                                     anchors=anchors)
        log = training.train(clips, anchors, params, TrainConfig(
            steps_per_epoch=2, batch_size=2, domains=("pe", "mp_m")))
        table = training.evaluate(clips, anchors, params, domains=("pe", "mp_m"))
        prompting.retrieve_prompt(corpus[0][0], anchors)
        for kind, value in (("dataset", clips), ("anchors", anchors), ("checkpoint", params)):
            path = str(tmp_path / f"{kind}.bin")
            getattr(fileio, f"save_{kind}")(path, value)
            getattr(fileio, f"load_{kind}")(path)
    assert len(log) == 2 and set(table) == {"pe", "mp_m"}
    assert {("training.AdamWState.update", False), ("prompting.soft_anchor_value", False),
            ("network.aggregate_level", True)} <= installed
    opened = {span[0] for span in tracer.spans}
    for label, per_call in installed:
        if per_call:
            assert any(o.startswith(label + ".") for o in opened), label
        else:
            assert label in opened, label
    assert {f"network.aggregate_level.{level}.{view}" for level in spans.LEVELS
            for view in spans.VIEWS} <= opened
