"""Loader fuzzing: a mutated dataset, anchor or checkpoint file either loads or
raises FormatError, and nothing else escapes the loader. What loads passes
the validating constructors it skipped: the loaders check values once per
block, and a rebuild through `MotionSequence(...)` or `NdBuffer(...)` must
accept every loaded sequence and tensor and give it back bitwise."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loaded_sequences
from motionctx import fileio
from motionctx.errors import FormatError
from motionctx.motion import MotionSequence
from motionctx.nd import NdBuffer
from motionctx.network import NetConfig, init_params
from motionctx.prompting import sps_sample
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus

FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)
LOADERS = {"dataset": fileio.load_dataset, "anchors": fileio.load_anchors,
           "checkpoint": fileio.load_checkpoint}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Small valid files (F=4, J=5, H=8, L=1) as (manifest, payload, path to overwrite)."""
    root = tmp_path_factory.mktemp("fuzz")
    clips = make_dataset(SynthConfig(clips=3, frames=4, joints=5, native_pose_joints=4,
                                     clusters=2, seed=0))
    anchors = sps_sample(anchor_corpus(clips, domains=("pe", "mp_m"), seed=0), 4, hidden_dim=8)
    params = init_params(NetConfig(frames=4, joints=5, hidden=8, layers=1), 0, anchors=anchors)
    paths = {kind: str(root / f"{kind}.bin") for kind in LOADERS}
    fileio.save_dataset(paths["dataset"], clips)
    fileio.save_anchors(paths["anchors"], anchors, meta={"domains": ["pe", "mp_m"],
                                                         "corpus_seed": 0})
    fileio.save_checkpoint(paths["checkpoint"], params, meta={"steps": 0})
    return {kind: fileio.read_file(path)[:2] + (path,) for kind, path in paths.items()}


def key_paths(node, prefix=()):
    """Every key or index path below the manifest root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)) and value:
            out += key_paths(value, prefix + (key,))
    return out


@pytest.mark.parametrize("kind", list(LOADERS))
@FUZZ
@given(data=st.data())
def test_mutated_file_loads_or_raises_format_error(originals, kind, data):
    manifest, payload, path = originals[kind]
    how = data.draw(st.sampled_from(["manifest", "bytes", "length"]), label="mutation")
    if how == "manifest":
        manifest = copy.deepcopy(manifest)
        *parents, last = data.draw(st.sampled_from(key_paths(manifest)), label="key path")
        node = manifest
        for key in parents:
            node = node[key]
        node[last] = data.draw(json_values, label="value")
    elif how == "bytes":
        raw = bytearray(payload)
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for pos, byte in data.draw(st.lists(edits, min_size=1, max_size=8), label="edits"):
            raw[pos] = byte
        payload = bytes(raw)
    else:
        delta = data.draw(st.integers(-len(payload), 64).filter(bool), label="length change")
        payload = payload[:delta] if delta < 0 else payload + bytes(delta)
    fileio.write_file(path, manifest, payload)
    try:
        loaded = LOADERS[kind](path)
    except FormatError:
        return
    for buf in loaded_buffers(kind, loaded):
        assert_same(NdBuffer(buf.array), buf)
    for seq in loaded_sequences(kind, loaded):
        rebuilt = MotionSequence(NdBuffer(seq.values.array), seq.modality,
                                 seq.native_joint_count, betas=seq.betas)
        assert_same(rebuilt.values, seq.values)
        assert rebuilt.betas.tobytes() == seq.betas.tobytes()


def loaded_buffers(kind, loaded) -> list[NdBuffer]:
    return list(loaded[0].tensors.values()) if kind == "checkpoint" else []


def assert_same(rebuilt: NdBuffer, loaded: NdBuffer) -> None:
    assert rebuilt.shape == loaded.shape and loaded.array.dtype == np.float64
    assert rebuilt.array.tobytes() == loaded.array.tobytes()
