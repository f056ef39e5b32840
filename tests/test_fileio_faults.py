"""Loader faults and loaded values.

Each single-fault file raises the exact FormatError message of the
per-sequence and per-tensor constructor checks, the first fault in file
order wins, and the CLI exits 2 with that message. Loaded values are
pinned by hash, and every loaded array is float64, C-contiguous and
read-only.
"""

import hashlib
import math
import os
import types

import numpy as np
import pytest

from helpers import loaded_sequences
from motionctx import fileio
from motionctx.cli import main
from motionctx.errors import FormatError
from motionctx.motion import (MotionClip, pad_virtual_joints, reorganize_mesh_params,
                              unify_pose2d, unify_pose3d)
from motionctx.network import NetConfig, init_params
from motionctx.prompting import sps_sample
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus

F, J, NATIVE, H = 4, 5, 4, 8  # half window, joints, native joints of every modality, hidden
NAN = float("nan")
DOMAINS = ["pe", "mp_m"]
MESH, POSE = 1, 4  # anchor entries with mesh -> mesh (mp_m) and pose2d -> pose3d (pe)


def _clip(i: int) -> MotionClip:
    """A clip whose three sequences each have one virtual joint (joint 4)."""
    rng = np.random.default_rng(i)
    p3 = rng.normal(size=(2 * F, NATIVE, 3))
    mesh = reorganize_mesh_params(rng.normal(size=(2 * F, 3 * NATIVE)), rng.normal(size=10))
    seqs = (unify_pose2d(p3[..., :2]), unify_pose3d(p3), mesh)
    return MotionClip(*(pad_virtual_joints(s, J) for s in seqs), clip_id=f"c{i}", source="t")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid dataset, anchor and checkpoint files that pair with each other."""
    root = tmp_path_factory.mktemp("faults")
    clips = [_clip(i) for i in range(3)]
    anchors = sps_sample(anchor_corpus(clips, domains=DOMAINS, seed=0), 5, hidden_dim=H)
    assert (anchors.anchors[MESH].domain, anchors.anchors[POSE].domain) == ("mp_m", "pe")
    params = init_params(NetConfig(frames=F, joints=J, hidden=H, layers=1), 0, anchors=anchors)
    paths = {kind: str(root / f"{kind}.bin") for kind in ("dataset", "anchors", "checkpoint")}
    fileio.save_dataset(paths["dataset"], clips)
    fileio.save_anchors(paths["anchors"], anchors, meta={"domains": DOMAINS, "corpus_seed": 0})
    fileio.save_checkpoint(paths["checkpoint"], params)
    return paths


def blocks(kind: str, manifest: dict) -> dict:
    """The payload layout the format defines: block name -> (shape, dtype)."""
    if kind == "dataset":
        n, frames, joints = manifest["clips"], 2 * manifest["frames"], manifest["joints"]
        return {"motion": ((n, 3, frames, joints, 3), "<f4"), "betas": ((n, 10), "<f4")}
    if kind == "anchors":
        a, f, j, h = (manifest[k] for k in ("count", "frames", "joints", "hidden"))
        return {"inputs": ((a, f, j, 3), "<f4"), "targets": ((a, f, j, 3), "<f4"),
                "input_betas": ((a, 10), "<f4"), "target_betas": ((a, 10), "<f4"),
                "w1": ((a, f, j, 1), "<f8"), "w2": ((a, 1, 1, h), "<f8")}
    return {t["name"]: (tuple(t["shape"]), "<f8") for t in manifest["tensors"]}


def poke(kind, manifest, payload: bytearray, block: str, index: tuple, value: float) -> None:
    pos = 0
    for name, (shape, dtype) in blocks(kind, manifest).items():
        if name == block:
            np.frombuffer(payload, dtype, math.prod(shape), pos).reshape(shape)[index] = value
            return
        pos += math.prod(shape) * np.dtype(dtype).itemsize
    raise KeyError(block)


def clip_native(i, **counts):
    return lambda m: m["clip_meta"][i]["native"].update(counts)


# case id -> (file kind, payload pokes (block, index, value), manifest edit, message)
CASES = {
    "dataset-motion-nan": ("dataset", [("motion", (1, 1, 2, 0, 0), NAN)], None,
                           "clip entry 1 is invalid: non-finite value in buffer construction"),
    "dataset-betas-nan": ("dataset", [("betas", (2, 3), NAN)], None,
                          "clip entry 2 is invalid: betas must be finite"),
    "dataset-pose2d-z": ("dataset", [("motion", (1, 0, 3, 2, 2), 0.5)], None,
                         "clip entry 1 is invalid: pose2d sequence must have an all-zero z "
                         "channel"),
    "dataset-virtual-pose2d": ("dataset", [("motion", (0, 0, 1, 4, 0), 1.0)], None,
                               "clip entry 0 is invalid: virtual joints 4..4 must be all zero"),
    "dataset-virtual-pose3d": ("dataset", [("motion", (2, 1, 7, 4, 1), -2.0)], None,
                               "clip entry 2 is invalid: virtual joints 4..4 must be all zero"),
    "dataset-virtual-mesh": ("dataset", [("motion", (1, 2, 0, 4, 2), 1e-30)], None,
                             "clip entry 1 is invalid: virtual joints 4..4 must be all zero"),
    "dataset-virtual-below-native": ("dataset", [], clip_native(0, mesh=2),
                                     "clip entry 0 is invalid: virtual joints 2..4 must be all "
                                     "zero"),
    "dataset-native-above-j": ("dataset", [], clip_native(1, pose3d=6),
                               "clip entry 1 is invalid: native_joint_count 6 out of range "
                               "for J=5"),
    "dataset-two-clips": ("dataset", [("motion", (2, 0, 0, 0, 0), NAN),
                                      ("motion", (1, 2, 0, 4, 0), 1.0)], None,
                          "clip entry 1 is invalid: virtual joints 4..4 must be all zero"),
    "dataset-two-in-one-clip": ("dataset", [("motion", (1, 2, 0, 0, 0), NAN),
                                            ("betas", (1, 0), NAN),
                                            ("motion", (1, 0, 0, 0, 2), 1.0)], None,
                                "clip entry 1 is invalid: pose2d sequence must have an all-zero "
                                "z channel"),
    "dataset-values-before-manifest": ("dataset", [("motion", (0, 1, 0, 4, 0), 1.0)],
                                       lambda m: m["clip_meta"][1].update(id=7),
                                       "clip entry 0 is invalid: virtual joints 4..4 must be "
                                       "all zero"),
    "dataset-manifest-before-values": ("dataset", [("motion", (1, 1, 0, 0, 0), NAN)],
                                       lambda m: m["clip_meta"][0].update(id=7),
                                       "clip entry 0 field 'id' must be a str, got 7"),
    "anchors-inputs-nan": ("anchors", [("inputs", (MESH, 1, 2, 0), NAN)], None,
                           f"anchor entry {MESH} input is invalid: non-finite value in buffer "
                           "construction"),
    "anchors-targets-nan": ("anchors", [("targets", (POSE, 0, 0, 1), NAN)], None,
                            f"anchor entry {POSE} target is invalid: non-finite value in buffer "
                            "construction"),
    "anchors-input-betas-nan": ("anchors", [("input_betas", (POSE, 4), NAN)], None,
                                f"anchor entry {POSE} input is invalid: betas must be finite"),
    "anchors-target-betas-nan": ("anchors", [("target_betas", (MESH, 9), NAN)], None,
                                 f"anchor entry {MESH} target is invalid: betas must be finite"),
    "anchors-w1-nan": ("anchors", [("w1", (MESH, 0, 0, 0), NAN)], None,
                       "anchor set is invalid: soft factors must be finite"),
    "anchors-w2-nan": ("anchors", [("w2", (0, 0, 0, 7), NAN)], None,
                       "anchor set is invalid: soft factors must be finite"),
    "anchors-pose2d-z": ("anchors", [("inputs", (POSE, 3, 1, 2), 0.25)], None,
                         f"anchor entry {POSE} input is invalid: pose2d sequence must have an "
                         "all-zero z channel"),
    "anchors-virtual-pose2d": ("anchors", [("inputs", (POSE, 0, 4, 1), 1.0)], None,
                               f"anchor entry {POSE} input is invalid: virtual joints 4..4 "
                               "must be all zero"),
    "anchors-virtual-pose3d": ("anchors", [("targets", (POSE, 2, 4, 2), 1.0)], None,
                               f"anchor entry {POSE} target is invalid: virtual joints 4..4 "
                               "must be all zero"),
    "anchors-virtual-mesh": ("anchors", [("inputs", (MESH, 3, 4, 0), -1.0)], None,
                             f"anchor entry {MESH} input is invalid: virtual joints 4..4 must "
                             "be all zero"),
    "anchors-pose2d-betas": ("anchors", [("input_betas", (POSE, 0), 0.5)], None,
                             f"anchor entry {POSE} input is invalid: pose2d sequence must "
                             "carry zero betas"),
    "anchors-pose3d-betas": ("anchors", [("target_betas", (POSE, 9), -0.5)], None,
                             f"anchor entry {POSE} target is invalid: pose3d sequence must "
                             "carry zero betas"),
    "anchors-native-above-j": ("anchors", [],
                               lambda m: m["anchors"][MESH]["target"].update(native=6),
                               f"anchor entry {MESH} target is invalid: native_joint_count 6 "
                               "out of range for J=5"),
    "anchors-two-entries": ("anchors", [("inputs", (POSE, 0, 0, 0), NAN),
                                        ("targets", (MESH, 0, 4, 0), 1.0)], None,
                            f"anchor entry {MESH} target is invalid: virtual joints 4..4 must be "
                            "all zero"),
    "anchors-input-before-target": ("anchors", [("targets", (POSE, 0, 0, 0), NAN),
                                                ("input_betas", (POSE, 0), 1.0)], None,
                                    f"anchor entry {POSE} input is invalid: pose2d sequence must "
                                    "carry zero betas"),
    "anchors-rest-pose-moved": ("anchors", [("inputs", (0, 0, 0, 0), 1.0)], None,
                                "anchor set is invalid: anchors[0] must be the all-zero "
                                "rest-pose anchor"),
    "checkpoint-network-nan": ("checkpoint", [("layer0.compress.w", (2, 17), NAN)], None,
                               "tensor 'layer0.compress.w' is invalid: non-finite value in "
                               "buffer construction"),
    "checkpoint-soft-nan": ("checkpoint", [("soft.w1", (2, 0, 4, 0), float("-inf"))], None,
                            "tensor 'soft.w1' is invalid: non-finite value in buffer "
                            "construction"),
    "checkpoint-two-tensors": ("checkpoint", [("soft.w2", (0, 0, 0, 0), NAN),
                                              ("head.pos.w", (0, 0), NAN)], None,
                               "tensor 'head.pos.w' is invalid: non-finite value in buffer "
                               "construction"),
}
LOADERS = {"dataset": fileio.load_dataset, "anchors": fileio.load_anchors,
           "checkpoint": fileio.load_checkpoint}


def faulty(files, tmp_path, case) -> str:
    kind, pokes, edit, _ = CASES[case]
    manifest, payload, _ = fileio.read_file(files[kind])
    payload = bytearray(payload)
    for block, index, value in pokes:
        poke(kind, manifest, payload, block, index, value)
    if edit is not None:
        edit(manifest)
    path = str(tmp_path / f"{case}.bin")
    fileio.write_file(path, manifest, bytes(payload))
    return path


@pytest.mark.parametrize("case", list(CASES))
def test_each_fault_keeps_its_message_and_exit_code(files, tmp_path, capsys, case):
    kind, message = CASES[case][0], CASES[case][-1]
    bad = faulty(files, tmp_path, case)
    with pytest.raises(FormatError) as caught:
        LOADERS[kind](bad)
    assert str(caught.value) == message
    argv = {"dataset": ["derive", "--dataset", bad],
            "anchors": ["retrieve", "--dataset", files["dataset"], "--anchors", bad],
            "checkpoint": ["eval", "--dataset", files["dataset"], "--anchors", files["anchors"],
                           "--checkpoint", bad]}[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", list(LOADERS))
def test_a_file_that_shrinks_while_read_is_a_format_error(files, tmp_path, monkeypatch, kind):
    # fstat still reports the full size, so the length check passes and the
    # payload read comes up short.
    path = str(tmp_path / f"short-{kind}.bin")
    raw = open(files[kind], "rb").read()
    open(path, "wb").write(raw[:-3])
    real = os.fstat
    monkeypatch.setattr(fileio.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=real(fd).st_size + 3))
    with pytest.raises(FormatError, match="payload at byte"):
        LOADERS[kind](path)


def loaded_arrays(kind, loaded) -> list[np.ndarray]:
    if kind == "checkpoint":
        return [t.array for t in loaded[0].tensors.values()]
    soft = [loaded[0].soft_w1, loaded[0].soft_w2] if kind == "anchors" else []
    return soft + [a for s in loaded_sequences(kind, loaded) for a in (s.values.array, s.betas)]


@pytest.mark.parametrize("kind", list(LOADERS))
def test_loaded_arrays_are_read_only_contiguous_float64(files, kind):
    for arr in loaded_arrays(kind, LOADERS[kind](files[kind])):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_write_file_writes_its_chunks_in_turn(tmp_path):
    a, b = b"\x01\x02\x03", bytes(range(40))
    p1, p2 = str(tmp_path / "one.bin"), str(tmp_path / "two.bin")
    fileio.write_file(p1, {"kind": "x"}, a + b)
    fileio.write_file(p2, {"kind": "x"}, a, b)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    fileio.write_file(p2, {"kind": "x"}, np.frombuffer(a + b, np.uint8).reshape(1, 43))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def _digest_sequence(h, seq) -> None:
    h.update(f"{seq.modality.value}:{seq.native_joint_count}".encode())
    for arr in (seq.values.array, seq.betas):
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())


def loaded_digest(kind, loaded) -> str:
    """sha256 of every loaded name, shape and value byte."""
    h = hashlib.sha256()
    if kind == "dataset":
        for clip in loaded:
            h.update(f"{clip.clip_id}:{clip.source}".encode())
            for seq in (clip.pose2d, clip.pose3d, clip.mesh):
                _digest_sequence(h, seq)
    elif kind == "anchors":
        anchors, meta = loaded
        h.update(repr((anchors.k_requested, anchors.method, anchors.fingerprint,
                       anchors.selection_trace, meta)).encode())
        for a in anchors.anchors:
            h.update(f"{a.domain}:{a.source_index}".encode())
            _digest_sequence(h, a.input)
            _digest_sequence(h, a.target)
        for arr in (anchors.soft_w1, anchors.soft_w2):
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    else:
        params, meta = loaded
        h.update(repr((vars(params.config), meta)).encode())
        for name, buf in params.tensors.items():
            h.update(f"{name}:{buf.shape}".encode())
            h.update(buf.array.tobytes())
    return h.hexdigest()


# Loaded values at the toy bench config (64 clips, F=8 J=6, 64 anchors, H=16 L=1, seed 2801).
LOADED_SHA256 = {
    "dataset": "5a8e0740eb56686c57ffc053276d1a702bb080d718dc8deef3ed77914bc98190",
    "anchors": "c4c35def7e0f621e7db8b2b762ad646d58bc13468c1c36e01d980efc4179deac",
    "checkpoint": "1895e431087a072f5350832399e6f3e3e68b4d04643f5cbaef1f3ab8071218e2",
}


def test_loaded_values_are_pinned_at_the_toy_bench_config(tmp_path):
    clips = make_dataset(SynthConfig(clips=64, frames=8, joints=6, native_pose_joints=5,
                                     clusters=4, seed=2801))
    anchors = sps_sample(anchor_corpus(clips, seed=2801), 64, hidden_dim=16)
    params = init_params(NetConfig(frames=8, joints=6, hidden=16, layers=1), 2801,
                         anchors=anchors)
    paths = {kind: str(tmp_path / f"{kind}.bin") for kind in LOADERS}
    fileio.save_dataset(paths["dataset"], clips)
    fileio.save_anchors(paths["anchors"], anchors, meta={"corpus_seed": 2801})
    fileio.save_checkpoint(paths["checkpoint"], params, meta={"steps": 0})
    assert {kind: loaded_digest(kind, LOADERS[kind](path))
            for kind, path in paths.items()} == LOADED_SHA256
