"""Container format: round trips, payload arithmetic, corruption diagnostics."""

import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from motionctx.errors import ConfigError, DimensionError, FormatError
from motionctx.fileio import (load_anchors, load_checkpoint, load_config, load_dataset,
                              read_file, save_anchors, save_checkpoint, save_dataset,
                              write_file)
from motionctx import prompting
from motionctx.cli import main
from motionctx.nd import NdBuffer
from motionctx.network import SOFT_TABLES, NetConfig, XFusionParams, init_params
from motionctx.prompting import TIE_BREAK, retrieve_prompt, sps_sample
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import anchor_corpus


def small_dataset(clips=4, frames=4, joints=5, seed=0):
    return make_dataset(SynthConfig(clips=clips, frames=frames, joints=joints,
                                    native_pose_joints=4, clusters=2, seed=seed))


def test_dataset_round_trip_and_file_stability(tmp_path):
    clips = small_dataset()
    p1, p2, p3 = (str(tmp_path / n) for n in ("a.bin", "b.bin", "c.bin"))
    save_dataset(p1, clips)
    loaded = load_dataset(p1)
    assert len(loaded) == len(clips)
    for orig, back in zip(clips, loaded):
        assert back.clip_id == orig.clip_id
        assert back.source == orig.source
        # storage is 32-bit: loading gives the quantized values
        assert np.array_equal(back.pose3d.values.array,
                              orig.pose3d.values.array.astype(np.float32).astype(np.float64))
        assert back.pose3d.native_joint_count == orig.pose3d.native_joint_count
        assert back.mesh.native_joint_count == orig.mesh.native_joint_count
        assert np.array_equal(back.mesh.betas,
                              orig.mesh.betas.astype(np.float32).astype(np.float64))
    # the file round-trips bit-exactly once values are quantized
    save_dataset(p2, loaded)
    save_dataset(p3, load_dataset(p2))
    assert open(p2, "rb").read() == open(p3, "rb").read()


def test_same_content_writes_identical_bytes(tmp_path):
    clips = small_dataset(seed=7)
    p1, p2 = str(tmp_path / "x.bin"), str(tmp_path / "y.bin")
    save_dataset(p1, clips)
    save_dataset(p2, clips)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_payload_size_arithmetic(tmp_path):
    clips = make_dataset(SynthConfig(clips=64, frames=16, joints=24,
                                     native_pose_joints=17, clusters=4, seed=1))
    path = str(tmp_path / "big.bin")
    save_dataset(path, clips)
    _, payload, _ = read_file(path)
    assert len(payload) == 64 * 3 * (32 * 24 * 3) * 4 + 64 * 10 * 4


def test_save_empty_or_ragged_dataset_rejected(tmp_path):
    with pytest.raises(DimensionError):
        save_dataset(str(tmp_path / "e.bin"), [])
    mixed = small_dataset(clips=2) + small_dataset(clips=2, frames=3)[:1]
    with pytest.raises(DimensionError):
        save_dataset(str(tmp_path / "m.bin"), mixed)


@pytest.mark.parametrize("save,message", [
    (lambda path: save_checkpoint(path, "x"), "params must be a XFusionParams, got str"),
    (lambda path: save_anchors(path, "x"), "anchors must be a AnchorSet, got str"),
    (lambda path: save_dataset(path, [1]), "each dataset clip must be a MotionClip, got int"),
    (lambda path: save_dataset(path, "x"), "each dataset clip must be a MotionClip, got str"),
], ids=["checkpoint-str", "anchors-str", "dataset-int", "dataset-str"])
def test_savers_refuse_objects_of_the_wrong_type_before_writing(tmp_path, save, message):
    # Each raised a raw AttributeError before it was checked.
    with pytest.raises(ConfigError, match=f"^{message}$"):
        save(str(tmp_path / "f.bin"))
    assert os.listdir(tmp_path) == []


def build_anchors(hidden=8, k=4):
    clips = small_dataset()
    corpus = anchor_corpus(clips, domains=("pe", "mp_m"), seed=0)
    return sps_sample(corpus, k, hidden_dim=hidden)


def test_anchor_round_trip(tmp_path):
    anchors = build_anchors()
    p1, p2 = str(tmp_path / "a1.bin"), str(tmp_path / "a2.bin")
    save_anchors(p1, anchors, meta={"domains": ["pe", "mp_m"], "corpus_seed": 0})
    loaded, meta = load_anchors(p1)
    assert meta == {"domains": ["pe", "mp_m"], "corpus_seed": 0}
    assert len(loaded) == len(anchors)
    assert loaded.k_requested == anchors.k_requested
    assert loaded.method == anchors.method
    assert loaded.tie_break == anchors.tie_break
    assert loaded.fingerprint == anchors.fingerprint
    assert loaded.selection_trace == anchors.selection_trace
    # soft factors are stored at full precision
    assert np.array_equal(loaded.soft_w1, anchors.soft_w1)
    assert np.array_equal(loaded.soft_w2, anchors.soft_w2)
    for la, oa in zip(loaded.anchors, anchors.anchors):
        assert la.domain == oa.domain
        assert la.source_index == oa.source_index
        assert la.input.modality is oa.input.modality
        assert la.target.native_joint_count == oa.target.native_joint_count
        assert np.array_equal(la.target.betas,
                              oa.target.betas.astype(np.float32).astype(np.float64))
    save_anchors(p2, loaded, meta=meta)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("k", [1, 3, np.int64(3), 100])
def test_anchor_round_trip_keeps_every_accepted_k(tmp_path, k):
    # 100 exceeds the corpus: sps stops early and keeps the count asked for.
    path = str(tmp_path / "a.bin")
    anchors = build_anchors(k=k)
    save_anchors(path, anchors)
    loaded, _ = load_anchors(path)
    assert loaded.k_requested == k and type(loaded.k_requested) is int
    assert [a.source_index for a in loaded.anchors] == [a.source_index for a in anchors.anchors]


@pytest.mark.parametrize("value", ["highest-index", "random", 0])
def test_anchor_tie_break_is_the_one_policy(tmp_path, value):
    anchors = build_anchors()
    assert anchors.tie_break == TIE_BREAK == "lowest-index"
    with pytest.raises(AttributeError):
        anchors.tie_break = "highest-index"
    path = str(tmp_path / "a.bin")
    save_anchors(path, anchors)
    manifest, payload, _ = read_file(path)
    assert manifest["tie_break"] == TIE_BREAK
    manifest["tie_break"] = value
    write_file(path, manifest, payload)
    with pytest.raises(FormatError, match="tie_break"):
        load_anchors(path)


def test_reloaded_anchors_self_retrieve(tmp_path):
    path = str(tmp_path / "a.bin")
    save_anchors(path, build_anchors())
    loaded, _ = load_anchors(path)
    for i, anchor in enumerate(loaded.anchors):
        assert retrieve_prompt(anchor.input, loaded).index == i


def test_loaded_set_takes_its_inputs_block_as_the_stack(tmp_path, monkeypatch):
    # load_anchors hands the set the read-only (A, F, J, 3) block every loaded
    # input views, so no second copy is made, and the pivot table reads it.
    path = str(tmp_path / "a.bin")
    save_anchors(path, build_anchors(k=6))
    loaded, _ = load_anchors(path)
    inputs = [a.input.values.array for a in loaded.anchors]
    want = np.stack(inputs)
    monkeypatch.setattr(np, "stack", lambda *args, **kwargs: pytest.fail("stack rebuilt"))
    seen = []
    many = prompting._sims_to_many
    monkeypatch.setattr(prompting, "_sims_to_many",
                        lambda stacked, *args: seen.append(stacked) or many(stacked, *args))
    stacked = loaded.stacked_inputs()
    assert loaded.stacked_inputs() is stacked and not stacked.flags.writeable
    assert stacked.dtype == want.dtype and stacked.tobytes() == want.tobytes()
    assert all(np.shares_memory(stacked[i], x) for i, x in enumerate(inputs))
    loaded.pivot_distances()
    assert len(seen) == 1 and seen[0] is stacked


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cfg = NetConfig(frames=4, joints=5, hidden=8, layers=2)
    params = init_params(cfg, rng_seed=3)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, params, meta={"note": "unit", "steps": 12})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "unit", "steps": 12}
    assert loaded.config == cfg
    assert set(loaded.tensors) == set(params.tensors)
    for name, buf in params.tensors.items():
        assert np.array_equal(loaded.tensors[name].array, buf.array), name


SAVERS = {
    "anchors": lambda path, meta: save_anchors(path, build_anchors(), meta=meta),
    "checkpoint": lambda path, meta: save_checkpoint(
        path, init_params(NetConfig(frames=4, joints=5, hidden=8, layers=1), rng_seed=0),
        meta=meta),
}
LOAD_META = {"anchors": lambda path: load_anchors(path)[1],
             "checkpoint": lambda path: load_checkpoint(path)[1]}


@pytest.mark.parametrize("meta,message", [
    (5, "meta must be a dict or None, got 5"),
    ([1, 2], r"meta must be a dict or None, got \[1, 2\]"),
    (0, "meta must be a dict or None, got 0"),
    ([], r"meta must be a dict or None, got \[\]"),
    ("", "meta must be a dict or None, got ''"),
    ({"a": float("nan")}, "cannot be stored as JSON: Out of range float"),
    ({"a": [1.0, float("-inf")]}, "cannot be stored as JSON: Out of range float"),
    ({"a": {1, 2}}, "cannot be stored as JSON: Object of type set"),
    ({"a": np.float32(1.0)}, "cannot be stored as JSON: Object of type float32"),
    ({1: "x", "b": "y"}, "cannot be stored as JSON"),
    ({1: "x"}, r"meta \{1: 'x'\} would load back as \{'1': 'x'\}"),
    ({"b": (1, 2)}, r"meta \{'b': \(1, 2\)\} would load back as \{'b': \[1, 2\]\}"),
], ids=["int", "list", "zero", "empty-list", "empty-str", "nan", "inf", "set", "numpy-float32",
        "mixed-keys", "int-key", "tuple"])
@pytest.mark.parametrize("kind", list(SAVERS))
def test_meta_the_loader_would_reject_is_refused_before_writing(tmp_path, kind, meta, message):
    with pytest.raises(ConfigError, match=message):
        SAVERS[kind](str(tmp_path / "f.bin"), meta)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kind", list(SAVERS))
def test_meta_none_is_stored_as_an_empty_dict(tmp_path, kind):
    path = str(tmp_path / "f.bin")
    SAVERS[kind](path, None)
    assert LOAD_META[kind](path) == {}


def test_checkpoint_with_a_repeated_tensor_name_rejected(tmp_path):
    # The first tensor listed again last, with its block again at the end of
    # the payload: read into a dict, the repeat would replace the first entry.
    path = write_each_kind(tmp_path)["checkpoint"]
    manifest, payload, _ = read_file(path)
    first = manifest["tensors"][0]
    manifest["tensors"].append(first)
    write_file(path, manifest, payload + payload[:8 * int(np.prod(first["shape"]))])
    last = len(manifest["tensors"]) - 1
    with pytest.raises(FormatError, match=f"^tensor entry {last} repeats the name "
                                          f"'{first['name']}' of tensor entry 0$"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry,fault", [
    ("x", "lacks the 'name' field"),
    ({"shape": [2]}, "lacks the 'name' field"),
    ({"name": 5, "shape": [2]}, "field 'name' must be a str, got 5"),
    ({"name": "w"}, "lacks the 'shape' field"),
    ({"name": "w", "shape": [0, 2]}, "field 'shape' must be a list of positive integers, "
                                      "got [0, 2]"),
], ids=["not-an-object", "no-name", "name-type", "no-shape", "shape-value"])
def test_checkpoint_tensor_entry_faults_name_the_entry(tmp_path, entry, fault):
    path = write_each_kind(tmp_path)["checkpoint"]
    manifest, payload, _ = read_file(path)
    manifest["tensors"][2] = entry
    write_file(path, manifest, payload)
    with pytest.raises(FormatError, match=f"^tensor entry 2 {re.escape(fault)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("trace,bad", [
    (["x", None], "'x' at index 0"),
    ([float("nan")], "nan at index 0"),
    ([{"a": 1}], "{'a': 1} at index 0"),
    ([-2.0, True], "True at index 1"),
], ids=["string", "nan", "object", "bool"])
def test_anchor_selection_trace_must_hold_finite_numbers(tmp_path, trace, bad):
    path = str(tmp_path / "a.bin")
    save_anchors(path, build_anchors())
    manifest, payload, _ = read_file(path)
    manifest["selection_trace"] = trace
    write_file(path, manifest, payload)
    with pytest.raises(FormatError, match=f"^manifest field 'selection_trace' must hold finite "
                                          f"numbers, got {re.escape(bad)}$"):
        load_anchors(path)


def test_corrupted_magic_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    save_dataset(path, small_dataset(clips=2))
    raw = bytearray(open(path, "rb").read())
    raw[0:4] = b"XXXX"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match="HICM"):
        read_file(path)


def test_corrupted_version_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    save_dataset(path, small_dataset(clips=2))
    raw = bytearray(open(path, "rb").read())
    raw[4:6] = struct.pack("<H", 9)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(FormatError, match=r"version 9.*expected 1"):
        read_file(path)


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    save_dataset(path, small_dataset(clips=2))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-5])
    with pytest.raises(FormatError, match="expected exactly"):
        load_dataset(path)


def write_each_kind(root) -> dict[str, str]:
    """A dataset, anchor and checkpoint file (F=4, J=5, H=8, L=1); kind -> path."""
    anchors = build_anchors()
    params = init_params(NetConfig(frames=4, joints=5, hidden=8, layers=1), 0, anchors=anchors)
    paths = {kind: str(root / f"{kind}.bin") for kind in ("dataset", "anchors", "checkpoint")}
    save_dataset(paths["dataset"], small_dataset())
    save_anchors(paths["anchors"], anchors, meta={"domains": ["pe", "mp_m"], "corpus_seed": 0})
    save_checkpoint(paths["checkpoint"], params, meta={"steps": 0})
    return paths


LOADERS = {"dataset": load_dataset, "anchors": load_anchors, "checkpoint": load_checkpoint}


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("kind", list(LOADERS))
def test_payload_of_the_wrong_length_rejected(tmp_path, kind, delta):
    path = write_each_kind(tmp_path)[kind]
    manifest, payload, offset = read_file(path)
    write_file(path, manifest, payload[:-1] if delta < 0 else payload + b"\0")
    with pytest.raises(FormatError, match=f"payload at byte {offset} is {len(payload) + delta} "
                                          f"bytes, expected exactly {len(payload)}$"):
        LOADERS[kind](path)


# sha256 of each file kind at F=4, J=5, H=8, L=1: the dataset's stacked
# (clip, modality) motion block must keep the byte order of per-clip chunks.
FILE_SHA256 = {
    "dataset": "1e73f14cd1d77ad513b85a05f4d3a84cb28f236c2d8b8349f25b2b612bcd3642",
    "anchors": "bdae05d836715ceddb3acc032b27b1b5280f74d2806fd081a705cfc6db91f653",
    "checkpoint": "f45d17dd6542a50e9badbe698030ac42cd0c949bb64b27ef6ff9f1045ef4400b",
}


def test_written_files_keep_their_bytes(tmp_path):
    paths = write_each_kind(tmp_path)
    assert {kind: hashlib.sha256(open(path, "rb").read()).hexdigest()
            for kind, path in paths.items()} == FILE_SHA256


def test_unknown_checkpoint_config_key_is_a_format_error_naming_it(tmp_path):
    path = write_each_kind(tmp_path)["checkpoint"]
    manifest, payload, _ = read_file(path)
    manifest["config"]["dropout"] = 0
    write_file(path, manifest, payload)
    with pytest.raises(FormatError, match=r"^checkpoint config key 'dropout' is not one of "
                                          r"\['frames', 'joints', 'hidden', 'layers'\]$"):
        load_checkpoint(path)


def test_a_checkpoint_of_per_anchor_soft_factors_is_refused_in_one_line(tmp_path, capsys):
    # The layout before the soft tables: anchor i's factors as soft.{i}.w1 and soft.{i}.w2.
    paths = write_each_kind(tmp_path)
    params, _ = load_checkpoint(paths["checkpoint"])
    tensors = {k: v for k, v in params.tensors.items() if k not in SOFT_TABLES}
    for name, factor in zip(SOFT_TABLES, ("w1", "w2")):
        for i, row in enumerate(params.tensors[name].array):
            tensors[f"soft.{i}.{factor}"] = NdBuffer(row)
    save_checkpoint(paths["checkpoint"], XFusionParams(params.config, tensors))
    assert main(["eval", "--dataset", paths["dataset"], "--anchors", paths["anchors"],
                 "--checkpoint", paths["checkpoint"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: checkpoint tensor 'soft.0.w1' ")


def test_overlong_manifest_length_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    open(path, "wb").write(struct.pack("<4sHI", b"HICM", 1, 10_000) + b"{}")
    with pytest.raises(FormatError, match="overruns"):
        read_file(path)


def test_garbage_manifest_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    blob = b"not json at all"
    open(path, "wb").write(struct.pack("<4sHI", b"HICM", 1, len(blob)) + blob)
    with pytest.raises(FormatError, match="not valid JSON"):
        read_file(path)
    listing = json.dumps([1, 2]).encode()
    open(path, "wb").write(struct.pack("<4sHI", b"HICM", 1, len(listing)) + listing)
    with pytest.raises(FormatError, match="JSON object"):
        read_file(path)


def test_kind_mismatch_rejected(tmp_path):
    path = str(tmp_path / "d.bin")
    save_dataset(path, small_dataset(clips=2))
    with pytest.raises(FormatError, match="anchors"):
        load_anchors(path)
    with pytest.raises(FormatError, match="checkpoint"):
        load_checkpoint(path)


def test_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "d.bin")
    write_file(path, {"kind": "dataset"}, b"xyz")
    assert os.listdir(tmp_path) == ["d.bin"]


def test_load_config(tmp_path):
    path = str(tmp_path / "c.json")
    open(path, "w").write(json.dumps({"epochs": 3, "learning_rate": 1e-3,
                                      "domains": ["pe", "mr"]}))
    assert load_config(path) == {"epochs": 3, "learning_rate": 1e-3, "domains": ["pe", "mr"]}
    open(path, "w").write(json.dumps({"outer": {"inner": 1}}))
    with pytest.raises(ConfigError, match="outer"):
        load_config(path)
    open(path, "w").write(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)
    open(path, "w").write("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
