"""Binary persistence for datasets, anchor sets, and checkpoints.

Every file starts with the magic bytes "HICM", a little-endian u16 format
version, and a little-endian u32 manifest length, followed by a canonical
JSON manifest (sorted keys, no whitespace) and a raw payload. Motion data is
stored as little-endian 32-bit floats; soft-anchor factors and checkpoint
tensors as 64-bit floats. A checkpoint's config holds exactly the fields of
NetConfig. Writes go to a temporary file in the target directory and are
renamed into place, so a crash never leaves a truncated file under the final
name; each payload block is written from its own array, without a joined copy.

Reads check the payload length against the manifest before any block is
read, then read each block straight from the file into its own array. Values
are checked once per block: finite numbers, zero pose2d z channels, zero pose
betas and zero virtual joints for motion, finite numbers for each checkpoint
tensor. A sequence or tensor the block check flags is built by its validating
constructor, so a shape, value or state fault found while building objects
from file contents is a FormatError naming the file part, with the
constructor's message. Loaded sequences are read-only views into their
block: holding one loaded clip or anchor keeps its whole motion block alive.
A loaded anchor set takes its inputs block as its stack, without a copy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import reprlib
import struct
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError, StateError
from .motion import SHAPE_PARAMS, Modality, MotionClip, MotionSequence, check_type, is_count
from .nd import NdBuffer
from .network import NetConfig, XFusionParams
from .prompting import TIE_BREAK, Anchor, AnchorSet

MAGIC = b"HICM"
VERSION = 1
_HEADER = struct.Struct("<4sHI")  # magic, version, manifest byte length


def write_file(path: str, manifest: dict, *chunks) -> None:
    """Atomic header + manifest + payload write (temp file, then rename). The
    payload is the chunks, bytes or C-contiguous arrays, written in turn."""
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, len(blob)))
            f.write(blob)
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_head(f) -> tuple[dict, int]:
    """Check the header of the open file `f` and parse its manifest, leaving
    `f` at the payload; returns (manifest, payload offset)."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise FormatError(f"file is {len(head)} bytes, too short for the "
                          f"{_HEADER.size}-byte header")
    magic, version, manifest_len = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4, expected {VERSION}")
    offset = _HEADER.size + manifest_len
    size = os.fstat(f.fileno()).st_size
    if offset > size:
        raise FormatError(f"manifest length {manifest_len} at byte 6 overruns the "
                          f"{size}-byte file")
    try:
        manifest = json.loads(f.read(manifest_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest at byte {_HEADER.size} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest at byte {_HEADER.size} must be a JSON object, "
                          f"got {type(manifest).__name__}")
    return manifest, offset


def read_file(path: str) -> tuple[dict, bytes, int]:
    """Parse and validate the container; returns (manifest, payload, payload offset)."""
    with open(path, "rb") as f:
        manifest, offset = _read_head(f)
        return manifest, f.read(), offset


def _expect_kind(manifest: dict, kind: str) -> None:
    found = manifest.get("kind")
    if found != kind:
        raise FormatError(f"expected a {kind!r} file, manifest says kind={found!r}")


def _field(mapping, key: str, kind: type, where: str = "manifest", minimum: int | None = 1,
           index: int | None = None):
    """mapping[key], checked for presence and type. Kind int means an integer
    of at least `minimum` (by default a positive extent or count; None allows
    any integer); kind tuple a list of positive integers (a tensor shape).
    A fault names `where`, followed by `index` when one is given: the label
    is formatted only for a fault."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"{_label(where, index)} lacks the {key!r} field")
    value = mapping[key]
    if kind is int:
        ok = is_count(value, -math.inf if minimum is None else minimum)
        want = ("integer" if minimum is None else
                "positive integer" if minimum == 1 else f"integer >= {minimum}")
    elif kind is tuple:
        ok = isinstance(value, list) and all(map(is_count, value))
        want = "list of positive integers"
    else:
        ok, want = isinstance(value, kind), kind.__name__
    if not ok:
        raise FormatError(f"{_label(where, index)} field {key!r} must be a {want}, "
                          f"got {value!r}")
    return tuple(value) if kind is tuple else value


def _label(where: str, index: int | None) -> str:
    return where if index is None else f"{where} {index}"


def _finite_floats(mapping, key: str) -> tuple[float, ...]:
    """mapping[key], checked to be a list of finite numbers (not bools), as floats."""
    values = _field(mapping, key, list)
    for i, value in enumerate(values):
        # type() rules out bools; the bound rules out NaN, infinities and huge integers
        if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
            raise FormatError(f"manifest field {key!r} must hold finite numbers, "
                              f"got {value!r} at index {i}")
    return tuple(map(float, values))


@contextmanager
def _built_from(where: str):
    """A shape, value or state fault raised while building objects from file
    contents is a format error naming the file part."""
    try:
        yield
    except (DimensionError, NumericError, StateError) as exc:
        raise FormatError(f"{where} is invalid: {exc}") from None


def _f32_block(arr: np.ndarray) -> np.ndarray:
    """`arr` as a C-contiguous little-endian 32-bit block."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(out)):
        raise NumericError("values overflow 32-bit storage; refusing to write a "
                           "non-finite payload")
    return out


def _f64_block(arr: np.ndarray) -> np.ndarray:
    """`arr` as a C-contiguous little-endian 64-bit block (no copy if it is one)."""
    return np.ascontiguousarray(arr, dtype="<f8")


def _read_blocks(f, offset: int, blocks) -> list[np.ndarray]:
    """The payload of the open file `f`, which starts at `offset`, as
    consecutive (shape, dtype) blocks: each is read straight into its own
    array and returned read-only as float64 (a 64-bit block as read, a 32-bit
    one converted once). The payload must be exactly the blocks' total size;
    this is the one length check, made before any block is read."""
    total = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in blocks)
    length = os.fstat(f.fileno()).st_size - offset
    if length != total:
        raise FormatError(f"payload at byte {offset} is {length} bytes, expected exactly {total}")
    arrays = []
    for shape, dtype in blocks:
        block = np.empty(shape, dtype)
        if f.readinto(block) != block.nbytes:
            raise FormatError(f"payload at byte {offset} ended before its {total} bytes "
                              f"were read")
        block = block.astype(np.float64, copy=False)
        block.setflags(write=False)
        arrays.append(block)
    return arrays


def _block_facts(values: np.ndarray, betas: np.ndarray) -> list:
    """The value facts of a block of (F, J, 3) sequences (any leading axes)
    and their (..., 10) betas, from one max and one min pass over frames.
    Per sequence, as nested lists over the leading axes: [values and betas
    finite, z channel all zero, betas all zero, one past the last joint
    holding a nonzero value]."""
    hi, lo = values.max(axis=-3), values.min(axis=-3)  # both propagate NaN
    nonzero = (hi != 0.0) | (lo != 0.0)  # (..., J, 3); NaN counts as nonzero
    return np.stack([
        np.isfinite(hi).all(axis=(-2, -1)) & np.isfinite(lo).all(axis=(-2, -1))
        & np.isfinite(betas).all(axis=-1),
        ~nonzero[..., 2].any(axis=-1),
        ~betas.any(axis=-1),
        (nonzero.any(axis=-1) * np.arange(1, values.shape[-2] + 1)).max(axis=-1),
    ], axis=-1).tolist()


def _sequence(values: np.ndarray, modality: Modality, native: int, betas: np.ndarray,
              facts: list, where: str) -> MotionSequence:
    """A loaded sequence: built unchecked when its block facts pass every
    check of `MotionSequence`, otherwise by that validating constructor,
    whose fault is a FormatError naming `where`."""
    finite, z_zero, betas_zero, extent = facts
    if (finite and extent <= native <= values.shape[1]
            and (z_zero or modality is not Modality.POSE2D)
            and (betas_zero or modality is Modality.MESH)):
        return MotionSequence._trusted(values, modality, native, betas)
    with _built_from(where):
        return MotionSequence(NdBuffer(values), modality, native, betas=betas)


_MODALITY_FIELDS = ("pose2d", "pose3d", "mesh")


def save_dataset(path: str, clips: list[MotionClip]) -> None:
    """One (clips, modality, 2F, J, 3) motion block of 32-bit floats, then a beta block."""
    if not clips:
        raise DimensionError("cannot save an empty dataset")
    for clip in clips:
        check_type(clip, MotionClip, "each dataset clip")
    half, joints = clips[0].window, clips[0].joints
    meta = []
    for clip in clips:
        if clip.window != half or clip.joints != joints:
            raise DimensionError(f"clip {clip.clip_id!r} has window {clip.window} and "
                                 f"{clip.joints} joints, dataset uses {half} and {joints}")
        native = {field: getattr(clip, field).native_joint_count for field in _MODALITY_FIELDS}
        meta.append({"id": clip.clip_id, "source": clip.source, "native": native,
                     "modalities": list(_MODALITY_FIELDS)})
    motion = np.stack([[getattr(clip, field).values.array for field in _MODALITY_FIELDS]
                       for clip in clips])
    manifest = {"kind": "dataset", "frames": half, "joints": joints, "channels": 3,
                "clips": len(clips), "root_joint": 0, "shape_params": SHAPE_PARAMS,
                "clip_meta": meta}
    write_file(path, manifest, _f32_block(motion),
               _f32_block(np.stack([c.mesh.betas for c in clips])))


def load_dataset(path: str) -> list[MotionClip]:
    with open(path, "rb") as file:
        manifest, offset = _read_head(file)
        _expect_kind(manifest, "dataset")
        half, joints, n = (_field(manifest, k, int) for k in ("frames", "joints", "clips"))
        meta = _field(manifest, "clip_meta", list)
        if len(meta) != n:
            raise FormatError(f"manifest lists {len(meta)} clip entries, clips={n}")
        motion, mesh_betas = _read_blocks(file, offset, [((n, 3, 2 * half, joints, 3), "<f4"),
                                                         ((n, SHAPE_PARAMS), "<f4")])
    betas = np.zeros((n, 3, SHAPE_PARAMS))  # per sequence: zero for the two pose modalities
    betas[:, 2] = mesh_betas
    betas.setflags(write=False)
    facts = _block_facts(motion, betas)
    clips = []
    for i, entry in enumerate(meta):
        where = f"clip entry {i}"
        native = _field(entry, "native", dict, where)
        count = [_field(native, m, int, f"{where} native") for m in _MODALITY_FIELDS]
        clip_id, source = _field(entry, "id", str, where), _field(entry, "source", str, where)
        seqs = [_sequence(motion[i, k], Modality(m), count[k], betas[i, k], facts[i][k], where)
                for k, m in enumerate(_MODALITY_FIELDS)]
        with _built_from(where):
            clips.append(MotionClip(*seqs, clip_id=clip_id, source=source))
    return clips


def _sequence_meta(seq: MotionSequence) -> dict:
    return {"modality": seq.modality.value, "native": seq.native_joint_count}


def _load_sequence(values: np.ndarray, entry: dict, key: str, betas: np.ndarray,
                   facts: list, where: str) -> MotionSequence:
    meta = _field(entry, key, dict, where)
    where = f"{where} {key}"
    name = _field(meta, "modality", str, where)
    try:
        modality = Modality(name)
    except ValueError:
        raise FormatError(f"{where} field 'modality' must be one of "
                          f"{[m.value for m in Modality]}, got {name!r}") from None
    return _sequence(values, modality, _field(meta, "native", int, where), betas, facts, where)


def _meta(meta: dict | None) -> dict:
    """A saver's `meta`, checked before its file is written: a dict that the
    canonical JSON manifest can hold, without NaN or infinity, and that loads
    back equal (string keys, lists rather than tuples); None is {}."""
    if meta is None:
        return {}
    if not isinstance(meta, dict):
        raise ConfigError(f"meta must be a dict or None, got {reprlib.repr(meta)}")
    try:
        back = json.loads(json.dumps(meta, sort_keys=True, allow_nan=False))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"meta {reprlib.repr(meta)} cannot be stored as JSON: {err}") from None
    if back != meta:
        raise ConfigError(f"meta {reprlib.repr(meta)} would load back as {reprlib.repr(back)}")
    return meta


def save_anchors(path: str, anchors: AnchorSet, meta: dict | None = None) -> None:
    """Hard anchors as 32-bit floats, soft factor pairs as 64-bit floats."""
    check_type(anchors, AnchorSet, "anchors")
    a, f, j, h = len(anchors), anchors.frames, anchors.joints, anchors.hidden
    manifest = {
        "kind": "anchors", "frames": f, "joints": j, "hidden": h, "count": a,
        "k_requested": anchors.k_requested, "method": anchors.method,
        "tie_break": anchors.tie_break, "fingerprint": anchors.fingerprint,
        "selection_trace": list(anchors.selection_trace),
        "anchors": [{"domain": x.domain, "source_index": x.source_index,
                     "input": _sequence_meta(x.input), "target": _sequence_meta(x.target)}
                    for x in anchors.anchors],
        "meta": _meta(meta),
    }
    write_file(path, manifest,
               _f32_block(anchors.stacked_inputs()),
               _f32_block(np.stack([x.target.values.array for x in anchors.anchors])),
               _f32_block(np.stack([x.input.betas for x in anchors.anchors])),
               _f32_block(np.stack([x.target.betas for x in anchors.anchors])),
               _f64_block(anchors.soft_w1),
               _f64_block(anchors.soft_w2))


def load_anchors(path: str) -> tuple[AnchorSet, dict]:
    with open(path, "rb") as file:
        manifest, offset = _read_head(file)
        _expect_kind(manifest, "anchors")
        a, f, j, h = (_field(manifest, k, int) for k in ("count", "frames", "joints", "hidden"))
        meta = _field(manifest, "anchors", list)
        if len(meta) != a:
            raise FormatError(f"manifest lists {len(meta)} anchor entries, count={a}")
        inputs, targets, input_betas, target_betas, w1, w2 = _read_blocks(file, offset, [
            ((a, f, j, 3), "<f4"), ((a, f, j, 3), "<f4"),
            ((a, SHAPE_PARAMS), "<f4"), ((a, SHAPE_PARAMS), "<f4"),
            ((a, f, j, 1), "<f8"), ((a, 1, 1, h), "<f8")])
    input_facts = _block_facts(inputs, input_betas)
    target_facts = _block_facts(targets, target_betas)

    def anchor(i: int, entry) -> Anchor:
        where = f"anchor entry {i}"
        return Anchor(_load_sequence(inputs[i], entry, "input", input_betas[i],
                                     input_facts[i], where),
                      _load_sequence(targets[i], entry, "target", target_betas[i],
                                     target_facts[i], where),
                      _field(entry, "domain", str, where),
                      _field(entry, "source_index", int, where, minimum=-1))

    hard = tuple(anchor(i, m) for i, m in enumerate(meta))
    if _field(manifest, "tie_break", str) != TIE_BREAK:
        raise FormatError(f"manifest tie_break {manifest['tie_break']!r} is not {TIE_BREAK!r}")
    with _built_from("anchor set"):
        loaded = AnchorSet(anchors=hard, k_requested=_field(manifest, "k_requested", int),
                           soft_w1=w1, soft_w2=w2, fingerprint=_field(manifest, "fingerprint", str),
                           method=_field(manifest, "method", str),
                           selection_trace=_finite_floats(manifest, "selection_trace"))
    loaded._keep_stack(inputs)  # every loaded input equals its row of the block
    return loaded, _field(manifest, "meta", dict)


def save_checkpoint(path: str, params: XFusionParams, meta: dict | None = None) -> None:
    """All tensors as 64-bit floats in sorted name order."""
    check_type(params, XFusionParams, "params")
    names = sorted(params.tensors)
    manifest = {
        "kind": "checkpoint",
        "config": vars(params.config),
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
        "meta": _meta(meta),
    }
    write_file(path, manifest, *(_f64_block(params.tensors[n].array) for n in names))


def load_checkpoint(path: str) -> tuple[XFusionParams, dict]:
    with open(path, "rb") as file:
        manifest, offset = _read_head(file)
        _expect_kind(manifest, "checkpoint")
        c = _field(manifest, "config", dict)
        fields = [f.name for f in dataclasses.fields(NetConfig)]
        for key in c:
            if key not in fields:
                raise FormatError(f"checkpoint config key {key!r} is not one of {fields}")
        cfg = NetConfig(**{key: _field(c, key, int, "checkpoint config") for key in fields})
        entries = [(_field(e, "name", str, "tensor entry", index=i),
                    _field(e, "shape", tuple, "tensor entry", index=i))
                   for i, e in enumerate(_field(manifest, "tensors", list))]
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            i = next(i for i, name in enumerate(names) if names.index(name) != i)
            raise FormatError(f"tensor entry {i} repeats the name {names[i]!r} "
                              f"of tensor entry {names.index(names[i])}")
        arrays = _read_blocks(file, offset, [(shape, "<f8") for _, shape in entries])
    tensors = {}
    for name, values in zip(names, arrays):
        if np.isfinite(values).all():
            tensors[name] = NdBuffer._wrap(values)
        else:
            with _built_from(f"tensor {name!r}"):
                tensors[name] = NdBuffer(values)  # raises the constructor's fault
    return XFusionParams(cfg, tensors), _field(manifest, "meta", dict)


def load_config(path: str) -> dict:
    """Flat JSON key/value config; nested objects are rejected by key name,
    and so are NaN, Infinity, -Infinity and numbers beyond float64 (1e400)."""
    def non_finite(text):
        raise ConfigError(f"non-finite number {text} in config file {path}")

    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f, parse_constant=non_finite, parse_float=lambda text: (
                float(text) if math.isfinite(float(text)) else non_finite(text)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, "
                          f"got {type(data).__name__}")
    for key, value in data.items():
        if isinstance(value, dict):
            raise ConfigError(f"config key {key!r} is nested; the key space is flat")
    return data
