"""Binary persistence for datasets, anchor sets, and checkpoints.

Every file starts with the magic bytes "HICM", a little-endian u16 format
version, and a little-endian u32 manifest length, followed by a canonical
JSON manifest (sorted keys, no whitespace) and a raw payload. Motion data is
stored as little-endian 32-bit floats; soft-anchor factors and checkpoint
tensors as 64-bit floats. Writes go to a temporary file in the target
directory and are renamed into place, so a crash never leaves a truncated
file under the final name. Payload lengths are validated against the
manifest before any array is interpreted, and a shape, value or state fault
found while building objects from file contents is a FormatError naming the
file part.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError, StateError
from .motion import SHAPE_PARAMS, Modality, MotionClip, MotionSequence, is_count
from .nd import NdBuffer
from .network import VIEWS, NetConfig, XFusionParams
from .prompting import TIE_BREAK, Anchor, AnchorSet

MAGIC = b"HICM"
VERSION = 1
_HEADER = struct.Struct("<4sHI")  # magic, version, manifest byte length


def write_file(path: str, manifest: dict, payload: bytes) -> None:
    """Atomic header + manifest + payload write (temp file, then rename)."""
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, len(blob)))
            f.write(blob)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_file(path: str) -> tuple[dict, bytes, int]:
    """Parse and validate the container; returns (manifest, payload, payload offset)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"file is {len(raw)} bytes, too short for the {_HEADER.size}-byte header")
    magic, version, manifest_len = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version} at byte 4, expected {VERSION}")
    offset = _HEADER.size + manifest_len
    if offset > len(raw):
        raise FormatError(f"manifest length {manifest_len} at byte 6 overruns the "
                          f"{len(raw)}-byte file")
    try:
        manifest = json.loads(raw[_HEADER.size:offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest at byte {_HEADER.size} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest at byte {_HEADER.size} must be a JSON object, "
                          f"got {type(manifest).__name__}")
    return manifest, raw[offset:], offset


def _expect_kind(manifest: dict, kind: str) -> None:
    found = manifest.get("kind")
    if found != kind:
        raise FormatError(f"expected a {kind!r} file, manifest says kind={found!r}")


def _field(mapping, key: str, kind: type, where: str = "manifest", minimum: int | None = 1):
    """mapping[key], checked for presence and type. Kind int means an integer
    of at least `minimum` (by default a positive extent or count; None allows
    any integer); kind tuple a list of positive integers (a tensor shape)."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise FormatError(f"{where} lacks the {key!r} field")
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
        raise FormatError(f"{where} field {key!r} must be a {want}, got {value!r}")
    return tuple(value) if kind is tuple else value


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


def _f32_bytes(arr: np.ndarray) -> bytes:
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(out)):
        raise NumericError("values overflow 32-bit storage; refusing to write a "
                           "non-finite payload")
    return out.tobytes()


def _f64_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _read_blocks(payload: bytes, offset: int, blocks) -> list[np.ndarray]:
    """The payload as consecutive (shape, dtype) blocks, each as a float64
    array. The payload must be exactly the blocks' total size; this is the
    one length check, made before any block is read."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in blocks]
    if len(payload) != sum(sizes):
        raise FormatError(f"payload at byte {offset} is {len(payload)} bytes, "
                          f"expected exactly {sum(sizes)}")
    arrays, pos = [], 0
    for (shape, dtype), size in zip(blocks, sizes):
        arrays.append(np.frombuffer(payload, dtype, math.prod(shape), pos)
                      .astype(np.float64).reshape(shape))
        pos += size
    return arrays


_MODALITY_FIELDS = ("pose2d", "pose3d", "mesh")


def save_dataset(path: str, clips: list[MotionClip]) -> None:
    """One (clips, modality, 2F, J, 3) motion block of 32-bit floats, then a beta block."""
    if not clips:
        raise DimensionError("cannot save an empty dataset")
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
    write_file(path, manifest, _f32_bytes(motion)
               + _f32_bytes(np.stack([c.mesh.betas for c in clips])))


def load_dataset(path: str) -> list[MotionClip]:
    manifest, payload, offset = read_file(path)
    _expect_kind(manifest, "dataset")
    half, joints, n = (_field(manifest, k, int) for k in ("frames", "joints", "clips"))
    meta = _field(manifest, "clip_meta", list)
    if len(meta) != n:
        raise FormatError(f"manifest lists {len(meta)} clip entries, clips={n}")
    motion, betas = _read_blocks(payload, offset, [((n, 3, 2 * half, joints, 3), "<f4"),
                                                   ((n, SHAPE_PARAMS), "<f4")])
    clips = []
    for i, entry in enumerate(meta):
        where = f"clip entry {i}"
        native = _field(entry, "native", dict, where)
        count = {m: _field(native, m, int, f"{where} native") for m in _MODALITY_FIELDS}
        clip_id, source = _field(entry, "id", str, where), _field(entry, "source", str, where)
        pose2d, pose3d, mesh = motion[i]
        with _built_from(where):
            clips.append(MotionClip(
                MotionSequence(NdBuffer(pose2d), Modality.POSE2D, count["pose2d"]),
                MotionSequence(NdBuffer(pose3d), Modality.POSE3D, count["pose3d"]),
                MotionSequence(NdBuffer(mesh), Modality.MESH, count["mesh"], betas=betas[i]),
                clip_id=clip_id, source=source))
    return clips


def _sequence_meta(seq: MotionSequence) -> dict:
    return {"modality": seq.modality.value, "native": seq.native_joint_count}


def _load_sequence(values: np.ndarray, entry: dict, key: str, betas: np.ndarray,
                   where: str) -> MotionSequence:
    meta = _field(entry, key, dict, where)
    where = f"{where} {key}"
    name = _field(meta, "modality", str, where)
    try:
        modality = Modality(name)
    except ValueError:
        raise FormatError(f"{where} field 'modality' must be one of "
                          f"{[m.value for m in Modality]}, got {name!r}") from None
    native = _field(meta, "native", int, where)
    with _built_from(where):
        return MotionSequence(NdBuffer(values), modality, native, betas=betas)


def save_anchors(path: str, anchors: AnchorSet, meta: dict | None = None) -> None:
    """Hard anchors as 32-bit floats, soft factor pairs as 64-bit floats."""
    a, f, j, h = len(anchors), anchors.frames, anchors.joints, anchors.hidden
    manifest = {
        "kind": "anchors", "frames": f, "joints": j, "hidden": h, "count": a,
        "k_requested": anchors.k_requested, "method": anchors.method,
        "tie_break": anchors.tie_break, "fingerprint": anchors.fingerprint,
        "selection_trace": list(anchors.selection_trace),
        "anchors": [{"domain": x.domain, "source_index": x.source_index,
                     "input": _sequence_meta(x.input), "target": _sequence_meta(x.target)}
                    for x in anchors.anchors],
        "meta": meta or {},
    }
    chunks = [
        _f32_bytes(np.stack([x.input.values.array for x in anchors.anchors])),
        _f32_bytes(np.stack([x.target.values.array for x in anchors.anchors])),
        _f32_bytes(np.stack([x.input.betas for x in anchors.anchors])),
        _f32_bytes(np.stack([x.target.betas for x in anchors.anchors])),
        _f64_bytes(anchors.soft_w1),
        _f64_bytes(anchors.soft_w2),
    ]
    write_file(path, manifest, b"".join(chunks))


def load_anchors(path: str) -> tuple[AnchorSet, dict]:
    manifest, payload, offset = read_file(path)
    _expect_kind(manifest, "anchors")
    a, f, j, h = (_field(manifest, k, int) for k in ("count", "frames", "joints", "hidden"))
    meta = _field(manifest, "anchors", list)
    if len(meta) != a:
        raise FormatError(f"manifest lists {len(meta)} anchor entries, count={a}")
    inputs, targets, input_betas, target_betas, w1, w2 = _read_blocks(payload, offset, [
        ((a, f, j, 3), "<f4"), ((a, f, j, 3), "<f4"),
        ((a, SHAPE_PARAMS), "<f4"), ((a, SHAPE_PARAMS), "<f4"),
        ((a, f, j, 1), "<f8"), ((a, 1, 1, h), "<f8")])

    def anchor(i: int, entry) -> Anchor:
        where = f"anchor entry {i}"
        return Anchor(_load_sequence(inputs[i], entry, "input", input_betas[i], where),
                      _load_sequence(targets[i], entry, "target", target_betas[i], where),
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
    return loaded, _field(manifest, "meta", dict)


def save_checkpoint(path: str, params: XFusionParams, meta: dict | None = None) -> None:
    """All tensors as 64-bit floats in sorted name order."""
    names = sorted(params.tensors)
    manifest = {
        "kind": "checkpoint",
        "config": vars(params.config),
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
        "meta": meta or {},
    }
    payload = b"".join(_f64_bytes(params.tensors[n].array) for n in names)
    write_file(path, manifest, payload)


def load_checkpoint(path: str) -> tuple[XFusionParams, dict]:
    manifest, payload, offset = read_file(path)
    _expect_kind(manifest, "checkpoint")
    c = _field(manifest, "config", dict)
    cfg = NetConfig(**{f.name: _field(c, f.name, int, "checkpoint config")
                       for f in dataclasses.fields(NetConfig)})
    # Older checkpoints also record these two fixed design choices.
    for key, fixed in (("shape_params", SHAPE_PARAMS), ("view_order", list(VIEWS))):
        if c.get(key, fixed) != fixed:
            raise FormatError(f"checkpoint config {key}={c[key]!r}; only {fixed!r} is supported")
    entries = [(_field(e, "name", str, f"tensor entry {i}"),
                _field(e, "shape", tuple, f"tensor entry {i}"))
               for i, e in enumerate(_field(manifest, "tensors", list))]
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        i = next(i for i, name in enumerate(names) if names.index(name) != i)
        raise FormatError(f"tensor entry {i} repeats the name {names[i]!r} "
                          f"of tensor entry {names.index(names[i])}")
    arrays = _read_blocks(payload, offset, [(shape, "<f8") for _, shape in entries])
    tensors = {}
    for (name, _), values in zip(entries, arrays):
        with _built_from(f"tensor {name!r}"):
            tensors[name] = NdBuffer(values)
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
