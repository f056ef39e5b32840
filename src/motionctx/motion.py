"""Unified cross-modal motion sequences and task-sample derivation.

Every modality lands in one F x J x 3 layout: 2D poses get a zero z-channel,
mesh rotation vectors are regrouped per joint, and sequences with fewer native
joints are padded with trailing all-zero virtual joints. Shape parameters
(betas, length 10) travel with mesh sequences and are zero for pose
modalities. Ten task domains are derived from a synchronized 2F-frame clip by
choosing modalities, past/future windows, and optional time/joint masks.

Frames and joints are stored 0-based; the root joint is index 0.
"""

from __future__ import annotations

import enum
import numbers
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericError
from .nd import NdBuffer

CHANNELS = 3
SHAPE_PARAMS = 10
ROOT_JOINT = 0
MASK_RATIO = 0.4  # share of frames (MIB) or joints (JC) a masked task hides


class Modality(enum.Enum):
    POSE2D = "pose2d"
    POSE3D = "pose3d"
    MESH = "mesh"


def is_count(value, minimum: int = 1) -> bool:
    """An int or numpy integer, not a bool, of at least `minimum`."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum)


def is_real(value, low: float = 0.0, high: float = np.inf, open_low: bool = False) -> bool:
    """A real number, not a bool, that is finite as a float64 and lies in
    [low, high], or (low, high] when `open_low`; NaN lies in no range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float64
        return False
    return (low < value if open_low else low <= value) and value <= high and value < np.inf


def check_type(value, cls: type, what: str):
    """Raises a ConfigError naming the type of a `value` that is not a `cls`."""
    if not isinstance(value, cls):
        raise ConfigError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MotionSequence:
    """One motion track in the unified layout.

    values: (frames, joints, 3) buffer. Joints at index >= native_joint_count
    are virtual padding and must be exactly zero. betas is all-zero for pose
    modalities.
    """

    values: NdBuffer
    modality: Modality
    native_joint_count: int
    betas: np.ndarray = field(default_factory=lambda: _frozen(np.zeros(SHAPE_PARAMS)))

    def __post_init__(self):
        if not isinstance(self.values, NdBuffer):
            object.__setattr__(self, "values", NdBuffer(self.values))
        if self.values.ndim != 3 or self.values.shape[2] != CHANNELS:
            raise DimensionError(f"sequence values must be (F, J, {CHANNELS}), got {self.values.shape}")
        object.__setattr__(self, "betas", _frozen(self.betas))
        if self.betas.shape != (SHAPE_PARAMS,):
            raise DimensionError(f"betas must have shape ({SHAPE_PARAMS},), got {self.betas.shape}")
        if not np.isfinite(self.betas).all():
            raise NumericError("betas must be finite")
        f, j, _ = self.values.shape
        if not (is_count(self.native_joint_count) and self.native_joint_count <= j):
            raise DimensionError(f"native_joint_count {self.native_joint_count} out of range for J={j}")
        object.__setattr__(self, "native_joint_count", int(self.native_joint_count))  # JSON-able
        arr = self.values.array
        if self.modality is Modality.POSE2D and np.any(arr[:, :, 2] != 0.0):
            raise DimensionError("pose2d sequence must have an all-zero z channel")
        if self.modality is not Modality.MESH and np.any(self.betas != 0.0):
            raise DimensionError(f"{self.modality.value} sequence must carry zero betas")
        if self.native_joint_count < j and np.any(arr[:, self.native_joint_count:, :] != 0.0):
            raise DimensionError(f"virtual joints {self.native_joint_count}..{j - 1} must be all zero")

    @classmethod
    def _trusted(cls, arr: np.ndarray, modality: Modality, native_joint_count: int,
                 betas: np.ndarray) -> "MotionSequence":
        # Skips the checks above, so only for values known to pass them: frame
        # slices of, and 0/1-mask products with, an already validated sequence
        # (`_window`, `_apply_mask`), and sequences of a loaded file block that
        # the loader's block check cleared. `arr` and `betas` are kept without
        # a copy, read-only; `native_joint_count` must be an int.
        out = object.__new__(cls)
        object.__setattr__(out, "values", NdBuffer._wrap(arr))
        object.__setattr__(out, "modality", modality)
        object.__setattr__(out, "native_joint_count", native_joint_count)
        object.__setattr__(out, "betas", betas)
        return out

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def joints(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MotionClip:
    """Three synchronized views of the same 2F-frame motion."""

    pose2d: MotionSequence
    pose3d: MotionSequence
    mesh: MotionSequence
    clip_id: str = ""
    source: str = ""

    def __post_init__(self):
        members = {"pose2d": self.pose2d, "pose3d": self.pose3d, "mesh": self.mesh}
        shapes = {name: (m.frames, m.joints) for name, m in members.items()}
        if len(set(shapes.values())) != 1:
            raise DimensionError(f"clip members disagree on (frames, joints): {shapes}")
        if self.pose2d.frames % 2 != 0:
            raise DimensionError(f"clip needs an even frame count 2F, got {self.pose2d.frames}")

    @property
    def window(self) -> int:
        """F: half the stored frame count."""
        return self.pose2d.frames // 2

    @property
    def joints(self) -> int:
        return self.pose2d.joints

    def sequence(self, modality: Modality) -> MotionSequence:
        return getattr(self, modality.value)  # fields are named by modality value


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise DimensionError(f"{what} must be a numeric array, got "
                             f"{reprlib.repr(values)}") from None


def unify_pose2d(values) -> MotionSequence:
    """Lift (F, N, 2) keypoints into the unified layout with z = 0."""
    arr = _float_array(values, "pose2d input")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimensionError(f"pose2d input must be (F, N, 2), got {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"empty pose2d sequence: shape {arr.shape}")
    lifted = np.concatenate([arr, np.zeros(arr.shape[:2] + (1,))], axis=2)
    return MotionSequence(NdBuffer(lifted), Modality.POSE2D, arr.shape[1])


def unify_pose3d(values) -> MotionSequence:
    arr = _float_array(values, "pose3d input")
    if arr.ndim != 3 or arr.shape[2] != CHANNELS:
        raise DimensionError(f"pose3d input must be (F, N, 3), got {arr.shape}")
    return MotionSequence(NdBuffer(arr), Modality.POSE3D, arr.shape[1])


def reorganize_mesh_params(theta, betas) -> MotionSequence:
    """Group per-frame rotation vectors (F, 3J) into (F, J, 3)."""
    arr = _float_array(theta, "mesh params")
    if arr.ndim != 2 or arr.shape[1] % 3 != 0 or arr.shape[1] == 0:
        raise DimensionError(f"mesh params must be (F, 3J) with 3J divisible by 3, got {arr.shape}")
    j = arr.shape[1] // 3
    grouped = arr.reshape(arr.shape[0], j, 3)
    return MotionSequence(NdBuffer(grouped), Modality.MESH, j, betas=_float_array(betas, "betas"))


def flatten_mesh_params(seq: MotionSequence) -> np.ndarray:
    """Inverse of reorganize_mesh_params for the rotation block."""
    if seq.modality is not Modality.MESH:
        raise DomainError(f"flatten_mesh_params needs a mesh sequence, got {seq.modality.value}")
    return seq.values.array.reshape(seq.frames, seq.joints * 3)


def pad_virtual_joints(seq: MotionSequence, target_joints: int) -> MotionSequence:
    """Append all-zero virtual joints up to target_joints; native count is kept."""
    if not is_count(target_joints, seq.joints):
        raise DimensionError(f"cannot pad {seq.joints} joints to {target_joints}")
    if target_joints == seq.joints:
        return seq
    pad = np.zeros((seq.frames, target_joints - seq.joints, CHANNELS))
    padded = np.concatenate([seq.values.array, pad], axis=1)
    return MotionSequence(NdBuffer(padded), seq.modality, seq.native_joint_count, betas=seq.betas)


def canonical_tbody(frames: int, joints: int) -> MotionSequence:
    """Rest-pose anchor: zero rotations duplicated over all frames."""
    if not (is_count(frames) and is_count(joints)):
        raise DimensionError(f"canonical body needs positive extents, got F={frames}, J={joints}")
    return MotionSequence(NdBuffer(np.zeros((frames, joints, CHANNELS))), Modality.MESH, joints)


def _as_rng(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    if not is_count(rng_seed, 0):
        raise ConfigError(f"seed must be a numpy Generator or an integer >= 0, got {rng_seed!r}")
    return np.random.default_rng(rng_seed)


def make_time_mask(frames: int, ratio: float, rng_seed) -> np.ndarray:
    """Binary keep-mask over frames: exactly min(floor(ratio*F), F-2) zeros,
    drawn uniformly without replacement from the interior; the first and last
    frames are always kept."""
    if not is_count(frames, 2):
        raise DimensionError(f"time mask needs F >= 2, got F={frames}")
    if not is_real(ratio, 0.0, 1.0):
        raise DomainError(f"mask ratio must be in [0, 1], got {ratio}")
    zeros = min(int(np.floor(ratio * frames)), frames - 2)
    mask = np.ones(frames)
    if zeros > 0:
        interior = np.arange(1, frames - 1)
        picked = _as_rng(rng_seed).choice(interior, size=zeros, replace=False)
        mask[picked] = 0.0
    return mask


def make_joint_mask(joints: int, root_index: int, ratio: float, rng_seed,
                    native_joint_count: int | None = None) -> np.ndarray:
    """Binary keep-mask over joints: min(floor(ratio*J), J-1) zeros clamped to
    the eligible positions; the root joint is always kept and virtual joints
    are never selected when the native count is supplied."""
    if not is_count(joints):
        raise DimensionError(f"joint mask needs J >= 1, got J={joints}")
    if not (is_count(root_index, 0) and root_index < joints):
        raise DimensionError(f"root index {root_index} out of range for J={joints}")
    if not is_real(ratio, 0.0, 1.0):
        raise DomainError(f"mask ratio must be in [0, 1], got {ratio}")
    limit = joints if native_joint_count is None else native_joint_count
    if not (is_count(limit) and limit <= joints):
        raise DimensionError(f"native joint count {limit} out of range for J={joints}")
    eligible = np.array([j for j in range(limit) if j != root_index])
    zeros = min(int(np.floor(ratio * joints)), joints - 1, eligible.size)
    mask = np.ones(joints)
    if zeros > 0:
        picked = _as_rng(rng_seed).choice(eligible, size=zeros, replace=False)
        mask[picked] = 0.0
    return mask


@dataclass(frozen=True)
class DomainSpec:
    task_id: str
    display: str
    input_modality: Modality
    target_modality: Modality
    target_future: bool
    mask_kind: str | None  # "time", "joint", or None

    @property
    def mesh_output(self) -> bool:
        return self.target_modality is Modality.MESH


_ROWS = [
    DomainSpec("pe", "PE", Modality.POSE2D, Modality.POSE3D, False, None),
    DomainSpec("fpe", "FPE", Modality.POSE2D, Modality.POSE3D, True, None),
    DomainSpec("mr", "MR", Modality.POSE2D, Modality.MESH, False, None),
    DomainSpec("fmr", "FMR", Modality.POSE2D, Modality.MESH, True, None),
    DomainSpec("mp_p", "MP(P)", Modality.POSE3D, Modality.POSE3D, True, None),
    DomainSpec("mib_p", "MIB(P)", Modality.POSE3D, Modality.POSE3D, False, "time"),
    DomainSpec("jc_p", "JC(P)", Modality.POSE3D, Modality.POSE3D, False, "joint"),
    DomainSpec("mp_m", "MP(M)", Modality.MESH, Modality.MESH, True, None),
    DomainSpec("mib_m", "MIB(M)", Modality.MESH, Modality.MESH, False, "time"),
    DomainSpec("jc_m", "JC(M)", Modality.MESH, Modality.MESH, False, "joint"),
]
DOMAINS: dict[str, DomainSpec] = {row.task_id: row for row in _ROWS}
DOMAIN_ORDER: tuple[str, ...] = tuple(row.task_id for row in _ROWS)


def parse_domain(name: str) -> str:
    """Accept canonical ids (mp_p) or display names (MP(P)), case-insensitive."""
    if not isinstance(name, str):
        raise DomainError(f"task domain must be a string, got {reprlib.repr(name)}")
    key = name.strip().lower()
    if key in DOMAINS:
        return key
    for row in _ROWS:
        if key == row.display.lower():
            return row.task_id
    raise DomainError(f"unknown task domain {name!r}; known: {', '.join(DOMAIN_ORDER)}")


@dataclass(frozen=True)
class TaskSample:
    """One derived (query input, query target) pair for a task domain."""

    domain: str
    query_input: MotionSequence
    query_target: MotionSequence
    time_mask: np.ndarray | None
    joint_mask: np.ndarray | None

    def __post_init__(self):
        if self.time_mask is not None:
            object.__setattr__(self, "time_mask", _frozen(self.time_mask))
        if self.joint_mask is not None:
            object.__setattr__(self, "joint_mask", _frozen(self.joint_mask))
        if self.query_input.frames != self.query_target.frames:
            raise DimensionError("query input and target must span the same number of frames")

    @property
    def target_betas(self) -> np.ndarray:
        """The target's shape parameters; pose targets carry zero betas."""
        return self.query_target.betas


def _window(seq: MotionSequence, half: int, future: bool) -> MotionSequence:
    lo, hi = (half, 2 * half) if future else (0, half)
    view = seq.values.array[lo:hi]  # read-only, no copy
    return MotionSequence._trusted(view, seq.modality, seq.native_joint_count, seq.betas)


def _apply_mask(seq: MotionSequence, mask: np.ndarray, axis: int) -> MotionSequence:
    shape = [1, 1, 1]
    shape[axis] = mask.size
    return MotionSequence._trusted(seq.values.array * mask.reshape(shape), seq.modality,
                                   seq.native_joint_count, seq.betas)


def derive_task(clip: MotionClip, domain: str, rng_seed) -> TaskSample:
    """Build the domain's (input, target) pair from a 2F-frame clip.

    Masked domains draw a fresh MASK_RATIO mask from rng_seed and apply it to
    the input by elementwise product; the others leave rng_seed unused.
    """
    spec = DOMAINS.get(domain)
    if spec is None:
        raise DomainError(f"unknown task domain {domain!r}; known: {', '.join(DOMAIN_ORDER)}")
    half = clip.window
    query_input = _window(clip.sequence(spec.input_modality), half, future=False)
    query_target = _window(clip.sequence(spec.target_modality), half, spec.target_future)

    time_mask = joint_mask = None
    if spec.mask_kind == "time":
        time_mask = make_time_mask(half, MASK_RATIO, rng_seed)
        query_input = _apply_mask(query_input, time_mask, axis=0)
    elif spec.mask_kind == "joint":
        joint_mask = make_joint_mask(clip.joints, ROOT_JOINT, MASK_RATIO, rng_seed,
                                     native_joint_count=query_input.native_joint_count)
        query_input = _apply_mask(query_input, joint_mask, axis=1)

    return TaskSample(domain=spec.task_id, query_input=query_input, query_target=query_target,
                      time_mask=time_mask, joint_mask=joint_mask)
