"""Shared test builders."""

import numpy as np

from motionctx import nd
from motionctx.motion import (MotionClip, pad_virtual_joints, reorganize_mesh_params,
                              unify_pose2d, unify_pose3d)
from motionctx.nd import NdBuffer


def make_clip(half=4, joints=6, native_pose=4, seed=0, clip_id="c0"):
    """Random synchronized clip: 2F frames, pose joints padded to `joints`."""
    rng = np.random.default_rng(seed)
    p3 = rng.normal(size=(2 * half, native_pose, 3))
    pose3d = pad_virtual_joints(unify_pose3d(p3), joints)
    pose2d = pad_virtual_joints(unify_pose2d(p3[:, :, :2]), joints)
    mesh = reorganize_mesh_params(rng.normal(size=(2 * half, 3 * joints)),
                                  rng.normal(size=10) * 0.5)
    return MotionClip(pose2d, pose3d, mesh, clip_id=clip_id, source="test")


# Taped ops only tests use, built on the library's own ops and tape: the
# composite chains that fused ops are checked against, and a few reference
# loops. `div`, `exp` and `softmax_lastdim` repeat the library's elementwise
# arithmetic (softmax through nd._softmax, as the fused ops do), so the
# composites' forwards stay bitwise comparable.

def div(a, b) -> NdBuffer:
    return nd._elementwise_pair("div", a, b, lambda x, y: x / y,
                                lambda g, x, y, o: g / y, lambda g, x, y, o: -g * o / y)


def exp(a: NdBuffer) -> NdBuffer:
    out = np.exp(a.array)
    return nd._emit("exp", out, lambda g: [(a, g * out)])


def softmax_lastdim(a: NdBuffer) -> NdBuffer:
    """Max-shifted softmax over the last axis."""
    out = nd._softmax(a.array)
    return nd._emit("softmax_lastdim", out, lambda g: [(a, nd._softmax_back(out, g))])


def swap_last2(a: NdBuffer) -> NdBuffer:
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return nd.transpose(a, axes)


def take_axis(a: NdBuffer, index: int, axis: int) -> NdBuffer:
    """a[..., index, ...] along `axis`, the axis dropped."""
    ax = axis % a.ndim
    return nd.reshape(nd.slice_axis(a, ax, index, index + 1), a.shape[:ax] + a.shape[ax + 1:])
