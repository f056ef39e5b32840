"""Shared test builders."""

import functools
import types

import numpy as np

from motionctx import nd, prompting
from motionctx.motion import (MotionClip, pad_virtual_joints, reorganize_mesh_params,
                              unify_pose2d, unify_pose3d)
from motionctx.nd import NdBuffer
from motionctx.network import SOFT_TABLES, forward, loss


def tape_holdings(records) -> list:
    """Every object the tape records `records` keep alive, each once: the
    records, their keys and backward closures, and whatever those reach
    through closure cells, default arguments, partials, containers and
    buffers. Module globals and builtins are not followed."""
    seen, found, todo = set(), [], list(records)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, functools.partial):
            todo += [obj.func, *obj.args, *obj.keywords.values()]
        elif isinstance(obj, types.FunctionType):
            todo += [*(obj.__defaults__ or ()), *(obj.__kwdefaults__ or {}).values()]
            for cell in obj.__closure__ or ():
                try:
                    todo.append(cell.cell_contents)
                except ValueError:  # a cell not yet bound
                    pass
        elif isinstance(obj, NdBuffer):
            todo.append(obj.array)
    return found


def memory_blocks(objects) -> dict:
    """id -> array for each distinct memory block under the arrays among
    `objects`: a view counts as the array that owns its data."""
    blocks = {}
    for obj in objects:
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            blocks[id(obj)] = obj
    return blocks


def loaded_sequences(kind: str, loaded) -> list:
    """Every motion sequence a `fileio.load_<kind>` result holds, in file order."""
    if kind == "dataset":
        return [s for clip in loaded for s in (clip.pose2d, clip.pose3d, clip.mesh)]
    if kind == "anchors":
        return [s for a in loaded[0].anchors for s in (a.input, a.target)]
    return []


def query_similarities(queries: list, anchors) -> np.ndarray:
    """(Q, A) similarities of each query input to every anchor input, in one
    blocked pass: the full scan that pruned retrieval is checked against."""
    return prompting._sims_to_many(anchors.stacked_inputs(),
                                   prompting._query_block(queries, anchors))


def pick_anchors(sims: np.ndarray, anchors, domain_filter) -> np.ndarray:
    """Index of the most similar anchor along the last axis of (A,) or (Q, A)
    full-scan similarities, lowest on ties. domain_filter restricts candidates
    to anchors of one task domain while keeping original indices; None lets
    all anchors compete."""
    candidates = prompting._candidates(anchors, domain_filter)
    if candidates is None:
        return sims.argmax(axis=-1)  # argmax returns the first maximum
    return candidates[sims[..., candidates].argmax(axis=-1)]


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
                                lambda x, y, o: (lambda g: g / y, lambda g: -g * o / y))


def exp(a: NdBuffer) -> NdBuffer:
    out = np.exp(a.array)
    return nd._emit("exp", out, lambda g, key=a.key: [(key, g * out)])


def softmax_lastdim(a: NdBuffer) -> NdBuffer:
    """Max-shifted softmax over the last axis."""
    out = nd._softmax(a.array)
    return nd._emit("softmax_lastdim", out,
                    lambda g, key=a.key: [(key, nd._softmax_back(out, g))])


def swap_last2(a: NdBuffer) -> NdBuffer:
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return nd.transpose(a, axes)


def take_axis(a: NdBuffer, index: int, axis: int) -> NdBuffer:
    """a[..., index, ...] along `axis`, the axis dropped."""
    ax = axis % a.ndim
    return nd.reshape(nd.slice_axis(a, ax, index, index + 1), a.shape[:ax] + a.shape[ax + 1:])


def stack(parts, axis: int) -> NdBuffer:
    """Equal-shape parts joined along a new axis: `nd.concat` of the parts
    each given a unit axis there, which is also how `np.stack` builds its value."""
    ax = axis % (parts[0].ndim + 1)
    return nd.concat([nd.reshape(p, p.shape[:ax] + (1,) + p.shape[ax:]) for p in parts], ax)


def soft_pair(params, index: int) -> tuple[NdBuffer, NdBuffer]:
    """Anchor `index`'s soft factors (w1, w2): row `index` of each soft table,
    read on the tape, so a pass through them reaches the tables' gradients."""
    return tuple(take_axis(params[name], index, axis=0) for name in SOFT_TABLES)


def unbatched_objective(sample, prompt, params) -> NdBuffer:
    """One sample's loss as the gradient check assembled it before it scored
    through `training.objective`: the soft tables' one row by `nd.reshape`,
    then the unbatched `forward`, then the one-sample `loss`."""
    u = prompting.soft_anchor_value(*(nd.reshape(params[name], params[name].shape[1:])
                                      for name in SOFT_TABLES))
    result = forward(sample.query_input, prompt.hard_input.values, prompt.hard_target.values,
                     u, params)
    return loss(result.prediction, result.betas, sample)[0]
