"""Unified motion representation, masks, and task derivation."""

import numpy as np
import pytest

from helpers import make_clip
from motionctx.errors import DimensionError, DomainError
from motionctx.motion import (DOMAIN_ORDER, DOMAINS, Modality, MotionClip, MotionSequence,
                              canonical_tbody, derive_task, flatten_mesh_params,
                              make_joint_mask, make_time_mask, pad_virtual_joints,
                              parse_domain, reorganize_mesh_params, unify_pose2d,
                              unify_pose3d)
from motionctx.nd import NdBuffer
from motionctx.training import derive_seed


def test_unify_pose2d_appends_zero_z():
    seq = unify_pose2d([[(1.0, 2.0)]])
    assert seq.values.array.tolist() == [[[1.0, 2.0, 0.0]]]
    assert seq.modality is Modality.POSE2D

    zero = unify_pose2d(np.zeros((2, 3, 2)))
    assert np.all(zero.values.array == 0.0)

    rand = unify_pose2d(np.random.default_rng(0).normal(size=(2, 3, 2)))
    assert rand.values.shape == (2, 3, 3)
    assert np.all(rand.values.array[:, :, 2] == 0.0)


def test_unify_pose2d_rejects_empty():
    with pytest.raises(DimensionError):
        unify_pose2d(np.zeros((0, 3, 2)))


def test_reorganize_mesh_params_groups_triplets():
    seq = reorganize_mesh_params([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]], np.zeros(10))
    assert seq.values.array.tolist() == [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]

    frame = np.random.default_rng(1).normal(size=(1, 72))
    smpl = reorganize_mesh_params(frame, np.zeros(10))
    assert smpl.values.shape == (1, 24, 3)
    assert np.array_equal(flatten_mesh_params(smpl), frame)

    with pytest.raises(DimensionError):
        reorganize_mesh_params(np.zeros((1, 7)), np.zeros(10))


def test_pad_virtual_joints():
    seq = unify_pose3d(np.random.default_rng(2).normal(size=(3, 17, 3)))
    padded = pad_virtual_joints(seq, 24)
    assert padded.values.shape == (3, 24, 3)
    assert padded.native_joint_count == 17
    assert np.all(padded.values.array[:, 17:, :] == 0.0)
    # per-joint sums over native joints are untouched by padding
    native_sum = seq.values.array.sum(axis=(0, 2))
    assert np.array_equal(padded.values.array.sum(axis=(0, 2))[:17], native_sum)

    assert pad_virtual_joints(seq, 17) is seq
    with pytest.raises(DimensionError):
        pad_virtual_joints(seq, 10)


def test_sequence_invariants_enforced():
    with pytest.raises(DimensionError):
        MotionSequence(NdBuffer(np.ones((2, 2, 3))), Modality.POSE2D, 2)  # nonzero z
    with pytest.raises(DimensionError):
        MotionSequence(NdBuffer(np.zeros((2, 2, 3))), Modality.POSE3D, 2, betas=np.ones(10))
    bad_virtual = np.ones((2, 3, 3))
    with pytest.raises(DimensionError):
        MotionSequence(NdBuffer(bad_virtual), Modality.POSE3D, 2)
    with pytest.raises(DimensionError):
        MotionSequence(NdBuffer(np.zeros((2, 2, 2))), Modality.POSE3D, 2)


@pytest.mark.parametrize("native", [0, 4, -1, 2.5, True])
def test_native_joint_count_is_a_count_within_the_joints(native):
    with pytest.raises(DimensionError, match=f"native_joint_count {native} out of range for J=3"):
        MotionSequence(NdBuffer(np.zeros((2, 3, 3))), Modality.POSE3D, native)
    # A numpy integer is taken and kept as an int, which file manifests can hold.
    seq = MotionSequence(NdBuffer(np.zeros((2, 3, 3))), Modality.POSE3D, np.int64(3))
    assert seq.native_joint_count == 3 and type(seq.native_joint_count) is int


def test_canonical_tbody_is_zero_mesh():
    t = canonical_tbody(1, 1)
    assert t.values.array.tolist() == [[[0.0, 0.0, 0.0]]]
    assert t.modality is Modality.MESH
    assert np.all(t.betas == 0.0)
    assert np.all(canonical_tbody(4, 6).values.array == 0.0)


def test_time_mask_counts_and_pinned_frames():
    for seed in range(1000):
        mask = make_time_mask(16, 0.4, seed)
        assert mask.shape == (16,)
        assert int((mask == 0.0).sum()) == 6
        assert mask[0] == 1.0 and mask[15] == 1.0
    assert np.all(make_time_mask(16, 0.0, 0) == 1.0)
    assert make_time_mask(3, 0.9, 5).tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(DimensionError):
        make_time_mask(1, 0.4, 0)


def test_joint_mask_counts_root_and_native_eligibility():
    for seed in range(200):
        mask = make_joint_mask(24, 1, 0.4, seed)
        assert int((mask == 0.0).sum()) == 9
        assert mask[1] == 1.0
    assert np.all(make_joint_mask(24, 0, 0.0, 0) == 1.0)
    assert make_joint_mask(2, 0, 1.0, 0).tolist() == [1.0, 0.0]
    for seed in range(200):
        mask = make_joint_mask(24, 0, 0.4, seed, native_joint_count=10)
        assert np.all(mask[10:] == 1.0)
        assert mask[0] == 1.0
    with pytest.raises(DimensionError, match="root index 9"):
        make_joint_mask(4, 9, 0.4, 0)


def test_clip_member_agreement_enforced():
    clip = make_clip()
    two = unify_pose2d(np.zeros((8, 3, 2)))
    with pytest.raises(DimensionError):
        MotionClip(two, clip.pose3d, clip.mesh)
    odd3 = unify_pose3d(np.zeros((3, 6, 3)))
    odd2 = unify_pose2d(np.zeros((3, 6, 2)))
    oddm = reorganize_mesh_params(np.zeros((3, 18)), np.zeros(10))
    with pytest.raises(DimensionError):
        MotionClip(odd2, odd3, oddm)


@pytest.mark.parametrize("domain", DOMAIN_ORDER)
def test_derive_task_windows_and_modalities(domain):
    clip = make_clip(half=4, joints=6, native_pose=4, seed=3)
    spec = DOMAINS[domain]
    sample = derive_task(clip, domain, rng_seed=11)
    half = clip.window

    assert sample.query_input.values.shape == (half, clip.joints, 3)
    assert sample.query_target.values.shape == (half, clip.joints, 3)
    assert sample.query_input.modality is spec.input_modality
    assert sample.query_target.modality is spec.target_modality

    src_in = clip.sequence(spec.input_modality).values.array[:half]
    lo, hi = (half, 2 * half) if spec.target_future else (0, half)
    src_tgt = clip.sequence(spec.target_modality).values.array[lo:hi]
    assert np.array_equal(sample.query_target.values.array, src_tgt)

    if spec.mask_kind is None:
        assert sample.time_mask is None and sample.joint_mask is None
        assert np.array_equal(sample.query_input.values.array, src_in)
    elif spec.mask_kind == "time":
        mask = sample.time_mask
        assert mask is not None and mask[0] == 1.0 and mask[-1] == 1.0
        assert np.all(sample.query_input.values.array[mask == 0.0] == 0.0)
        assert np.array_equal(sample.query_input.values.array[mask == 1.0], src_in[mask == 1.0])
    else:
        mask = sample.joint_mask
        assert mask is not None and mask[0] == 1.0
        assert np.all(sample.query_input.values.array[:, mask == 0.0, :] == 0.0)
        assert np.array_equal(sample.query_input.values.array[:, mask == 1.0, :], src_in[:, mask == 1.0, :])

    if spec.mesh_output:
        assert np.array_equal(sample.target_betas, clip.mesh.betas)
        assert np.any(sample.target_betas != 0.0)
    else:
        assert np.all(sample.target_betas == 0.0)


def test_derive_task_future_windows_differ_from_past():
    clip = make_clip(half=4, seed=9)
    mp = derive_task(clip, "mp_p", 0)
    assert not np.array_equal(mp.query_input.values.array, mp.query_target.values.array)
    fpe = derive_task(clip, "fpe", 0)
    future = clip.pose3d.values.array[4:8]
    assert np.array_equal(fpe.query_target.values.array, future)


def test_derive_task_is_deterministic_per_seed():
    clip = make_clip(seed=5)
    a = derive_task(clip, "mib_m", 42)
    b = derive_task(clip, "mib_m", 42)
    assert np.array_equal(a.query_input.values.array, b.query_input.values.array)
    assert np.array_equal(a.time_mask, b.time_mask)
    c = derive_task(clip, "mib_m", 43)
    assert not np.array_equal(a.time_mask, c.time_mask) or True  # seeds may rarely collide


def test_derive_task_unknown_domain():
    with pytest.raises(DomainError):
        derive_task(make_clip(), "walk", 0)


JUNK = {
    "time mask frames str": (lambda: make_time_mask("x", 0.4, 0), DimensionError),
    "time mask frames float": (lambda: make_time_mask(6.0, 0.4, 0), DimensionError),
    "time mask ratio str": (lambda: make_time_mask(6, "x", 0), DomainError),
    "joint mask joints str": (lambda: make_joint_mask("x", 0, 0.4, 0), DimensionError),
    "joint mask root str": (lambda: make_joint_mask(6, "x", 0.4, 0), DimensionError),
    "joint mask ratio str": (lambda: make_joint_mask(6, 0, "x", 0), DomainError),
    "joint mask native str": (lambda: make_joint_mask(6, 0, 0.4, 0, native_joint_count="x"),
                              DimensionError),
    "tbody frames float": (lambda: canonical_tbody(2.0, 3), DimensionError),
    "pad target str": (lambda: pad_virtual_joints(make_clip().pose3d, "x"), DimensionError),
    "pose3d str": (lambda: unify_pose3d("x"), DimensionError),
    "parse_domain int": (lambda: parse_domain(5), DomainError),
    "derive_seed domain int": (lambda: derive_seed(0, 0, 5), DomainError),
    "derive_seed clip str": (lambda: derive_seed(0, "x", "pe"), DimensionError),
    "derive_seed clip float": (lambda: derive_seed(0, 2.5, "pe"), DimensionError),
}


@pytest.mark.parametrize("call,error", JUNK.values(), ids=JUNK)
def test_motion_helpers_reject_junk_extents_and_ids_typed(call, error):
    with pytest.raises(error):
        call()


def test_parse_domain_accepts_display_names():
    assert parse_domain("MP(P)") == "mp_p"
    assert parse_domain("jc(m)") == "jc_m"
    assert parse_domain("pe") == "pe"
    with pytest.raises(DomainError):
        parse_domain("nope")
