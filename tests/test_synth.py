"""Synthetic corpus generation: determinism, projection, planted structure."""

import numpy as np
import pytest

from motionctx.errors import ConfigError
from motionctx.motion import Modality
from motionctx.prompting import similarity
from motionctx.synth import SynthConfig, make_dataset


def test_dataset_is_deterministic():
    cfg = SynthConfig(clips=6, frames=4, joints=5, native_pose_joints=4, seed=3)
    a = make_dataset(cfg)
    b = make_dataset(cfg)
    assert len(a) == len(b) == 6
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.pose2d.values.array, cb.pose2d.values.array)
        assert np.array_equal(ca.pose3d.values.array, cb.pose3d.values.array)
        assert np.array_equal(ca.mesh.values.array, cb.mesh.values.array)
        assert np.array_equal(ca.mesh.betas, cb.mesh.betas)


def test_different_seed_changes_values():
    a = make_dataset(SynthConfig(clips=2, frames=4, joints=5, native_pose_joints=4, seed=0))
    b = make_dataset(SynthConfig(clips=2, frames=4, joints=5, native_pose_joints=4, seed=1))
    assert not np.array_equal(a[0].pose3d.values.array, b[0].pose3d.values.array)


def test_pose2d_is_exact_projection():
    for clip in make_dataset(SynthConfig(clips=4, frames=4, joints=6, native_pose_joints=4)):
        p2 = clip.pose2d.values.array
        p3 = clip.pose3d.values.array
        n = clip.pose2d.native_joint_count
        assert np.array_equal(p2[:, :n, :2], p3[:, :n, :2])
        assert np.all(p2[:, :, 2] == 0.0)
        # virtual joints stay zero in every modality
        assert np.all(p2[:, n:, :] == 0.0)
        assert np.all(p3[:, n:, :] == 0.0)


def test_shapes_and_metadata():
    cfg = SynthConfig(clips=5, frames=3, joints=7, native_pose_joints=4, seed=9)
    clips = make_dataset(cfg)
    assert len(clips) == 5
    for i, clip in enumerate(clips):
        assert clip.window == 3
        assert clip.joints == 7
        assert clip.pose3d.values.shape == (6, 7, 3)
        assert clip.pose2d.native_joint_count == 4
        assert clip.pose3d.native_joint_count == 4
        assert clip.mesh.native_joint_count == 7
        assert clip.mesh.modality is Modality.MESH
        assert clip.mesh.betas.shape == (10,)
        assert np.all(clip.pose3d.betas == 0.0)
        assert clip.clip_id == f"clip{i:04d}"
        assert clip.source == "synth"


def test_planted_clusters_are_tighter_within_than_across():
    cfg = SynthConfig(clips=8, frames=8, joints=6, native_pose_joints=5,
                      clusters=2, cluster_spread=0.02, seed=11)
    clips = make_dataset(cfg)
    seqs = [c.pose3d for c in clips]
    # assignment alternates: even indices cluster 0, odd indices cluster 1
    within = [similarity(seqs[0], seqs[2]), similarity(seqs[1], seqs[3]),
              similarity(seqs[2], seqs[4]), similarity(seqs[3], seqs[5])]
    across = [similarity(seqs[0], seqs[1]), similarity(seqs[2], seqs[3]),
              similarity(seqs[4], seqs[5])]
    assert min(within) > max(across)


def test_outlier_clips_are_far_from_regular_ones():
    cfg = SynthConfig(clips=8, frames=8, joints=6, native_pose_joints=5,
                      clusters=2, outliers=2, seed=5)
    clips = make_dataset(cfg)
    regular, outliers = clips[:6], clips[6:]
    reg_sims = [similarity(regular[0].pose3d, regular[2].pose3d)]
    out_sims = [similarity(o.pose3d, r.pose3d) for o in outliers for r in regular]
    # every outlier is farther from every regular clip than same-cluster pairs are
    assert max(out_sims) < min(reg_sims)


def test_cluster_betas_shared_within_cluster():
    cfg = SynthConfig(clips=6, frames=4, joints=5, native_pose_joints=4,
                      clusters=2, cluster_spread=0.01, beta_scale=0.5, seed=2)
    clips = make_dataset(cfg)
    same = np.abs(clips[0].mesh.betas - clips[2].mesh.betas).mean()
    diff = np.abs(clips[0].mesh.betas - clips[1].mesh.betas).mean()
    assert same < diff


@pytest.mark.parametrize("field,value", [
    ("clips", 0),
    ("frames", 0),
    ("joints", 0),
    ("native_pose_joints", 9),
    ("clusters", 0),
    ("outliers", -1),
    ("amplitude", 0.0),
    ("cluster_spread", -0.1),
    ("beta_scale", -1.0),
    ("amplitude", float("inf")),
    ("cluster_spread", float("inf")),
    ("beta_scale", float("inf")),
    ("clips", 2.5),
    ("outliers", True),
    ("seed", 2.5),
    ("seed", True),
    ("seed", -1),
    ("amplitude", "x"),
    ("amplitude", True),
    ("cluster_spread", None),
    ("beta_scale", "x"),
    ("amplitude", 10 ** 400),
])
def test_config_validation_names_the_field(field, value):
    kwargs = {"clips": 4, "frames": 4, "joints": 6, "native_pose_joints": 5}
    kwargs[field] = value
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**kwargs)
