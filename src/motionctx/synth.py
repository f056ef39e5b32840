"""Deterministic synthetic motion corpora.

Clips are smooth sinusoidal joint trajectories drawn around per-cluster base
parameters, so a corpus forms planted clusters in the motion similarity
space; a configurable number of trailing clips get independent large
amplitude parameters and act as isolated outliers. Every clip carries all
three modalities: 3D poses, their exact orthographic projection onto the
xy-plane as the 2D poses, and mesh rotation parameters with shape
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .motion import (SHAPE_PARAMS, MotionClip, is_count, is_real, pad_virtual_joints,
                     reorganize_mesh_params, unify_pose2d, unify_pose3d)


@dataclass(frozen=True)
class SynthConfig:
    clips: int = 16
    frames: int = 8            # half-window F; stored clips span 2F frames
    joints: int = 6            # unified joint count J
    native_pose_joints: int = 5
    clusters: int = 2
    outliers: int = 0
    seed: int = 0
    amplitude: float = 0.1
    cluster_spread: float = 0.05
    beta_scale: float = 0.2

    def __post_init__(self):
        checks = [
            ("clips", is_count(self.clips)),
            ("frames", is_count(self.frames)),
            ("joints", is_count(self.joints)),
            ("native_pose_joints", is_count(self.native_pose_joints)
             and self.native_pose_joints <= self.joints),
            ("clusters", is_count(self.clusters) and self.clusters <= self.clips),
            ("outliers", is_count(self.outliers, 0) and self.outliers <= self.clips),
            ("seed", is_count(self.seed, 0)),
            ("amplitude", is_real(self.amplitude, open_low=True)),
            ("cluster_spread", is_real(self.cluster_spread)),
            ("beta_scale", is_real(self.beta_scale)),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid synth config field {name!r}: {getattr(self, name)}")


def _sinusoid(rng, base, spread, frames, joints, amplitude):
    """(2F, joints, 3) trajectory from jittered per-joint sinusoid parameters."""
    freq = base["freq"] + rng.normal(scale=spread, size=(joints, 3))
    phase = base["phase"] + rng.normal(scale=spread, size=(joints, 3))
    center = base["center"] + rng.normal(scale=spread * amplitude, size=(joints, 3))
    amp = base["amp"] * (1.0 + rng.normal(scale=spread, size=(joints, 3)))
    t = np.arange(2 * frames)[:, None, None] / (2 * frames)
    return center + amp * np.sin(2.0 * np.pi * freq * t + phase)


def _cluster_base(rng, joints, amplitude, wild=False):
    scale = 8.0 if wild else 1.0
    return {
        "freq": rng.uniform(0.5, 2.0, size=(joints, 3)),
        "phase": rng.uniform(0.0, 2.0 * np.pi, size=(joints, 3)),
        "center": rng.normal(scale=amplitude * scale, size=(joints, 3)),
        "amp": rng.uniform(0.5, 1.0, size=(joints, 3)) * amplitude * scale,
    }


def make_dataset(cfg: SynthConfig) -> list[MotionClip]:
    """Deterministic clip list; same config gives bitwise-identical values."""
    rng = np.random.default_rng(cfg.seed)
    pose_bases = [_cluster_base(rng, cfg.native_pose_joints, cfg.amplitude)
                  for _ in range(cfg.clusters)]
    mesh_bases = [_cluster_base(rng, cfg.joints, cfg.amplitude) for _ in range(cfg.clusters)]
    betas = [rng.normal(scale=cfg.beta_scale, size=SHAPE_PARAMS) for _ in range(cfg.clusters)]

    clips = []
    regular = cfg.clips - cfg.outliers
    for i in range(cfg.clips):
        if i < regular:
            c = i % cfg.clusters
            pose_base, mesh_base = pose_bases[c], mesh_bases[c]
            beta = betas[c] + rng.normal(scale=cfg.cluster_spread * cfg.beta_scale, size=SHAPE_PARAMS)
        else:
            pose_base = _cluster_base(rng, cfg.native_pose_joints, cfg.amplitude, wild=True)
            mesh_base = _cluster_base(rng, cfg.joints, cfg.amplitude, wild=True)
            beta = rng.normal(scale=cfg.beta_scale, size=SHAPE_PARAMS)
        p3 = _sinusoid(rng, pose_base, cfg.cluster_spread, cfg.frames,
                       cfg.native_pose_joints, cfg.amplitude)
        rot = _sinusoid(rng, mesh_base, cfg.cluster_spread, cfg.frames, cfg.joints, cfg.amplitude)
        pose3d = pad_virtual_joints(unify_pose3d(p3), cfg.joints)
        pose2d = pad_virtual_joints(unify_pose2d(p3[:, :, :2]), cfg.joints)
        mesh = reorganize_mesh_params(rot.reshape(2 * cfg.frames, 3 * cfg.joints), beta)
        clips.append(MotionClip(pose2d, pose3d, mesh, clip_id=f"clip{i:04d}", source="synth"))
    return clips
