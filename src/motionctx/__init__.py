"""Desk-scale in-context 3D human motion toolkit.

Unified cross-modal motion sequences, task derivation across ten estimation
and completion domains, max-min prompt sampling with similarity retrieval,
a multi-level fusion network with a verified gradient tape, a toy training
loop, and binary persistence for datasets, anchors, and checkpoints.
"""

from .errors import (ConfigError, DimensionError, DomainError, FormatError,
                     MotionCtxError, NumericError, StateError)
from .nd import NdBuffer, Tape, grad_check
from .motion import (CHANNELS, DOMAIN_ORDER, DOMAINS, MASK_RATIO, ROOT_JOINT,
                     SHAPE_PARAMS, DomainSpec, Modality, MotionClip, MotionSequence,
                     TaskSample, canonical_tbody, derive_task, flatten_mesh_params,
                     make_joint_mask, make_time_mask, pad_virtual_joints, parse_domain,
                     reorganize_mesh_params, unify_pose2d, unify_pose3d)
from .prompting import (Anchor, AnchorSet, RetrievedPrompt, cluster_sample,
                        corpus_fingerprint, coverage, random_sample, retrieve_prompt,
                        similarity, soft_anchor_value, sps_sample)
from .network import (LEVELS, SMPL_PARENTS, VIEWS, ForwardResult, InfluenceScores,
                      LossWeights, NetConfig, XFusionParams, aggregate_level,
                      context_inject, cross_level_update, encode_context, forward,
                      init_params, loss, mean_param_error, mpjpe, path_adjacency,
                      skeleton_adjacency, xfusion_block)
from .synth import SynthConfig, make_dataset
from .training import (AdamWState, TrainConfig, anchor_corpus, build_batch, derive_seed,
                       evaluate, lr_at_epoch, train, train_step)
from .fileio import (load_anchors, load_checkpoint, load_config, load_dataset,
                     read_file, save_anchors, save_checkpoint, save_dataset, write_file)
from .cli import GRADCHECK_THRESHOLD, main, run_gradient_check

__all__ = [
    "ConfigError", "DimensionError", "DomainError", "FormatError",
    "MotionCtxError", "NumericError", "StateError",
    "NdBuffer", "Tape", "grad_check",
    "CHANNELS", "DOMAIN_ORDER", "DOMAINS", "MASK_RATIO", "ROOT_JOINT",
    "SHAPE_PARAMS", "DomainSpec", "Modality", "MotionClip", "MotionSequence",
    "TaskSample", "canonical_tbody", "derive_task", "flatten_mesh_params",
    "make_joint_mask", "make_time_mask", "pad_virtual_joints", "parse_domain",
    "reorganize_mesh_params", "unify_pose2d", "unify_pose3d",
    "Anchor", "AnchorSet", "RetrievedPrompt", "cluster_sample", "corpus_fingerprint",
    "coverage", "random_sample", "retrieve_prompt", "similarity",
    "soft_anchor_value", "sps_sample",
    "LEVELS", "SMPL_PARENTS", "VIEWS", "ForwardResult", "InfluenceScores",
    "LossWeights", "NetConfig", "XFusionParams", "aggregate_level", "context_inject",
    "cross_level_update", "encode_context", "forward", "init_params", "loss",
    "mean_param_error", "mpjpe", "path_adjacency", "skeleton_adjacency",
    "xfusion_block",
    "SynthConfig", "make_dataset",
    "AdamWState", "TrainConfig", "anchor_corpus", "build_batch", "derive_seed",
    "evaluate", "lr_at_epoch", "train", "train_step",
    "load_anchors", "load_checkpoint", "load_config", "load_dataset", "read_file",
    "save_anchors", "save_checkpoint", "save_dataset", "write_file",
    "GRADCHECK_THRESHOLD", "main", "run_gradient_check",
]
