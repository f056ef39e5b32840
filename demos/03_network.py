"""Poke the fusion network: forward pass, influence scores, gradient check.

Runs one query/prompt pair through a fresh two-layer net, shows the per-level
influence scores moving off their uniform start after a parameter nudge, and
finishes with a full central-difference gradient check.
"""

import time

import numpy as np

from motionctx import (NetConfig, SynthConfig, derive_task, forward, init_params,
                       make_dataset, run_gradient_check, soft_anchor_value)

CFG = NetConfig(frames=4, joints=5, hidden=8, layers=2)


def influence_summary(result):
    for layer, scores in enumerate(result.influence):
        for branch in ("q", "p"):
            s = scores[branch]
            means = s.raw_temporal.mean(axis=-3).mean(axis=0)
            print(f"  layer {layer} branch {branch}: mean temporal influence "
                  f"attention={means[0]:.3f} graph={means[1]:.3f} ssm={means[2]:.3f}")


def main():
    clips = make_dataset(SynthConfig(clips=2, frames=CFG.frames, joints=CFG.joints,
                                     native_pose_joints=CFG.joints - 1, clusters=2, seed=0))
    sample = derive_task(clips[0], "pe", 0)
    prompt = derive_task(clips[1], "pe", 1)
    params = init_params(CFG, 0)

    u = soft_anchor_value(np.zeros((CFG.frames, CFG.joints, 1)),
                          np.zeros((1, 1, CFG.hidden)))
    result = forward(sample.query_input, prompt.query_input, prompt.query_target,
                     u, params)
    print(f"prediction shape {result.prediction.shape}, "
          f"betas head {result.betas.shape}")
    print("fresh parameters weigh the three levels uniformly:")
    influence_summary(result)

    # nudging the shared compression map breaks the tie
    params.replace("layer0.compress.w",
                   np.random.default_rng(1).normal(size=params["layer0.compress.w"].shape))
    result = forward(sample.query_input, prompt.query_input, prompt.query_target,
                     u, params)
    print("after nudging one compression map:")
    influence_summary(result)

    print("\ngradient check over every parameter (central differences):")
    t0 = time.time()
    report = run_gradient_check(CFG, 0)
    print(f"  max relative error {report.max_rel_err:.3e} at {report.worst_param!r} "
          f"({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
