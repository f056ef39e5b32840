"""Command-line surface: synth, sample-anchors, retrieve, derive, train, eval,
gradcheck.

Every command is deterministic under a fixed seed. Option precedence is
built-in defaults, then a flat JSON config file (--config), then explicit
flags. Exit codes group failures by class: 1 for configuration, domain,
state, or shape errors; 2 for I/O and file-format errors; 3 for numeric
failures (non-finite values, gradient-check rejection).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio, nd
from .errors import (ConfigError, DimensionError, DomainError, FormatError, NumericError,
                     StateError)
from .motion import (DEFAULT_MASK_RATIO, DOMAIN_ORDER, DOMAINS, derive_task, parse_domain)
from .network import LossWeights, NetConfig, XFusionParams, forward, init_params, loss
from .prompting import (DEFAULT_ANCHOR_COUNT, DEFAULT_HIDDEN, cluster_sample,
                        corpus_fingerprint, random_sample, retrieve_prompt, similarity,
                        soft_anchor_value, sps_sample)
from .synth import SynthConfig, make_dataset
from .training import TrainConfig, anchor_corpus, derive_seed, evaluate, train

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    """Usage problems are configuration errors, not a hard process abort."""

    def error(self, message):
        raise ConfigError(message)


def _parse_domains(text: str) -> tuple[str, ...]:
    names = tuple(parse_domain(part) for part in text.split(",") if part.strip())
    if not names:
        raise ConfigError(f"no task domains in {text!r}")
    return names


def _merge(defaults: dict, config_path: str | None, flags: dict) -> dict:
    """defaults < config file < explicit flags; unknown file keys are rejected."""
    merged = dict(defaults)
    if config_path is not None:
        for key, value in fileio.load_config(config_path).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}; known: {sorted(defaults)}")
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")


def cmd_synth(args) -> int:
    defaults = {"clips": 16, "frames": 8, "joints": 6, "native_pose_joints": 5,
                "clusters": 2, "outliers": 0, "seed": 0, "amplitude": 0.1,
                "cluster_spread": 0.05, "beta_scale": 0.2}
    cfg = SynthConfig(**_merge(defaults, args.config, {"seed": args.seed}))
    _require(args, "out")
    clips = make_dataset(cfg)
    fileio.save_dataset(args.out, clips)
    print(f"wrote {cfg.clips} clips (F={cfg.frames}, J={cfg.joints}) to {args.out} "
          f"({os.path.getsize(args.out)} bytes)")
    return 0


def _sampling_meta(domains, seed, mask_ratio):
    return {"domains": list(domains), "corpus_seed": seed, "mask_ratio": mask_ratio}


def cmd_sample_anchors(args) -> int:
    _require(args, "dataset", "out")
    defaults = {"seed": 0, "k": DEFAULT_ANCHOR_COUNT, "method": "sps",
                "hidden": DEFAULT_HIDDEN, "mask_ratio": DEFAULT_MASK_RATIO,
                "domains": ",".join(DOMAIN_ORDER)}
    cfg = _merge(defaults, args.config,
                 {"seed": args.seed, "k": args.k, "method": args.method,
                  "domains": args.domains})
    domains = cfg["domains"] if isinstance(cfg["domains"], (tuple, list)) \
        else _parse_domains(cfg["domains"])
    clips = fileio.load_dataset(args.dataset)
    corpus = anchor_corpus(clips, domains=tuple(domains), seed=cfg["seed"],
                           mask_ratio=cfg["mask_ratio"])
    if cfg["method"] == "sps":
        anchors = sps_sample(corpus, cfg["k"], hidden_dim=cfg["hidden"])
        for step, value in enumerate(anchors.selection_trace, start=1):
            picked = anchors.anchors[step]
            print(f"step {step}: corpus index {picked.source_index} "
                  f"(domain {picked.domain}, max-min {value:.6f})")
    elif cfg["method"] == "random":
        anchors = random_sample(corpus, cfg["k"], cfg["seed"], hidden_dim=cfg["hidden"])
    elif cfg["method"] == "cluster":
        anchors = cluster_sample(corpus, cfg["k"], cfg["seed"], hidden_dim=cfg["hidden"])
    else:
        raise ConfigError(f"unknown sampling method {cfg['method']!r}; "
                          f"choose sps, random, or cluster")
    fileio.save_anchors(args.out, anchors,
                        meta=_sampling_meta(domains, cfg["seed"], cfg["mask_ratio"]))
    print(f"wrote {len(anchors)} anchors (method {anchors.method}, K={anchors.k_requested}) "
          f"to {args.out}")
    return 0


def _check_fingerprint(anchors, meta, dataset_path):
    """Anchor files remember their corpus recipe; a mismatch warns, not fails."""
    if not meta or "domains" not in meta:
        return
    clips = fileio.load_dataset(dataset_path)
    corpus = anchor_corpus(clips, domains=tuple(meta["domains"]), seed=meta["corpus_seed"],
                           mask_ratio=meta.get("mask_ratio", DEFAULT_MASK_RATIO))
    if corpus_fingerprint(corpus) != anchors.fingerprint:
        print("warning: anchor fingerprint does not match the dataset's corpus; "
              "retrieval proceeds on the stored anchors", file=sys.stderr)


def cmd_retrieve(args) -> int:
    _require(args, "anchors", "dataset")
    anchors, meta = fileio.load_anchors(args.anchors)
    _check_fingerprint(anchors, meta, args.dataset)
    clips = fileio.load_dataset(args.dataset)
    if not 0 <= args.clip < len(clips):
        raise ConfigError(f"--clip {args.clip} out of range for {len(clips)} clips")
    domain = _parse_domains(args.domains)[0] if args.domains else "pe"
    sample = derive_task(clips[args.clip], domain, derive_seed(args.seed or 0, args.clip, domain))
    prompt = retrieve_prompt(sample.query_input, anchors,
                             domain_filter=domain if args.domain_filter_retrieval else None)
    candidates = [a for a in anchors.anchors
                  if not args.domain_filter_retrieval or a.domain == domain]
    sims = sorted((similarity(sample.query_input, a.input) for a in candidates),
                  reverse=True)
    margin = sims[0] - sims[1] if len(sims) > 1 else float("inf")
    best = anchors.anchors[prompt.index]
    print(f"query: clip {clips[args.clip].clip_id} domain {domain}")
    print(f"best anchor {prompt.index} (domain {best.domain}, source {best.source_index}): "
          f"similarity {prompt.similarity:.6f}")
    print(f"runner-up margin {margin:.6f}")
    return 0


def cmd_derive(args) -> int:
    _require(args, "dataset")
    clips = fileio.load_dataset(args.dataset)
    domains = _parse_domains(args.domains) if args.domains else DOMAIN_ORDER
    seed = args.seed or 0
    reports = []
    for ci, clip in enumerate(clips):
        for domain in domains:
            sample = derive_task(clip, domain, derive_seed(seed, ci, domain))
            spec = DOMAINS[domain]
            masked_frames = ([] if sample.time_mask is None
                             else np.flatnonzero(sample.time_mask == 0.0).tolist())
            masked_joints = ([] if sample.joint_mask is None
                             else np.flatnonzero(sample.joint_mask == 0.0).tolist())
            reports.append({
                "clip": clip.clip_id, "domain": domain,
                "input_modality": sample.query_input.modality.value,
                "target_modality": sample.query_target.modality.value,
                "frames": sample.query_input.frames, "joints": sample.query_input.joints,
                "future_window": spec.target_future,
                "masked_frames": masked_frames, "masked_joints": masked_joints,
            })
            print(f"{clip.clip_id} {spec.display}: "
                  f"{sample.query_input.modality.value} -> {sample.query_target.modality.value}"
                  f"{' (future)' if spec.target_future else ''}"
                  f" masked_frames={masked_frames} masked_joints={masked_joints}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"dataset": args.dataset, "seed": seed, "reports": reports}, f,
                      indent=2, sort_keys=True)
        print(f"wrote derivation report to {args.out}")
    return 0


def cmd_train(args) -> int:
    _require(args, "dataset", "anchors", "out")
    defaults = {"seed": 0, "hidden": None, "layers": 2, "learning_rate": 2e-4,
                "lr_decay": 0.99, "epochs": 1, "steps_per_epoch": None, "batch_size": 8,
                "weight_decay": 0.01, "mask_ratio": DEFAULT_MASK_RATIO, "max_steps": None,
                "position_weight": 1.0, "velocity_weight": 1.0, "shape_weight": 1.0,
                "domains": ",".join(DOMAIN_ORDER)}
    cfg = _merge(defaults, args.config, {"seed": args.seed, "domains": args.domains})
    domains = cfg["domains"] if isinstance(cfg["domains"], (tuple, list)) \
        else _parse_domains(cfg["domains"])
    clips = fileio.load_dataset(args.dataset)
    anchors, _ = fileio.load_anchors(args.anchors)
    hidden = cfg["hidden"] if cfg["hidden"] is not None else anchors.hidden
    if hidden != anchors.hidden:
        raise ConfigError(f"config hidden={hidden} but the anchor file stores "
                          f"soft factors of width {anchors.hidden}")
    if not clips:
        raise StateError("dataset holds no clips")
    net = NetConfig(frames=clips[0].window, joints=clips[0].joints,
                    hidden=hidden, layers=cfg["layers"])
    if anchors.frames != net.frames or anchors.joints != net.joints:
        raise DimensionError(f"anchor shape ({anchors.frames}, {anchors.joints}) does not "
                             f"match dataset window ({net.frames}, {net.joints})")
    params = init_params(net, cfg["seed"], anchors=anchors)
    weights = LossWeights(position=cfg["position_weight"], velocity=cfg["velocity_weight"],
                          shape=cfg["shape_weight"])
    tc = TrainConfig(learning_rate=cfg["learning_rate"], lr_decay=cfg["lr_decay"],
                     epochs=cfg["epochs"], steps_per_epoch=cfg["steps_per_epoch"],
                     batch_size=cfg["batch_size"], weights=weights,
                     weight_decay=cfg["weight_decay"], seed=cfg["seed"],
                     domains=tuple(domains), mask_ratio=cfg["mask_ratio"],
                     max_steps=cfg["max_steps"])
    log = train(clips, anchors, params, tc)
    for rec in log:
        print(f"epoch {rec['epoch']} step {rec['step']} lr {rec['lr']:.6e} "
              f"loss {rec['loss']:.6f} (pos {rec['position']:.6f} "
              f"vel {rec['velocity']:.6f} shape {rec['shape']:.6f})")
    meta = {"steps": len(log), "final_loss": log[-1]["loss"] if log else None,
            "anchor_file": args.anchors}
    fileio.save_checkpoint(args.out, params, meta=meta)
    print(f"saved checkpoint to {args.out} ({len(log)} steps)")
    return 0


def cmd_eval(args) -> int:
    _require(args, "dataset", "anchors", "checkpoint")
    clips = fileio.load_dataset(args.dataset)
    anchors, _ = fileio.load_anchors(args.anchors)
    params, _ = fileio.load_checkpoint(args.checkpoint)
    domains = _parse_domains(args.domains) if args.domains else DOMAIN_ORDER
    table = evaluate(clips, anchors, params, domains=domains, seed=args.seed or 0)
    for domain in domains:
        label = "param error" if DOMAINS[domain].mesh_output else "position error"
        print(f"{DOMAINS[domain].display:8s} {label} {table[domain]:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    defaults = {"seed": 0, "frames": 4, "joints": 5, "hidden": 8, "layers": 2}
    cfg = _merge(defaults, args.config, {"seed": args.seed})
    net = NetConfig(frames=cfg["frames"], joints=cfg["joints"], hidden=cfg["hidden"],
                    layers=cfg["layers"])
    report = run_gradient_check(net, cfg["seed"])
    status = "PASS" if report.max_rel_err < GRADCHECK_THRESHOLD else "FAIL"
    print(f"max relative error {report.max_rel_err:.3e} "
          f"(worst parameter {report.worst_param!r} index {report.worst_index}): {status}")
    if status == "FAIL":
        raise NumericError(f"gradient check failed: max relative error "
                           f"{report.max_rel_err:.3e} >= {GRADCHECK_THRESHOLD:.0e} "
                           f"at {report.worst_param!r}")
    return 0


def run_gradient_check(net: NetConfig, seed: int) -> "nd.GradCheckReport":
    """Full forward+loss analytic-vs-numeric comparison over every parameter."""
    synth = SynthConfig(clips=2, frames=net.frames, joints=net.joints,
                        native_pose_joints=max(1, net.joints - 1), clusters=2,
                        seed=seed)
    sample = derive_task(make_dataset(synth)[0], "pe", rng_seed=seed)
    rng = np.random.default_rng(seed + 1)
    p_in = nd.NdBuffer(rng.normal(size=(net.frames, net.joints, 3)))
    p_gt = nd.NdBuffer(rng.normal(size=(net.frames, net.joints, 3)))
    params = init_params(net, seed)
    base = {k: v.array for k, v in params.tensors.items()}
    base["soft.w1"] = rng.normal(scale=0.1, size=(net.frames, net.joints, 1))
    base["soft.w2"] = rng.normal(scale=0.1, size=(1, 1, net.hidden))

    def f(leaves):
        tensors = {k: leaves[k] for k in params.tensors}
        u = soft_anchor_value(leaves["soft.w1"], leaves["soft.w2"])
        result = forward(sample.query_input, p_in, p_gt, u, XFusionParams(net, tensors))
        total, _ = loss(result.prediction, result.betas, sample)
        return total

    return nd.grad_check(f, base)


def build_parser() -> _Parser:
    parser = _Parser(prog="motionctx",
                     description="Cross-modal motion tasks, anchor sampling, and a "
                                 "reference fusion network at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, out=False, dataset=False, anchors=False):
        p.add_argument("--seed", type=int, default=None, help="seed overriding the config")
        p.add_argument("--config", default=None, help="flat JSON config file")
        if dataset:
            p.add_argument("--dataset", default=None, help="dataset file path")
        if anchors:
            p.add_argument("--anchors", default=None, help="anchor file path")
        if out:
            p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("synth", help="write a deterministic synthetic dataset")
    common(p, out=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample-anchors", help="select anchors from a dataset corpus")
    common(p, out=True, dataset=True)
    p.add_argument("--k", type=int, default=None, help="anchor budget")
    p.add_argument("--method", choices=("sps", "random", "cluster"), default=None)
    p.add_argument("--domains", default=None,
                   help="comma-separated task ids building the corpus "
                        f"({', '.join(DOMAIN_ORDER)})")
    p.set_defaults(func=cmd_sample_anchors)

    p = sub.add_parser("retrieve", help="find the most similar anchor for one query")
    common(p, dataset=True, anchors=True)
    p.add_argument("--clip", type=int, default=0, help="query clip index")
    p.add_argument("--domains", default=None, help="task id deriving the query (first entry)")
    p.add_argument("--domain-filter-retrieval", action="store_true",
                   help="restrict candidates to anchors of the query domain")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("derive", help="report task derivations over a dataset")
    common(p, out=True, dataset=True)
    p.add_argument("--domains", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train on a dataset with an anchor file")
    common(p, out=True, dataset=True, anchors=True)
    p.add_argument("--domains", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-domain metric table for a checkpoint")
    common(p, dataset=True, anchors=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument("--domains", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="analytic vs numeric gradients at toy shapes")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DomainError, StateError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
