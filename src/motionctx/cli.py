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
import dataclasses
import json
import os
import sys

import numpy as np

from . import fileio, nd
from .errors import (ConfigError, DimensionError, DomainError, FormatError, NumericError,
                     StateError)
from .motion import DOMAIN_ORDER, DOMAINS, derive_task, parse_domain
from .network import (DEFAULT_HIDDEN, LossWeights, NetConfig, XFusionParams, forward,
                      init_params, loss)
from .prompting import (DEFAULT_ANCHOR_COUNT, anchor_similarities, cluster_sample,
                        pick_anchors, random_sample, soft_anchor_value, sps_sample)
from .synth import SynthConfig, make_dataset
from .training import TrainConfig, anchor_corpus, derive_seed, evaluate, train

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    """Usage problems are configuration errors, not a hard process abort."""

    def error(self, message):
        raise ConfigError(message)


def _domains(value) -> tuple[str, ...]:
    """Task ids from a comma string or a JSON list, each checked by `parse_domain`;
    None means every domain."""
    if value is None:
        return DOMAIN_ORDER
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or not all(isinstance(p, str) for p in parts):
        raise ConfigError(f"domains must be a comma-separated string or a list of "
                          f"task ids, got {value!r}")
    names = tuple(parse_domain(part) for part in parts if part.strip())
    if not names:
        raise ConfigError(f"no task domains in {value!r}")
    return names


def _defaults(config_cls) -> dict:
    """Field name -> default of a config dataclass; factory-built fields are left out."""
    return {f.name: f.default for f in dataclasses.fields(config_cls)
            if f.default is not dataclasses.MISSING}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _merge(defaults: dict, config_path: str | None, flags: dict) -> dict:
    """defaults < config file < explicit flags; unknown file keys are rejected.

    Each value must have the type of its default: an int default takes no
    bool, a float default takes an int (as a float). Keys whose default is
    None, and the task ids under `domains`, are left to their own parsers.
    The seed is reduced mod 2^63, as in `derive_seed`."""
    merged = dict(defaults)
    if config_path is not None:
        for key, value in fileio.load_config(config_path).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}; known: {sorted(defaults)}")
            merged[key] = value
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    for key, default in defaults.items():
        value = merged[key]
        if default is None or key == "domains":
            continue
        if type(default) is float and type(value) is int:
            try:
                value = merged[key] = float(value)
            except OverflowError:
                raise ConfigError(f"{key} is out of range, got {value!r}") from None
        if type(value) is not type(default):
            raise ConfigError(f"{key} must be {_TYPE_NAMES[type(default)]}, got {value!r}")
    merged["seed"] %= 2 ** 63
    return merged


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")


def cmd_synth(args) -> int:
    cfg = SynthConfig(**_merge(_defaults(SynthConfig), args.config, {"seed": args.seed}))
    _require(args, "out")
    clips = make_dataset(cfg)
    fileio.save_dataset(args.out, clips)
    print(f"wrote {cfg.clips} clips (F={cfg.frames}, J={cfg.joints}) to {args.out} "
          f"({os.path.getsize(args.out)} bytes)")
    return 0


def cmd_sample_anchors(args) -> int:
    _require(args, "dataset", "out")
    defaults = {"seed": 0, "k": DEFAULT_ANCHOR_COUNT, "method": "sps",
                "hidden": DEFAULT_HIDDEN, "domains": None}
    cfg = _merge(defaults, args.config,
                 {"seed": args.seed, "k": args.k, "method": args.method,
                  "domains": args.domains})
    domains = _domains(cfg["domains"])
    clips = fileio.load_dataset(args.dataset)
    corpus = anchor_corpus(clips, domains=domains, seed=cfg["seed"])
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
    meta = {"domains": list(domains), "corpus_seed": cfg["seed"]}
    fileio.save_anchors(args.out, anchors, meta=meta)
    print(f"wrote {len(anchors)} anchors (method {anchors.method}, K={anchors.k_requested}) "
          f"to {args.out}")
    return 0


def _check_fingerprint(anchors, meta, clips):
    """Anchor files remember their corpus recipe (task ids and seed); a
    mismatch warns, not fails. A malformed recipe is a format error.

    Only the stored anchors' own corpus entries are derived again: entry s of
    the recipe's corpus is clip s % len(clips) in domain domains[s // len(clips)],
    the order `anchor_corpus` builds, and each must equal its stored
    (32-bit) input and target. The cost grows with the anchor count, not
    with the dataset."""
    if "domains" not in meta:
        return
    where = "anchor file meta"
    names = fileio._field(meta, "domains", list, where)
    seed = fileio._field(meta, "corpus_seed", int, where, minimum=None)
    if not names or not all(isinstance(name, str) for name in names):
        raise FormatError(f"{where} field 'domains' must be a non-empty list of task ids, "
                          f"got {names!r}")
    try:
        domains = tuple(map(parse_domain, names))
    except DomainError as exc:
        raise FormatError(f"{where} field 'domains': {exc}") from None

    def rederived(anchor) -> bool:
        s = anchor.source_index
        if not 0 <= s < len(clips) * len(domains):
            return False
        domain, i = domains[s // len(clips)], s % len(clips)
        sample = derive_task(clips[i], domain, derive_seed(seed, i, domain))
        return anchor.domain == domain and all(
            np.array_equal(got.values.array.astype(np.float32), stored.values.array)
            and np.array_equal(got.betas.astype(np.float32), stored.betas)
            for got, stored in ((sample.query_input, anchor.input),
                                (sample.query_target, anchor.target)))

    if not all(map(rederived, anchors.anchors[1:])):  # anchors[0] is the rest pose
        print("warning: anchor fingerprint does not match the dataset's corpus; "
              "retrieval proceeds on the stored anchors", file=sys.stderr)


def cmd_retrieve(args) -> int:
    _require(args, "anchors", "dataset")
    anchors, meta = fileio.load_anchors(args.anchors)
    clips = fileio.load_dataset(args.dataset)
    _check_fingerprint(anchors, meta, clips)
    if not 0 <= args.clip < len(clips):
        raise ConfigError(f"--clip {args.clip} out of range for {len(clips)} clips")
    domain = _domains(args.domains or "pe")[0]
    sample = derive_task(clips[args.clip], domain, derive_seed(args.seed or 0, args.clip, domain))
    # One similarity row gives the pick, its similarity and the runner-up margin.
    domain_filter = domain if args.domain_filter_retrieval else None
    sims = anchor_similarities(sample.query_input, anchors)
    index = int(pick_anchors(sims, anchors, domain_filter))
    pool = sims if domain_filter is None else sims[anchors.domain_indices(domain)]
    top = np.sort(pool)[::-1]
    margin = top[0] - top[1] if top.size > 1 else float("inf")
    best = anchors.anchors[index]
    print(f"query: clip {clips[args.clip].clip_id} domain {domain}")
    print(f"best anchor {index} (domain {best.domain}, source {best.source_index}): "
          f"similarity {sims[index]:.6f}")
    print(f"runner-up margin {margin:.6f}")
    return 0


def cmd_derive(args) -> int:
    _require(args, "dataset")
    clips = fileio.load_dataset(args.dataset)
    domains = _domains(args.domains)
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
    # Loss weights are flat `<term>_weight` keys; `hidden` defaults to the anchor file's.
    weight_defaults = {f"{name}_weight": value for name, value in _defaults(LossWeights).items()}
    defaults = {**_defaults(TrainConfig), **weight_defaults, "hidden": None, "layers": 2}
    cfg = _merge(defaults, args.config, {"seed": args.seed, "domains": args.domains})
    cfg["domains"] = _domains(cfg["domains"])
    clips = fileio.load_dataset(args.dataset)
    anchors, _ = fileio.load_anchors(args.anchors)
    hidden, layers = cfg.pop("hidden"), cfg.pop("layers")
    if hidden not in (None, anchors.hidden):
        raise ConfigError(f"config hidden={hidden} but the anchor file stores "
                          f"soft factors of width {anchors.hidden}")
    if not clips:
        raise StateError("dataset holds no clips")
    net = NetConfig(frames=clips[0].window, joints=clips[0].joints,
                    hidden=anchors.hidden, layers=layers)
    if anchors.frames != net.frames or anchors.joints != net.joints:
        raise DimensionError(f"anchor shape ({anchors.frames}, {anchors.joints}) does not "
                             f"match dataset window ({net.frames}, {net.joints})")
    params = init_params(net, cfg["seed"], anchors=anchors)
    weights = LossWeights(**{name: cfg.pop(f"{name}_weight") for name in _defaults(LossWeights)})
    tc = TrainConfig(**cfg, weights=weights)
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


def _check_pairing(params: XFusionParams, anchors) -> None:
    """The checkpoint must hold the tensors `init_params` makes for its config
    and this anchor file: another network tensor is a format error, soft
    factors of other anchors a configuration error."""
    want = {k: v.shape for k, v in init_params(params.config, 0, anchors=anchors).tensors.items()}
    got = {k: v.shape for k, v in params.tensors.items()}
    for name in sorted(got.keys() | want.keys()):
        if not name.startswith("soft.") and got.get(name) != want.get(name):
            raise FormatError(f"checkpoint tensor {name!r} does not match its network config: "
                              f"shape {got.get(name)} stored, {want.get(name)} expected")
    if got != want:
        pairs = len({k.rsplit(".", 1)[0] for k in got if k.startswith("soft.")})
        raise ConfigError(f"checkpoint holds soft factors for {pairs} anchors, but the anchor "
                          f"file has {len(anchors)} anchors of F={anchors.frames} "
                          f"J={anchors.joints} H={anchors.hidden}")


def cmd_eval(args) -> int:
    _require(args, "dataset", "anchors", "checkpoint")
    clips = fileio.load_dataset(args.dataset)
    anchors, _ = fileio.load_anchors(args.anchors)
    params, _ = fileio.load_checkpoint(args.checkpoint)
    _check_pairing(params, anchors)
    domains = _domains(args.domains)
    table = evaluate(clips, anchors, params, domains=domains, seed=args.seed or 0)
    for domain in domains:
        label = "param error" if DOMAINS[domain].mesh_output else "position error"
        print(f"{DOMAINS[domain].display:8s} {label} {table[domain]:.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    defaults = {"seed": 0, "frames": 4, "joints": 5, "hidden": 8, "layers": 2}
    cfg = _merge(defaults, args.config, {"seed": args.seed})
    seed = cfg.pop("seed")
    report = run_gradient_check(NetConfig(**cfg), seed)
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
                        native_pose_joints=max(1, net.joints - 1), seed=seed)
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

    def common(p, *, config=True, out=False, dataset=False, anchors=False):
        p.add_argument("--seed", type=int, default=None, help="seed overriding the config")
        if config:
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
    common(p, config=False, dataset=True, anchors=True)
    p.add_argument("--clip", type=int, default=0, help="query clip index")
    p.add_argument("--domains", default=None, help="task id deriving the query (first entry)")
    p.add_argument("--domain-filter-retrieval", action="store_true",
                   help="restrict candidates to anchors of the query domain")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("derive", help="report task derivations over a dataset")
    common(p, config=False, out=True, dataset=True)
    p.add_argument("--domains", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("train", help="train on a dataset with an anchor file")
    common(p, out=True, dataset=True, anchors=True)
    p.add_argument("--domains", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-domain metric table for a checkpoint")
    common(p, config=False, dataset=True, anchors=True)
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
