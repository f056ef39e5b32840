"""Command-line surface: pipelines, determinism, exit-code classes."""

import json
import re
import struct

import numpy as np
import pytest

from helpers import pick_anchors, query_similarities, unbatched_objective
from motionctx import cli, fileio, nd, network, prompting, training
from motionctx.cli import main
from motionctx.fileio import load_anchors, load_checkpoint, load_dataset
from motionctx.motion import derive_task
from motionctx.nd import NdBuffer, Tape
from motionctx.network import SOFT_TABLES, LossWeights, NetConfig, XFusionParams, init_params
from motionctx.prompting import retrieve_prompt, similarity, sps_sample
from motionctx.synth import SynthConfig, make_dataset
from motionctx.training import (TrainConfig, anchor_corpus, derive_seed, objective,
                                seeded_task)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def pipeline(tmp_path, capsys):
    """Dataset + anchors shared by the end-to-end command tests."""
    data = str(tmp_path / "data.bin")
    anchors = str(tmp_path / "anchors.bin")
    cfg = write_json(tmp_path / "sa.json", {"hidden": 8})
    assert main(["synth", "--seed", "1", "--out", data]) == 0
    assert main(["sample-anchors", "--dataset", data, "--k", "6", "--method", "sps",
                 "--domains", "pe,mp_p", "--config", cfg, "--out", anchors]) == 0
    capsys.readouterr()
    return tmp_path, data, anchors


def test_synth_is_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    code, out, _ = run(capsys, "synth", "--seed", "5", "--out", p1)
    assert code == 0
    assert "wrote 16 clips" in out
    assert run(capsys, "synth", "--seed", "5", "--out", p2)[0] == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_sample_anchors_prints_audit_trail(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    out_path = str(tmp_path / "a.bin")
    cfg = write_json(tmp_path / "c.json", {"hidden": 4})
    assert main(["synth", "--seed", "2", "--out", data]) == 0
    code, out, _ = run(capsys, "sample-anchors", "--dataset", data, "--k", "4",
                       "--domains", "pe", "--config", cfg, "--out", out_path)
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("step ")]
    assert len(steps) == 3
    assert all("max-min" in line for line in steps)
    # the max-min objective is non-decreasing across selection steps
    values = [float(re.search(r"max-min (-?\d+\.\d+)", s).group(1)) for s in steps]
    assert values == sorted(values)


def test_sample_anchors_k1_is_rest_pose_only(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    out_path = str(tmp_path / "a.bin")
    cfg = write_json(tmp_path / "c.json", {"hidden": 4})
    assert main(["synth", "--seed", "0", "--out", data]) == 0
    assert main(["sample-anchors", "--dataset", data, "--k", "1", "--domains", "pe",
                 "--config", cfg, "--out", out_path]) == 0
    capsys.readouterr()
    anchors, _ = load_anchors(out_path)
    assert len(anchors) == 1
    assert anchors.anchors[0].source_index == -1
    assert np.all(anchors.anchors[0].input.values.array == 0.0)


def test_retrieve_self_query_similarity_zero(pipeline, capsys):
    tmp_path, data, _ = pipeline
    anchors = str(tmp_path / "pe_anchors.bin")
    cfg = write_json(tmp_path / "c4.json", {"hidden": 4})
    code, out, _ = run(capsys, "sample-anchors", "--dataset", data, "--k", "3",
                       "--domains", "pe", "--config", cfg, "--out", anchors)
    assert code == 0
    picked = int(re.search(r"step 1: corpus index (\d+)", out).group(1))
    code, out, err = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors,
                         "--domains", "pe", "--clip", str(picked))
    assert code == 0
    assert "similarity 0.000000" in out
    assert f"source {picked}" in out
    assert "runner-up margin" in out
    assert "warning" not in err


def test_retrieve_reports_margin_and_domain_filter(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    code, out, _ = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors,
                       "--domains", "mp_p", "--clip", "3", "--domain-filter-retrieval")
    assert code == 0
    best = re.search(r"best anchor \d+ \(domain (\w+),", out).group(1)
    assert best == "mp_p"


def test_retrieve_takes_one_task_id(pipeline, capsys):
    # One query is derived, so a second task id would be silently dropped.
    _, data, anchors = pipeline
    code, out, err = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors,
                         "--domains", "pe,mp_p")
    assert code == 1 and out == ""
    assert err == "error: --domains takes one task id for retrieve, got 'pe,mp_p'\n"


def test_fingerprint_mismatch_warns_but_succeeds(pipeline, capsys):
    tmp_path, _, anchors = pipeline
    other = str(tmp_path / "other.bin")
    assert main(["synth", "--seed", "9", "--out", other]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "retrieve", "--dataset", other, "--anchors", anchors,
                         "--domains", "pe")
    assert code == 0
    assert "warning" in err and "fingerprint" in err
    assert "best anchor" in out


def test_fingerprint_check_cost_does_not_grow_with_the_dataset(tmp_path, capsys, monkeypatch):
    # One anchor file made from the first 16 of 64 clips: its corpus entries
    # are the same clips in both datasets, so both checks pass, and each
    # derives the stored anchors' entries plus the query, nothing more.
    clips = make_dataset(SynthConfig(clips=64, seed=4))
    small, large = str(tmp_path / "small.bin"), str(tmp_path / "large.bin")
    fileio.save_dataset(small, clips[:16])
    fileio.save_dataset(large, clips)
    anchors = str(tmp_path / "anchors.bin")
    cfg = write_json(tmp_path / "sa.json", {"hidden": 4})
    assert main(["sample-anchors", "--dataset", small, "--k", "6", "--domains", "pe",
                 "--config", cfg, "--out", anchors]) == 0
    capsys.readouterr()
    counts = []
    for data in (small, large):
        calls = []
        counting = lambda *a, **k: calls.append(1) or derive_task(*a, **k)  # noqa: E731
        monkeypatch.setattr(cli, "derive_task", counting)
        monkeypatch.setattr(training, "derive_task", counting)
        code, out, err = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors)
        assert code == 0 and err == "" and "best anchor" in out
        counts.append(len(calls))
    assert counts == [6, 6]  # 5 stored corpus entries and the query


def test_fingerprint_warns_when_one_stored_anchor_input_is_edited(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    code, _, err = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors)
    assert code == 0 and err == ""
    anchor_set, _ = load_anchors(anchors)
    # Anchor payload: inputs lead, anchor 0 first; move anchor 3's first x.
    per_anchor = anchor_set.frames * anchor_set.joints * 3 * 4
    value = float(anchor_set.anchors[3].input.values.array[0, 0, 0]) + 0.5
    edited = _poke_payload(anchors, str(tmp_path / "edited.bin"), 3 * per_anchor, "<f", value)
    code, out, err = run(capsys, "retrieve", "--dataset", data, "--anchors", edited)
    assert code == 0 and "best anchor" in out
    assert "warning" in err and "fingerprint" in err


@pytest.mark.parametrize("flag", [[], ["--domain-filter-retrieval"]])
def test_retrieve_scores_the_query_once(pipeline, capsys, monkeypatch, flag):
    _, data, anchors = pipeline
    shapes = []
    inner = prompting._sims_to_many
    monkeypatch.setattr(prompting, "_sims_to_many",
                        lambda stacked, queries: shapes.append(
                            (len(queries), len(stacked))) or inner(stacked, queries))
    code, out, _ = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors,
                       "--domains", "mp_p", *flag)
    assert code == 0 and "runner-up margin" in out
    assert shapes == [(1, len(load_anchors(anchors)[0]))]


def test_derive_writes_report(pipeline, capsys):
    tmp_path, data, _ = pipeline
    report = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "derive", "--dataset", data, "--domains", "mib_p,jc_m",
                       "--seed", "3", "--out", report)
    assert code == 0
    assert "MIB(P)" in out and "JC(M)" in out
    payload = json.load(open(report))
    assert len(payload["reports"]) == 16 * 2
    masked = [r for r in payload["reports"] if r["domain"] == "mib_p"]
    assert all(len(r["masked_frames"]) == 3 for r in masked)  # floor(0.4*8)


def test_derive_report_stores_the_seed_mod_2_63(pipeline, capsys):
    tmp_path, data, _ = pipeline
    paths = [str(tmp_path / f"report{seed}.json") for seed in ("-1", "top")]
    for seed, path in zip(("-1", str(2 ** 63 - 1)), paths):
        assert run(capsys, "derive", "--dataset", data, "--domains", "pe",
                   "--seed", seed, "--out", path)[0] == 0
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_derive_and_retrieve_use_the_library_seed(pipeline, capsys):
    # derive and retrieve must report the tasks anchor_corpus and evaluate
    # build: derive_task(clip, d, derive_seed(seed, i, d)).
    tmp_path, data, anchors_path = pipeline
    report = str(tmp_path / "seeded.json")
    assert run(capsys, "derive", "--dataset", data, "--domains", "mib_p,jc_p",
               "--seed", "7", "--out", report)[0] == 0
    clips = load_dataset(data)
    reports = json.load(open(report))["reports"]
    assert len(reports) == len(clips) * 2
    for i, clip in enumerate(clips):
        for r in reports[2 * i:2 * i + 2]:
            d = r["domain"]
            sample = derive_task(clip, d, derive_seed(7, i, d))
            frames = [] if sample.time_mask is None else np.flatnonzero(sample.time_mask == 0.0)
            joints = [] if sample.joint_mask is None else np.flatnonzero(sample.joint_mask == 0.0)
            assert r["masked_frames"] == list(frames) and r["masked_joints"] == list(joints)
    anchors, _ = load_anchors(anchors_path)
    sample = derive_task(clips[5], "mib_p", derive_seed(7, 5, "mib_p"))
    expected = retrieve_prompt(sample.query_input, anchors)
    code, out, _ = run(capsys, "retrieve", "--dataset", data, "--anchors", anchors_path,
                       "--domains", "mib_p", "--clip", "5", "--seed", "7")
    assert code == 0
    assert f"best anchor {expected.index} " in out
    assert f"similarity {expected.similarity:.6f}" in out


@pytest.mark.parametrize("filtered", [False, True])
def test_retrieve_loads_the_dataset_once(pipeline, capsys, monkeypatch, filtered):
    tmp_path, data, anchors_path = pipeline
    clips = load_dataset(data)
    anchors, _ = load_anchors(anchors_path)
    # The report as a per-anchor similarity loop computes it.
    sample = derive_task(clips[4], "mp_p", derive_seed(2, 4, "mp_p"))
    prompt = retrieve_prompt(sample.query_input, anchors,
                             domain_filter="mp_p" if filtered else None)
    sims = sorted((similarity(sample.query_input, a.input) for a in anchors.anchors
                   if not filtered or a.domain == "mp_p"), reverse=True)
    best = anchors.anchors[prompt.index]
    expected = (f"query: clip {clips[4].clip_id} domain mp_p\n"
                f"best anchor {prompt.index} (domain {best.domain}, "
                f"source {best.source_index}): similarity {prompt.similarity:.6f}\n"
                f"runner-up margin {sims[0] - sims[1]:.6f}\n")

    calls = []
    inner = fileio.load_dataset

    def counting(path):
        calls.append(path)
        return inner(path)

    monkeypatch.setattr(fileio, "load_dataset", counting)
    argv = ["retrieve", "--dataset", data, "--anchors", anchors_path, "--domains", "mp_p",
            "--clip", "4", "--seed", "2"] + (["--domain-filter-retrieval"] if filtered else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert calls == [data]
    assert out == expected


def full_scan_report(clips, anchors, clip, domain, seed, filtered):
    """`motionctx retrieve` stdout as a full scan of every anchor builds it."""
    sample = seeded_task(clips, clip, domain, seed)
    sims = query_similarities([sample.query_input], anchors)[0]
    index = int(pick_anchors(sims, anchors, domain if filtered else None))
    top = np.sort(sims[anchors.domain_indices(domain)] if filtered else sims)[::-1]
    margin = top[0] - top[1] if top.size > 1 else float("inf")
    best = anchors.anchors[index]
    return (f"query: clip {clips[clip].clip_id} domain {domain}\n"
            f"best anchor {index} (domain {best.domain}, source {best.source_index}): "
            f"similarity {sims[index]:.6f}\n"
            f"runner-up margin {margin:.6f}\n")


def test_retrieve_beyond_one_kernel_block_prints_the_full_scan_report(tmp_path, capsys,
                                                                      monkeypatch):
    # A stored anchor stack is float32: 120 anchors at paper shape exceed one block.
    data, anchors_path = str(tmp_path / "data.bin"), str(tmp_path / "anchors.bin")
    synth = write_json(tmp_path / "synth.json", {"clips": 64, "frames": 16, "joints": 24,
                                                  "native_pose_joints": 17, "clusters": 4})
    assert main(["synth", "--seed", "3", "--config", synth, "--out", data]) == 0
    assert main(["sample-anchors", "--dataset", data, "--k", "120", "--domains", "pe,mp_p",
                 "--seed", "3", "--config", write_json(tmp_path / "sa.json", {"hidden": 4}),
                 "--out", anchors_path]) == 0
    capsys.readouterr()
    clips = load_dataset(data)
    anchors, _ = load_anchors(anchors_path)
    assert anchors.stacked_inputs().nbytes > prompting._SIM_BLOCK_BYTES
    rows = []
    inner = prompting._sims_to_many
    monkeypatch.setattr(prompting, "_sims_to_many",
                        lambda stacked, queries, *sel: rows.append((len(stacked), len(queries)))
                        or inner(stacked, queries, *sel))
    for clip, domain in [(c, d) for c in range(0, 64, 7) for d in ("pe", "mp_p", "mr")]:
        for filtered in (False, True):
            if filtered and not anchors.domain_indices(domain).size:
                continue
            rows.clear()
            argv = ["retrieve", "--dataset", data, "--anchors", anchors_path, "--clip",
                    str(clip), "--domains", domain, "--seed", "3"]
            code, out, err = run(capsys, *argv, *(["--domain-filter-retrieval"] * filtered))
            assert code == 0 and err == ""
            assert (prompting.PIVOTS + 1, 1) in rows  # the pruned path scores the pivots
            assert out == full_scan_report(clips, anchors, clip, domain, 3, filtered)


def test_train_then_eval_pipeline(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    ck = str(tmp_path / "ck.bin")
    cfg = write_json(tmp_path / "t.json", {"layers": 1, "epochs": 1,
                                           "steps_per_epoch": 2, "batch_size": 2})
    code, out, _ = run(capsys, "train", "--dataset", data, "--anchors", anchors,
                       "--config", cfg, "--domains", "pe,mp_p", "--out", ck)
    assert code == 0
    assert out.count("epoch 0 step") == 2
    assert "saved checkpoint" in out
    params, meta = load_checkpoint(ck)
    assert meta["steps"] == 2
    code, t1, _ = run(capsys, "eval", "--dataset", data, "--anchors", anchors,
                      "--checkpoint", ck, "--domains", "pe,mp_p")
    assert code == 0
    assert "PE" in t1 and "MP(P)" in t1
    code, t2, _ = run(capsys, "eval", "--dataset", data, "--anchors", anchors,
                      "--checkpoint", ck, "--domains", "pe,mp_p")
    assert code == 0
    assert t1 == t2


def test_train_lr_zero_checkpoint_equals_initialization(pipeline, capsys):
    tmp_path, data, anchors_path = pipeline
    ck = str(tmp_path / "ck0.bin")
    cfg = write_json(tmp_path / "t0.json", {"layers": 1, "epochs": 1,
                                            "steps_per_epoch": 2, "batch_size": 2,
                                            "learning_rate": 0.0})
    code, _, _ = run(capsys, "train", "--dataset", data, "--anchors", anchors_path,
                     "--config", cfg, "--seed", "4", "--domains", "pe", "--out", ck)
    assert code == 0
    trained, _ = load_checkpoint(ck)
    anchors, _ = load_anchors(anchors_path)
    clips = load_dataset(data)
    expected = init_params(NetConfig(frames=clips[0].window, joints=clips[0].joints,
                                     hidden=8, layers=1), 4, anchors=anchors)
    assert set(trained.tensors) == set(expected.tensors)
    for name, buf in expected.tensors.items():
        assert np.array_equal(trained.tensors[name].array, buf.array), name


def test_train_rejects_anchors_of_another_window(pipeline, capsys):
    # The pipeline's anchors come from F=8 clips; this dataset's window is 4.
    tmp_path, _, anchors = pipeline
    data, ck = str(tmp_path / "short.bin"), tmp_path / "ck.bin"
    cfg = write_json(tmp_path / "short.json", {"frames": 4})
    assert main(["synth", "--config", cfg, "--out", data]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "train", "--dataset", data, "--anchors", anchors,
                         "--out", str(ck))
    assert code == 1 and out == ""
    assert "(8, 6, 8)" in err and "(4, 6, 8)" in err
    assert not ck.exists()


def test_gradcheck_passes_at_toy_shapes(tmp_path, capsys):
    cfg = write_json(tmp_path / "g.json", {"frames": 2, "joints": 2, "hidden": 3,
                                           "layers": 1})
    code, out, _ = run(capsys, "gradcheck", "--config", cfg, "--seed", "0")
    assert code == 0
    assert "PASS" in out


def test_the_gradient_check_sees_the_soft_row_gather(monkeypatch):
    # A gather whose backward forgets the soft rows: training would never move them.
    def take_rows_without_gradient(a, rows):
        return nd._emit("take_rows", a.array[np.asarray(rows)],
                        lambda g, key=a.key: [(key, np.zeros(key.shape))])

    monkeypatch.setattr(nd, "take_rows", take_rows_without_gradient)
    report = cli.run_gradient_check(NetConfig(2, 2, 3, 1), 0)
    assert report.max_rel_err >= cli.GRADCHECK_THRESHOLD
    assert report.worst_param in SOFT_TABLES


def test_objective_on_a_batch_of_one_is_the_unbatched_pass(monkeypatch):
    """At gradcheck's seeded point, `objective` on its batch of one gives the
    loss and tape gradients of the soft-row reshape, unbatched `forward` and
    one-sample `loss`. `np.array_equal` counts -0.0 equal to +0.0: the
    gather's backward adds into zeros, so a zero's sign may differ."""
    net, seen = NetConfig(4, 5, 8, 2), {}

    def spy(batch, params, weights):
        seen["batch"] = batch
        return objective(batch, params, weights)

    monkeypatch.setattr(cli, "objective", spy)
    monkeypatch.setattr(nd, "grad_check", lambda f, arrays: seen.update(f=f, arrays=arrays))
    cli.run_gradient_check(net, 0)
    leaves = {k: NdBuffer(v) for k, v in seen["arrays"].items()}
    with Tape() as tape:
        got = seen["f"](leaves)
    got_grads = tape.grad(got, list(leaves.values()))
    [(sample, prompt)] = seen["batch"]
    assert prompt.index == 0
    with Tape() as tape:
        want = unbatched_objective(sample, prompt, XFusionParams(net, leaves))
    want_grads = tape.grad(want, list(leaves.values()))
    assert got.array.tobytes() == want.array.tobytes()
    for name, g, w in zip(leaves, got_grads, want_grads):
        assert np.array_equal(g, w), name


def test_config_class_failures_exit_1(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    # missing required flag
    assert run(capsys, "synth", "--seed", "1")[0] == 1
    # unknown task domain
    assert run(capsys, "derive", "--dataset", data, "--domains", "bogus")[0] == 1
    # unknown config key
    bad = write_json(tmp_path / "bad.json", {"nope": 1})
    assert run(capsys, "synth", "--config", bad, "--out", str(tmp_path / "x.bin"))[0] == 1
    # clip index out of range
    assert run(capsys, "retrieve", "--dataset", data, "--anchors", anchors,
               "--clip", "99")[0] == 1
    # unknown verb
    assert run(capsys, "bogus")[0] == 1
    # train takes no hidden width: the anchor file's soft factors set it
    cfg = write_json(tmp_path / "mismatch.json", {"hidden": 16, "layers": 1})
    code, _, err = run(capsys, "train", "--dataset", data, "--anchors", anchors,
                       "--config", cfg, "--out", str(tmp_path / "ck.bin"))
    assert code == 1 and "unknown config key 'hidden'" in err


def test_io_class_failures_exit_2(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    missing = str(tmp_path / "missing.bin")
    assert run(capsys, "retrieve", "--dataset", data, "--anchors", missing)[0] == 2
    corrupt = tmp_path / "corrupt.bin"
    raw = bytearray(open(data, "rb").read())
    raw[0:4] = b"ZZZZ"
    corrupt.write_bytes(bytes(raw))
    code, _, err = run(capsys, "derive", "--dataset", str(corrupt))
    assert code == 2
    assert "HICM" in err


@pytest.mark.parametrize("command, files", [
    ("retrieve", ["--dataset", "nope.bin", "--anchors", "nope2.bin"]),
    ("derive", ["--dataset", "nope.bin"]),
    ("eval", ["--dataset", "nope.bin", "--anchors", "nope2.bin", "--checkpoint", "nope3.bin"]),
    ("train", ["--dataset", "nope.bin", "--anchors", "nope2.bin", "--out", "nope3.bin"]),
])
def test_bad_domains_exit_1_before_any_file_is_read(tmp_path, capsys, command, files):
    files = [str(tmp_path / f) if f.endswith(".bin") else f for f in files]
    code, _, err = run(capsys, command, *files, "--domains", "bogus")
    assert code == 1 and "No such file" not in err


@pytest.mark.parametrize("command,config,message", [
    ("sample-anchors", {"method": "bogus"},
     "unknown sampling method 'bogus'; choose sps, random, or cluster"),
    ("train", {"epochs": 0}, "epochs must be >= 1, got 0"),
    ("train", {"shape_weight": -1.0}, "loss weight shape must be >= 0, got -1.0"),
], ids=["method", "epochs", "weight"])
def test_bad_config_exits_1_before_any_file_is_read(tmp_path, capsys, monkeypatch, command,
                                                    config, message):
    loads = []
    monkeypatch.setattr(fileio, "load_dataset", loads.append)
    missing = str(tmp_path / "missing.bin")
    argv = [command, "--config", write_json(tmp_path / "bad.json", config),
            "--dataset", missing, "--out", str(tmp_path / "o.bin")]
    if command == "train":
        argv += ["--anchors", missing]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (1, f"error: {message}\n")
    assert loads == []


def test_retrieve_checks_one_task_and_clip_range_before_the_files(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    missing = str(tmp_path / "missing.bin")
    code, _, err = run(capsys, "retrieve", "--dataset", missing, "--anchors", missing,
                       "--domains", "pe,mp_p")
    assert code == 1 and "one task id" in err
    other = str(tmp_path / "other.bin")  # its corpus does not match the anchor file
    assert main(["synth", "--seed", "2", "--out", other]) == 0
    assert "warning" in run(capsys, "retrieve", "--dataset", other, "--anchors", anchors)[2]
    code, _, err = run(capsys, "retrieve", "--dataset", other, "--anchors", anchors,
                       "--clip", "99")
    assert code == 1 and "out of range" in err and "warning" not in err


def test_numeric_class_failures_exit_3(tmp_path, capsys):
    cfg = write_json(tmp_path / "h.json", {"amplitude": 1e150})
    code, _, err = run(capsys, "synth", "--config", cfg, "--seed", "0",
                       "--out", str(tmp_path / "h.bin"))
    assert code == 3
    assert "overflow" in err


def test_cli_defaults_are_the_config_dataclass_defaults(pipeline, capsys, monkeypatch):
    tmp_path, data, anchors = pipeline
    ours, ref = str(tmp_path / "s5.bin"), str(tmp_path / "ref.bin")
    assert run(capsys, "synth", "--seed", "5", "--out", ours)[0] == 0
    fileio.save_dataset(ref, make_dataset(SynthConfig(seed=5)))
    assert open(ours, "rb").read() == open(ref, "rb").read()

    seen = []
    monkeypatch.setattr(cli, "train", lambda clips, anchor_set, params, config:
                        seen.append(config) or [])
    ck = str(tmp_path / "ck.bin")
    assert run(capsys, "train", "--dataset", data, "--anchors", anchors, "--seed", "3",
               "--domains", "pe,mp_p", "--out", ck)[0] == 0
    assert seen[-1] == TrainConfig(seed=3, domains=("pe", "mp_p"))
    assert seen[-1].weights == LossWeights()
    cfg = write_json(tmp_path / "list.json", {"domains": ["PE", "mp_p"]})
    assert run(capsys, "train", "--dataset", data, "--anchors", anchors, "--config", cfg,
               "--out", ck)[0] == 0
    assert seen[-1] == TrainConfig(domains=("pe", "mp_p"))


def _paired_checkpoint(tmp_path, anchors, edit=None):
    """A checkpoint made for the anchor file at `anchors`, optionally edited."""
    anchor_set, _ = load_anchors(anchors)
    net = NetConfig(frames=anchor_set.frames, joints=anchor_set.joints, hidden=8, layers=1)
    params = init_params(net, 0, anchors=anchor_set)
    if edit is not None:
        edit(params.tensors)
    ck = str(tmp_path / "paired.bin")
    fileio.save_checkpoint(ck, params)
    return ck


def _rewrite_manifest(src, dst, edit):
    manifest, payload, _ = fileio.read_file(src)
    edit(manifest)
    fileio.write_file(dst, manifest, payload)
    return dst


@pytest.mark.parametrize("kind,key,edit", [
    ("dataset", "frames", lambda m: m.pop("frames")),
    ("dataset", "frames", lambda m: m.update(frames="a")),
    ("dataset", "frames", lambda m: m.update(frames=-1)),
    ("checkpoint", "view_order", lambda m: m["config"].update(view_order=["spatial", "temporal"])),
    ("checkpoint", "shape_params", lambda m: m["config"].update(shape_params=12)),
    ("checkpoint", "repeats the name", lambda m: m["tensors"].append(m["tensors"][0])),
    ("dataset", "native", lambda m: m["clip_meta"][0].pop("native")),
    ("dataset", "out of range", lambda m: m["clip_meta"][3]["native"].update(pose3d=99)),
    ("dataset", "id", lambda m: m["clip_meta"][1].update(id=7)),
    ("dataset", "virtual joints", lambda m: m["clip_meta"][2]["native"].update(pose3d=2)),
    ("anchors", "native", lambda m: m["anchors"][1]["input"].update(native="x")),
    ("anchors", "modality", lambda m: m["anchors"][2]["target"].update(modality="video")),
    ("anchors", "source_index", lambda m: m["anchors"][1].update(source_index=-2)),
    ("anchors", "domain", lambda m: m["anchors"][0].pop("domain")),
    ("anchors", "virtual joints", lambda m: m["anchors"][1]["target"].update(native=1)),
    ("anchors", "corpus_seed", lambda m: m["meta"].pop("corpus_seed")),
    ("anchors", "domains", lambda m: m["meta"].update(domains=[1])),
    ("anchors", "domains", lambda m: m["meta"].update(domains="pe")),
    ("anchors", "selection_trace", lambda m: m.update(selection_trace=[None])),
], ids=["dataset-no-frames", "dataset-frames-str", "dataset-frames-negative",
        "checkpoint-view-order", "checkpoint-shape-params", "checkpoint-repeated-name",
        "clip-no-native", "clip-native-too-large", "clip-id-int", "clip-native-below-payload",
        "anchor-native-str", "anchor-bad-modality", "anchor-source-index", "anchor-no-domain",
        "anchor-native-below-payload", "anchor-meta-no-corpus-seed", "anchor-meta-domain-int",
        "anchor-meta-domains-str", "anchor-trace-null"])
def test_bad_manifest_fields_exit_2(pipeline, capsys, kind, key, edit):
    tmp_path, data, anchors = pipeline
    bad = str(tmp_path / "bad.bin")
    if kind == "dataset":
        argv = ["derive", "--dataset", _rewrite_manifest(data, bad, edit)]
    elif kind == "anchors":
        argv = ["retrieve", "--dataset", data, "--anchors", _rewrite_manifest(anchors, bad, edit)]
    else:
        argv = ["eval", "--dataset", data, "--anchors", anchors, "--checkpoint",
                _rewrite_manifest(_paired_checkpoint(tmp_path, anchors), bad, edit)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and key in err and "Traceback" not in err


def test_retrieve_ignores_a_stored_mask_ratio(pipeline, capsys):
    # Older anchor files also store the (then configurable) mask ratio in meta.
    tmp_path, data, anchors = pipeline
    old = _rewrite_manifest(anchors, str(tmp_path / "old.bin"),
                            lambda m: m["meta"].update(mask_ratio=0.4))
    code, out, err = run(capsys, "retrieve", "--dataset", data, "--anchors", old)
    assert code == 0 and err == "" and "best anchor" in out


def _poke_payload(src, dst, offset, fmt, value):
    """Copy src to dst with one little-endian value packed at a payload offset."""
    manifest, payload, _ = fileio.read_file(src)
    raw = bytearray(payload)
    struct.pack_into(fmt, raw, offset, value)
    fileio.write_file(dst, manifest, bytes(raw))
    return dst


@pytest.mark.parametrize("kind", ["dataset-nan", "dataset-beta-inf", "checkpoint-nan",
                                  "anchor-rest-pose-moved", "anchor-soft-factor-inf"])
def test_bad_payload_values_exit_2(pipeline, capsys, kind):
    tmp_path, data, anchors = pipeline
    bad = str(tmp_path / "bad.bin")
    anchor_set, _ = load_anchors(anchors)
    if kind.startswith("dataset"):
        # Dataset payload: three (2F, J, 3) float32 blocks per clip, then the betas.
        clips = load_dataset(data)
        offset, value = 0, float("nan")
        if kind == "dataset-beta-inf":
            offset, value = len(clips) * 3 * clips[0].pose3d.values.array.nbytes // 2, float("inf")
        argv = ["derive", "--dataset", _poke_payload(data, bad, offset, "<f", value)]
    elif kind == "checkpoint-nan":
        argv = ["eval", "--dataset", data, "--anchors", anchors, "--checkpoint",
                _poke_payload(_paired_checkpoint(tmp_path, anchors), bad, 0, "<d", float("nan"))]
    else:
        # Anchor payload: inputs, targets, input betas, target betas (float32),
        # then the soft factors (float64); anchor 0 leads each block.
        a, f, j = len(anchor_set), anchor_set.frames, anchor_set.joints
        offset, fmt, value = 0, "<f", 1.0
        if kind == "anchor-soft-factor-inf":
            offset, fmt, value = (2 * a * f * j * 3 + 2 * a * 10) * 4, "<d", float("inf")
        argv = ["retrieve", "--dataset", data,
                "--anchors", _poke_payload(anchors, bad, offset, fmt, value)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "invalid" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "sample-anchors"])
@pytest.mark.parametrize("key,value", [("mask_ratio", 0.8), ("max_steps", 3)])
def test_removed_config_keys_are_unknown(pipeline, capsys, command, key, value):
    tmp_path, data, anchors = pipeline
    cfg = write_json(tmp_path / "old.json", {key: value})
    argv = [command, "--dataset", data, "--config", cfg, "--out", str(tmp_path / "o.bin")]
    if command == "train":
        argv += ["--anchors", anchors]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert f"unknown config key {key!r}" in err


# The five commands that seed numpy generators, each with a config that keeps it small.
SEED_PATHS = {
    "synth": {},
    "train": {"layers": 1, "epochs": 1, "steps_per_epoch": 1, "batch_size": 2},
    "gradcheck": {"frames": 2, "joints": 2, "hidden": 3, "layers": 1},
    "random": {"k": 4, "hidden": 4},
    "cluster": {"k": 4, "hidden": 4},
}


def _seed_argv(pipeline, path, config):
    tmp_path, data, anchors = pipeline
    cfg = write_json(tmp_path / f"{path}.json", {**SEED_PATHS[path], **config})
    out = ["--config", cfg, "--out", str(tmp_path / f"{path}.bin")]
    return {
        "synth": ["synth"] + out,
        "train": ["train", "--dataset", data, "--anchors", anchors] + out,
        "gradcheck": ["gradcheck", "--config", cfg],
        "random": ["sample-anchors", "--dataset", data, "--method", "random"] + out,
        "cluster": ["sample-anchors", "--dataset", data, "--method", "cluster"] + out,
    }[path]


@pytest.mark.parametrize("path", sorted(SEED_PATHS))
def test_seeds_are_integers_reduced_mod_2_63(pipeline, capsys, path):
    code, _, err = run(capsys, *_seed_argv(pipeline, path, {}), "--seed", "-1")
    assert code == 0, err
    for bad in ("x", 1.5, True):
        code, _, err = run(capsys, *_seed_argv(pipeline, path, {"seed": bad}))
        assert code == 1
        assert err == f"error: seed must be an integer, got {bad!r}\n"


def test_negative_seed_is_taken_mod_2_63(pipeline, capsys):
    tmp_path, data, _ = pipeline
    ours, ref = str(tmp_path / "neg_synth.bin"), str(tmp_path / "ref_synth.bin")
    assert run(capsys, "synth", "--seed", "-1", "--out", ours)[0] == 0
    fileio.save_dataset(ref, make_dataset(SynthConfig(seed=2 ** 63 - 1)))
    assert open(ours, "rb").read() == open(ref, "rb").read()
    # The corpus was already derived mod 2^63, so sps picks are those of seed -1.
    cfg = write_json(tmp_path / "neg.json", {"hidden": 4})
    code, out, _ = run(capsys, "sample-anchors", "--dataset", data, "--k", "5", "--domains",
                       "pe,mr", "--config", cfg, "--seed", "-1",
                       "--out", str(tmp_path / "neg.bin"))
    assert code == 0
    want = sps_sample(anchor_corpus(load_dataset(data), domains=("pe", "mr"), seed=-1), 5,
                      hidden_dim=4)
    steps = [line for line in out.splitlines() if line.startswith("step ")]
    assert steps == [f"step {i}: corpus index {a.source_index} (domain {a.domain}, "
                     f"max-min {v:.6f})"
                     for i, (a, v) in enumerate(zip(want.anchors[1:], want.selection_trace), 1)]


@pytest.mark.parametrize("edit,name", [
    (lambda t: t.update({"enc_p.bias": t.pop("enc_p.b")}), "enc_p.b"),
    (lambda t: t.pop("layer0.q.spatial.ln.g"), "layer0.q.spatial.ln.g"),
    (lambda t: t.update({"head.pos.b": NdBuffer(np.zeros(4))}), "head.pos.b"),
    (lambda t: t.update({"layer1.compress.b": NdBuffer(np.zeros(3))}), "layer1.compress.b"),
], ids=["renamed", "missing", "reshaped", "extra"])
def test_eval_rejects_a_network_tensor_its_config_lacks(pipeline, capsys, edit, name):
    tmp_path, data, anchors = pipeline
    ck = _paired_checkpoint(tmp_path, anchors, edit)
    code, _, err = run(capsys, "eval", "--dataset", data, "--anchors", anchors, "--checkpoint", ck)
    assert code == 2
    assert err.startswith(f"error: checkpoint tensor {name!r} does not match its network config")


def test_eval_checks_the_pairing_without_drawing_parameters(pipeline, capsys, monkeypatch):
    tmp_path, data, anchors = pipeline
    argv = ["eval", "--dataset", data, "--anchors", anchors,
            "--checkpoint", _paired_checkpoint(tmp_path, anchors)]
    want = run(capsys, *argv)

    def no_draws(*args, **kwargs):
        raise AssertionError("eval drew a parameter initialization")

    monkeypatch.setattr(network, "init_params", no_draws)
    monkeypatch.setattr(cli, "init_params", no_draws)
    assert run(capsys, *argv) == want and want[0] == 0


@pytest.mark.parametrize("k,hidden", [(12, 8), (4, 8), (6, 4)])
def test_eval_rejects_soft_factors_of_another_anchor_file(pipeline, capsys, k, hidden):
    # The checkpoint holds soft.0..5 for the 6-anchor pipeline file; a file
    # with other anchors, or the same count at another width, does not pair.
    tmp_path, data, anchors = pipeline
    ck = _paired_checkpoint(tmp_path, anchors)
    other = str(tmp_path / "other.bin")
    cfg = write_json(tmp_path / "other.json", {"hidden": hidden})
    assert main(["sample-anchors", "--dataset", data, "--k", str(k), "--domains", "pe,mp_p",
                 "--config", cfg, "--out", other]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "eval", "--dataset", data, "--anchors", other, "--checkpoint", ck)
    assert code == 1
    assert err.startswith(f"error: checkpoint holds soft factors for 6 anchors, "
                          f"but the anchor file has {k} anchors of F=")
    assert f"H={hidden}" in err


@pytest.mark.parametrize("command,config,message", [
    ("sample-anchors", {"k": "x"}, "k must be an integer, got 'x'"),
    ("synth", {"clips": 2.5}, "clips must be an integer, got 2.5"),
    ("train", {"epochs": "2"}, "epochs must be an integer, got '2'"),
    ("train", {"layers": True}, "layers must be an integer, got True"),
    ("train", {"learning_rate": "0.1"}, "learning_rate must be a number, got '0.1'"),
    ("train", {"steps_per_epoch": "2"}, "steps_per_epoch must be an integer >= 1, got '2'"),
    ("sample-anchors", {"method": 1}, "method must be a string, got 1"),
    ("synth", {"amplitude": 10 ** 400}, "amplitude is out of range"),
    ("train", {"steps_per_epoch": True}, "steps_per_epoch must be an integer >= 1, got True"),
    ("train", {"learning_rate": float("nan"), "steps_per_epoch": 2},
     "non-finite number NaN in config file"),
    ("train", {"position_weight": float("nan")}, "non-finite number NaN in config file"),
    ("synth", {"cluster_spread": float("inf")}, "non-finite number Infinity in config file"),
], ids=["k", "clips", "epochs", "bool", "float", "steps", "method", "overflow", "steps-bool",
        "nan-rate", "nan-weight", "inf-spread"])
def test_config_values_must_have_their_default_type(pipeline, capsys, command, config, message):
    tmp_path, data, anchors = pipeline
    cfg = write_json(tmp_path / "typed.json", config)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o.bin")]
    if command != "synth":
        argv += ["--dataset", data]
    if command == "train":
        argv += ["--anchors", anchors]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("text", ["-Infinity", "1e400"])
def test_config_number_beyond_float64_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"amplitude": %s}' % text)
    code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "o.bin"))
    assert code == 1
    assert err == f"error: non-finite number {text} in config file {cfg}\n"
    assert not (tmp_path / "o.bin").exists()


@pytest.mark.parametrize("method", ["sps", "random", "cluster"])
@pytest.mark.parametrize("hidden", [0, -1])
def test_sample_anchors_rejects_a_hidden_width_below_one(pipeline, capsys, method, hidden):
    tmp_path, data, _ = pipeline
    cfg = write_json(tmp_path / "hidden.json", {"hidden": hidden})
    out = tmp_path / "no_anchors.bin"
    code, _, err = run(capsys, "sample-anchors", "--dataset", data, "--k", "3", "--method",
                       method, "--config", cfg, "--out", str(out))
    assert code == 1
    assert err == f"error: hidden width must be >= 1, got {hidden}\n"
    assert not out.exists()


def test_float_config_value_takes_an_integer(pipeline, capsys, monkeypatch):
    tmp_path, data, anchors = pipeline
    seen = []
    monkeypatch.setattr(cli, "train", lambda clips, anchor_set, params, config:
                        seen.append(config) or [])
    cfg = write_json(tmp_path / "int_rate.json", {"learning_rate": 1, "position_weight": 2})
    assert run(capsys, "train", "--dataset", data, "--anchors", anchors, "--config", cfg,
               "--out", str(tmp_path / "ck.bin"))[0] == 0
    assert type(seen[-1].learning_rate) is float and seen[-1].learning_rate == 1.0
    assert seen[-1].weights == LossWeights(position=2.0)


@pytest.mark.parametrize("command", ["retrieve", "derive", "eval"])
def test_commands_without_settings_reject_config(pipeline, capsys, command):
    tmp_path, data, anchors = pipeline
    cfg = write_json(tmp_path / "unused.json", {"seed": 1})
    argv = [command, "--dataset", data, "--anchors", anchors, "--config", cfg]
    if command == "eval":
        argv += ["--checkpoint", _paired_checkpoint(tmp_path, anchors)]
    elif command == "derive":
        argv = argv[:3] + argv[5:]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: unrecognized arguments: --config")


@pytest.mark.parametrize("command", ["retrieve", "derive", "eval"])
def test_config_free_commands_take_the_seed_mod_2_63(pipeline, capsys, command):
    tmp_path, data, anchors = pipeline
    argv = {
        "retrieve": ["retrieve", "--dataset", data, "--anchors", anchors, "--clip", "2",
                     "--domains", "jc_p"],
        "derive": ["derive", "--dataset", data, "--domains", "mib_p,jc_m"],
        "eval": ["eval", "--dataset", data, "--anchors", anchors,
                 "--checkpoint", _paired_checkpoint(tmp_path, anchors)],
    }[command]
    top = str(2 ** 63 - 1)
    runs = {seed: run(capsys, *argv, "--seed", seed) for seed in ("-1", top, "0", "1")}
    assert runs["-1"][0] == 0 and runs["-1"] == runs[top]
    assert len({out for _, out, _ in runs.values()}) > 1  # the seed reaches the tasks
