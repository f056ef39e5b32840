"""Command-line surface: pipelines, determinism, exit-code classes."""

import json
import re

import numpy as np
import pytest

from motionctx.cli import main
from motionctx.fileio import load_anchors, load_checkpoint, load_dataset
from motionctx.motion import derive_task
from motionctx.network import NetConfig, init_params
from motionctx.prompting import retrieve_prompt
from motionctx.training import derive_seed


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


def test_train_then_eval_pipeline(pipeline, capsys):
    tmp_path, data, anchors = pipeline
    ck = str(tmp_path / "ck.bin")
    cfg = write_json(tmp_path / "t.json", {"hidden": 8, "layers": 1, "epochs": 1,
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
    cfg = write_json(tmp_path / "t0.json", {"hidden": 8, "layers": 1, "epochs": 1,
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


def test_gradcheck_passes_at_toy_shapes(tmp_path, capsys):
    cfg = write_json(tmp_path / "g.json", {"frames": 2, "joints": 2, "hidden": 3,
                                           "layers": 1})
    code, out, _ = run(capsys, "gradcheck", "--config", cfg, "--seed", "0")
    assert code == 0
    assert "PASS" in out


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
    # hidden width disagrees with the anchor file
    cfg = write_json(tmp_path / "mismatch.json", {"hidden": 16, "layers": 1})
    assert run(capsys, "train", "--dataset", data, "--anchors", anchors,
               "--config", cfg, "--out", str(tmp_path / "ck.bin"))[0] == 1


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


def test_numeric_class_failures_exit_3(tmp_path, capsys):
    cfg = write_json(tmp_path / "h.json", {"amplitude": 1e150})
    code, _, err = run(capsys, "synth", "--config", cfg, "--seed", "0",
                       "--out", str(tmp_path / "h.bin"))
    assert code == 3
    assert "overflow" in err
