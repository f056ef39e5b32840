"""The quick demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", ["01_unified_motion.py", "02_prompt_sampling.py"])
def test_demo_runs(name):
    assert run_demo(name)


def test_fileio_demo_reports_each_corruption():
    out = run_demo("05_fileio.py")
    assert "save(load(file)) is byte-identical: True" in out
    truncation = [line for line in out.splitlines() if line.strip().startswith("truncation:")]
    assert len(truncation) == 1 and "expected exactly" in truncation[0]
