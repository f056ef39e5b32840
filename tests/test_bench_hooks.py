"""The benchmark's traced run wraps library names in place; they must exist."""

import sys
from pathlib import Path

from motionctx import fileio, nd, network, prompting, synth, training

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_tracer_patches_existing_names_and_restores_them():
    owners = (fileio, nd.Tape, network, prompting, prompting.AnchorSet, synth, training,
              training.AdamWState)
    before = [dict(vars(owner)) for owner in owners]
    with spans.Tracer("t").patched():
        during = [dict(vars(owner)) for owner in owners]
    changed = {(owner, name) for owner, old, new in zip(owners, before, during)
               for name in old if new[name] is not old[name]}
    assert (training, "derive_task") in changed and (nd.Tape, "grad") in changed
    for owner, old in zip(owners, before):
        after = vars(owner)
        assert all(after[name] is value for name, value in old.items()), owner.__name__
