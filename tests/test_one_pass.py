"""One module assembles the network pass: only training.py calls network's
`forward` or `loss`, so what training minimizes is what the gradient check
differentiates."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motionctx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "training.py"))
PASS = ("forward", "loss")


def pass_calls(source: str) -> list[str]:
    """`name (line N)` for each call of network's `forward` or `loss` in
    `source`: by a name imported from `.network`, or as `network.<name>`."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "network"
                for alias in node.names if alias.name in PASS}
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id in imported:
            calls.append(f"{imported[func.id]} (line {node.lineno})")
        elif (isinstance(func, ast.Attribute) and func.attr in PASS
              and isinstance(func.value, ast.Name) and func.value.id == "network"):
            calls.append(f"{func.attr} (line {node.lineno})")
    return calls


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_training_calls_forward_or_loss(path):
    assert pass_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_imported_and_qualified_calls():
    source = ("from .network import forward as fwd, init_params\n"
              "from . import network\n"
              "fwd(1)\n"
              "init_params(2)\n"
              "total = network.loss(3)\n"
              "forward(4)\n")
    assert pass_calls(source) == ["forward (line 3)", "loss (line 5)"]
