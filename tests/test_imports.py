"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motionctx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """`name (line N)` for each imported name that `source` never reads. An
    alias whose own line carries `# noqa: F401` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names if getattr(node, "module", None) != "__future__" else ():
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, "annotation", None) or getattr(node, "returns", None)
                   for node in ast.walk(tree)]
    for part in (n for a in annotations if a is not None for n in ast.walk(a)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            # a quoted annotation such as "nd.GradCheckReport"
            used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_alias_and_honours_noqa():
    source = ("import numpy as np\n"
              "from .errors import (ConfigError, DimensionError,  # noqa: F401\n"
              "                     StateError)\n"
              "x: 'np.ndarray' = ConfigError\n")
    assert unused_imports(source) == ["StateError (line 3)"]
