"""The README's CLI session, replayed: every output line it shows reproduces."""

import re
import shlex
from pathlib import Path

from motionctx.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_session() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) per `$ ` command of the "Quick start (CLI)" block."""
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        elif line.strip():
            steps[-1][1].append(line)
    return steps


def test_readme_cli_session_reproduces(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = cli_session()
    assert [argv[0] for argv, _ in steps].count("motionctx") >= 5
    for argv, shown in steps:
        if argv[0] == "echo":
            text, redirect, name = argv[1:]
            assert redirect == ">"
            (tmp_path / name).write_text(text + "\n")
            continue
        assert argv[0] == "motionctx"
        expected = [line for line in shown if "..." not in line]
        if shown and not expected:
            continue  # output fully elided (gradcheck's full-network check is slow)
        assert main(argv[1:]) == 0, argv
        out = iter(capsys.readouterr().out.splitlines())
        for line in expected:
            assert any(got == line for got in out), (argv, line)
