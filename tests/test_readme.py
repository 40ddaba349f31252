"""The commands of the README's CLI section must run as written."""

import re
import shlex
from pathlib import Path

from bo_soliton.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The ``bo-soliton`` lines of the ``sh`` block under ``## CLI``, with
    ``\\`` continuations joined and each ``[--flag]`` run without and with
    the flag."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line.startswith("bo-soliton "):
            continue
        argv = shlex.split(line)[1:]
        optional = [a for a in argv if re.fullmatch(r"\[.+\]", a)]
        plain = [a for a in argv if a not in optional]
        commands.append(plain)
        if optional:
            commands.append(plain + [a[1:-1] for a in optional])
    return commands


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = readme_cli_commands()
    assert {c[0] for c in commands} == {"synth", "spectrum", "evolve",
                                        "torus", "validate"}
    assert ["validate", "--n", "8", "--trials", "25", "--seed", "42",
            "--with-pde"] in commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.csv").write_text("x,eta\n-3,1\n0,0.7\n4,1.5\n")
    failed = [(c, code) for c in commands if (code := main(c)) != 0]
    assert not failed, (failed, capsys.readouterr().err)
