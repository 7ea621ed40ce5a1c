"""Runs every ``python`` block of README.md in a fresh interpreter, and
every ``birkhoff`` command line of its ``sh`` blocks in order, so a
renamed or removed name or a stale example fails here."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from birkhoff.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```\n", README,
                    re.MULTILINE | re.DOTALL)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```\n", README,
                            re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
    if line.startswith("birkhoff ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(tmp_path, code):
    path = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    """Each command sees the files the ones before it wrote."""
    assert COMMANDS
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0, (argv, err)
