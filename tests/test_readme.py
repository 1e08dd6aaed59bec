"""The README's examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from gmarr.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "((2, 4), (2, 5))" in proc.stdout.splitlines()


def test_readme_gmarr_commands_exit_0(monkeypatch, capsys):
    commands = [
        line
        for block in re.findall(r"```sh\n(.*?)```", README, re.S)
        for line in block.splitlines()
        if line.startswith("gmarr ")
    ]
    assert commands
    monkeypatch.chdir(ROOT)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_readme_shown_output_matches(monkeypatch, capsys):
    (block,) = re.findall(r"```\n\$ (gmarr connection .*?)```", README, re.S)
    command, *shown = block.splitlines()
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    for want, got in zip(shown, printed):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (want, got)
        else:
            assert got == want
