"""The README's command lines run: every `plaplab` line of the bash block
under "Command line" exits 0, with the sweep configuration shown there as
grid.cfg."""

import re
import shlex
from pathlib import Path

from plaplab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_blocks():
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"```(\w*)\n(.*?)```", section, re.S))


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    blocks = command_line_blocks()
    commands = [line for line in blocks["bash"].splitlines() if line.startswith("plaplab ")]
    assert len(commands) >= 5
    (tmp_path / "grid.cfg").write_text(blocks[""])
    monkeypatch.chdir(tmp_path)
    for line in commands:
        argv = shlex.split(line)[1:]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0, f"{line}: exit {code}\n{err}"
    assert (tmp_path / "table.csv").exists()
