"""The README's Library and CLI examples run as written, and its list of
descriptor kinds matches the catalog."""

import re
import shlex
import tomllib
from pathlib import Path

import pytest

from skabelund.catalog import KINDS
from skabelund.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block(section: str) -> str:
    """The first fenced code block under the README heading `## <section>`."""
    match = re.search(rf"^## {section}\n.*?^```[a-z]*\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no code block under '## {section}'"
    return match.group(1)


CLI_COMMANDS = [
    shlex.split(line, comments=True) for line in _block("CLI").splitlines() if line.strip()
]


def test_library_example_runs(capsys):
    exec(compile(_block("Library"), "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", CLI_COMMANDS, ids=" ".join)
def test_cli_example_exits_zero(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    program, *argv = command
    assert program == "skabelund"
    assert main(argv) == 0


def test_readme_lists_every_kind_with_its_parameters():
    """The README's kind list is KINDS: name:parameters per kind, in order."""
    match = re.search(r"^Descriptor kinds and their parameters: (.*?)\.\s", README, re.M | re.S)
    assert match, "README has no 'Descriptor kinds and their parameters:' line"
    listed = re.findall(r"`([^`]*)`", match.group(1))
    assert listed == [f"{kind.name}:{','.join(kind.cls._fields)}" for kind in KINDS]


def test_readme_states_the_python_floor_of_pyproject():
    """The README's "Requires Python >= X" is pyproject's requires-python."""
    stated = re.findall(r"^Requires Python (>= ?[0-9.]+)", README, re.M)
    assert len(stated) == 1, "README states no single Python minimum"
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert stated[0].replace(" ", "") == project["requires-python"]
