"""The README stays true to the code: every command line parses, the quick ones
run, and every module-qualified name it cites exists."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from ghzgame import cli

README = Path(__file__).parents[1] / "README.md"
#: commands whose README line takes seconds: these are only parsed
SLOW = {"quantum", "noise"}


def readme_commands() -> list[list[str]]:
    """The argv of every `game` line in the sh block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [words[1:] for words in lines if words and words[0] == "game"]


COMMANDS = readme_commands()


def test_readme_shows_every_command():
    assert [argv[0] for argv in COMMANDS] == ["bound", "search", "quantum", "noise", "detect", "report"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    args = cli.build_parser(argv).parse_args(argv)
    assert args.command == argv[0]


@pytest.mark.parametrize(
    "argv", [argv for argv in COMMANDS if argv[0] not in SLOW], ids=lambda argv: argv[0]
)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the files the lines name are written here
    assert cli.main(argv) == 0
    for flag in ("--witnesses", "--out"):
        if flag in argv:
            assert (tmp_path / argv[argv.index(flag) + 1]).stat().st_size > 0


def readme_names() -> list[str]:
    """Every backticked dotted name the README cites from a module, e.g. `core.answer_bits`."""
    text = README.read_text(encoding="utf-8")
    return sorted(set(re.findall(r"`((?:core|classical|quantum|noise|cli)(?:\.\w+)+)", text)))


def test_readme_cites_names_of_every_module():
    modules = {name.split(".")[0] for name in readme_names()}
    assert modules == {"core", "classical", "quantum", "noise", "cli"}


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_exists(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"ghzgame.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README cites {name}, which does not exist"
        obj = getattr(obj, attr)
