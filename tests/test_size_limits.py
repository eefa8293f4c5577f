"""Each size limit has one owner: a sweep's variable is named once, only `core`
reads it, and the analytic limit, the int64 round limit and the int-to-string
digit limit are each refused in one place.

The sources are read as text and parsed with `ast`, never imported, so a
second copy of a limit's policy shows up here rather than as two refusals
that drift apart.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ghzgame"
LIMIT_VARIABLES = {"GAME_EXHAUSTIVE_LIMIT", "GAME_DENSE_LIMIT", "GAME_EXTENDED_LIMIT"}


def sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_each_limit_variable_is_named_once():
    named = [m for text in sources().values() for m in re.findall(r"GAME_\w+_LIMIT", text)]
    assert sorted(named) == sorted(LIMIT_VARIABLES)


def test_only_core_reads_the_environment():
    readers = set()
    for name, text in sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            else:
                continue
            if used & {"environ", "getenv"}:
                readers.add(name)
    assert readers == {"core.py"}


def test_the_analytic_limit_is_refused_in_one_place():
    refusals = {name: text.count("exceeds the analytic limit") for name, text in sources().items()}
    assert {name: count for name, count in refusals.items() if count} == {"quantum.py": 1}


def test_the_int64_round_limit_is_refused_in_one_place():
    refusals = {name: text.count("is more than") for name, text in sources().items()}
    assert {name: count for name, count in refusals.items() if count} == {"quantum.py": 1}


def test_the_digit_limit_is_refused_in_one_place():
    refusals = {name: text.count("get_int_max_str_digits") for name, text in sources().items()}
    assert {name: count for name, count in refusals.items() if count} == {"cli.py": 1}
    assert sum(text.count("whose bound has") for text in sources().values()) == 1
