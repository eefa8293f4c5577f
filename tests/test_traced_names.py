"""The benchmark in perfbench/ traces ghzgame functions by name; every name must exist.

The benchmark files are read with `ast`, never imported or changed.  A name
that no longer matches a public function of its module would otherwise only
show up as a KeyError, or a counter stuck at 0, in a `--trace 1` run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned(path: Path, target: str) -> ast.expr:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [target]:
            return node.value
    raise AssertionError(f"{path.name} assigns no {target}")


def traced_names() -> list[str]:
    names = [name for name, _ in ast.literal_eval(assigned(BENCH / "run.py", "SPAN_METRICS"))]
    names += [span for _, span in ast.literal_eval(assigned(BENCH / "run.py", "RATES")).values()]
    names += [key.value for key in assigned(BENCH / "spans.py", "COUNTERS").keys]
    return sorted(set(names))


def test_the_benchmark_names_traced_functions():
    assert "core.legitimate_bits" in traced_names()
    assert "classical.success_proportion" in traced_names()


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function_of_its_module(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"ghzgame.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn), f"ghzgame.{layer} has no function {attr}"
    assert fn.__module__ == module.__name__  # the tracer wraps functions where they are defined
