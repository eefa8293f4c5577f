"""Outside-in tracing: spans around the public functions of every ghzgame module.

The tracer rebinds each public function, in its own module and in every
module that imported it by name, to a wrapper that records one span: name,
start, end, parent span and command id.  Spans live in flat arrays while the
run lasts and are written out once it ends.  A few boundaries also record a
work counter taken from the call's own arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("core", "classical", "quantum", "noise", "cli")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dense_checked(args, kwargs, result) -> dict[str, int]:
    q = _arg(args, kwargs, 0, "q")
    size = 1 << q.n
    return {
        "quantum.dense_amplitudes": size,
        # computed, not measured: each full-vector gate layer (one phase gate
        # per 1-input, then n Hadamard layers) reads and writes 2^n complex128s
        "quantum.dense_bytes_computed": 2 * 16 * size * (q.weight + q.n),
        "quantum.dense_mismatches": int(not result),
    }


#: work counters recorded at a function's boundary, from its inputs or result
COUNTERS = {
    "core.legitimate_bits": lambda a, k, r: {"core.questions_enumerated": len(r)},
    "classical.win_count_table": lambda a, k, r: {"classical.strategies_covered": len(r)},
    "classical.exhaustive_best": lambda a, k, r: {"classical.witnesses_built": len(r[1])},
    "noise.errorfree_exhaustive": lambda a, k, r: {
        "noise.tables_covered": 9 ** _arg(a, k, 0, "cfg").n
    },
    "noise.bitflip_monte_carlo": lambda a, k, r: {"noise.mc_trials": _arg(a, k, 2, "trials")},
    "noise.compare_report": lambda a, k, r: {"noise.grid_points": len(r)},
    "quantum.sample_answers": lambda a, k, r: {
        "quantum.rounds_sampled": _arg(a, k, 1, "trials"),
        "quantum.answers_built": len(r),
    },
    "quantum.dense_matches_analytic": _dense_checked,
}
COUNT_NAMES = (
    "core.questions_enumerated",
    "classical.strategies_covered",
    "classical.witnesses_built",
    "noise.tables_covered",
    "noise.mc_trials",
    "noise.grid_points",
    "quantum.rounds_sampled",
    "quantum.answers_built",
    "quantum.dense_amplitudes",
    "quantum.dense_bytes_computed",
    "quantum.dense_mismatches",
    "cli.report_bytes",
    "cli.commands",
    "cli.commands_failed",
)
#: the call whose own allocation peak is recorded with tracemalloc
PEAK_TRACKED = "noise.bitflip_monte_carlo"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module, plus any re-exporting modules
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.command_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.command = -1
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.peak_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # rebind names imported with `from ... import` too, or nested calls go untimed
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_of, parent, command_of = self.name_of, self.parent, self.command_of
        start, end = self.start, self.end
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            command_of.append(tracer.command)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[key] += amount
            return result

        if name != PEAK_TRACKED:
            return traced

        @functools.wraps(fn)
        def peak_traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return peak_traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "command": np.array(self.command_of, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans run on one thread and children nest inside their parent without
    overlapping each other, so the covered time is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self time and total inclusive time."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    k = len(spans["names"])
    calls = np.bincount(spans["name"], minlength=k)
    self_s = np.bincount(spans["name"], weights=own, minlength=k)
    total_s = np.bincount(spans["name"], weights=duration, minlength=k)
    return {
        str(name): {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "total_s": float(total_s[i]),
        }
        for i, name in enumerate(spans["names"])
    }
