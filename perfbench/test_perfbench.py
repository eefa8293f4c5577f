"""Self-tests of the benchmark: span arithmetic, verification, trace transparency.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from workloads import Command


@pytest.fixture(scope="module")
def modules():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        for name, value in run.PROGRAM_ENV.items():
            mp.setenv(name, value)
        for name in run.CLEARED_ENV:
            mp.delenv(name, raising=False)
        yield run.import_program()


def command(argv, check=lambda report: []) -> Command:
    return Command("test", (*argv, "--format", "json"), 0, check)


def report_of(modules, *argv: str) -> dict:
    elapsed, problems, text = run.run_command(modules["cli"], command(argv))
    assert problems == []
    return json.loads(text)


def test_self_times_subtract_only_direct_children():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]

    summary = spans.summarize(
        {
            "names": np.array(["a", "b"]),
            "name": np.array([0, 1, 1, 1]),
            "start": start,
            "end": end,
            "parent": parent,
        }
    )
    assert summary["a"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert summary["b"] == {"calls": 3, "self_s": 7.0, "total_s": 8.0}


def test_tail_leaves_ten_commands_beyond():
    latencies = [float(i) for i in range(40)]
    percentile, value = run.tail(latencies)
    assert value == 29.0 and sum(x > value for x in latencies) == run.TAIL_BEYOND
    assert percentile == 75.0


def test_grid_is_exact_and_flags_are_decided_exactly():
    assert checks.parse_grid("0.5:1.0:0.25") == [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    assert checks.parse_grid("0.9") == [Fraction(9, 10)]
    assert checks.bitflip_quantum_wins(3, Fraction("0.897"))
    assert not checks.bitflip_quantum_wins(3, Fraction("0.896"))
    assert checks.detection_quantum_wins(3, Fraction("0.794"))
    assert not checks.detection_quantum_wins(3, Fraction("0.793"))


def test_missing_errorfree_record_is_a_failure(modules):
    n_text, eta_text = "3..4", "0.5:1.0:0.1"
    argv = ("detect", "--n", n_text, "--eta", eta_text)
    assert checks.check_detect(report_of(modules, *argv), n_text, eta_text) == []

    def tampered(report):
        records = report["records"]
        report["records"] = [r for r in records if (r["kind"], r["n"]) != ("errorfree", 4)]
        return checks.check_detect(report, n_text, eta_text)

    result = run.execute(modules["cli"], [command(argv, tampered)], run.Run())
    assert len(result.failures) == 1 and "errorfree" in result.failures[0]


def test_report_without_an_expected_field_is_a_failure(modules):
    def tampered(report):
        del report["records"][0]["witness_count"]
        return checks.check_search(report, 6)

    result = run.execute(modules["cli"], [command(("search", "--n", "6"), tampered)], run.Run())
    assert len(result.failures) == 1 and "malformed report" in result.failures[0]


def test_estimate_six_standard_errors_off_is_a_failure(modules):
    trials = 5000
    argv = ("noise", "--n", "3", "--p", "0.9", "--trials", str(trials), "--seed", "3")
    assert checks.check_noise(report_of(modules, *argv), "3", "0.9", trials) == []

    def tampered(report):
        rec = next(r for r in report["records"] if r["kind"] == "monte-carlo")
        truth = float(checks.bitflip_win_prob(3, Fraction("0.9")))
        rec["estimate"] = truth + 6 * math.sqrt(truth * (1 - truth) / trials)
        return checks.check_noise(report, "3", "0.9", trials)

    result = run.execute(modules["cli"], [command(argv, tampered)], run.Run())
    assert len(result.failures) == 1 and "SE" in result.failures[0]


def test_traced_run_emits_identical_reports_and_covers_every_layer(modules):
    commands = [
        command((*argv, "--seed", "11"))
        for argv in (
            ("search", "--n", "5"),
            ("detect", "--n", "3", "--eta", "0.8:0.9:0.05"),
            ("quantum", "--n", "6", "--trials", "3", "--dense-check"),
            ("noise", "--n", "3..4", "--p", "0.85:0.95:0.05", "--trials", "500"),
            ("report",),
        )
    ]
    untraced = run.execute(modules["cli"], commands, run.Run())
    tracer = spans.Tracer(modules)
    with tracer:
        traced = run.execute(modules["cli"], commands, run.Run(), tracer, expect=untraced.digests)
    assert traced.failures == [] and traced.digests == untraced.digests
    assert modules["core"].legitimate_bits.__name__ == "legitimate_bits"
    # unwrapped again
    assert modules["classical"].legitimate_bits is modules["core"].legitimate_bits

    arrays = tracer.arrays()
    summary = spans.summarize(arrays)
    for layer in spans.LAYERS:
        assert sum(s["calls"] for name, s in summary.items() if name.startswith(f"{layer}.")) > 0
    # names imported with `from ... import` were rebound, so nested calls were timed
    names = arrays["names"][arrays["name"]]
    callers = {
        (names[parent], name) for name, parent in zip(names, arrays["parent"]) if parent >= 0
    }
    assert ("quantum.sample_answers", "core.target_parity") in callers
    assert ("cli.cmd_quantum", "core.target_parity") in callers
    assert ("classical.win_count_table", "core.legitimate_bits") in callers
    assert ("noise.errorfree_exhaustive", "core.legitimate_bits") in callers
    assert ("noise.compare_report", "classical.classical_bound") in callers
    covered = sum(s["self_s"] for s in summary.values())
    assert covered == pytest.approx(summary["cli.main"]["total_s"])


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).parent
    ignore = shutil.ignore_patterns("__pycache__", "test_*")
    shutil.copytree(bench, tmp_path / bench.name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "dense", "--seed", "1"]
        + ["--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
