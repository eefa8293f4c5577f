"""ghzgame benchmark: closed-loop `game` commands, verified, timed end to end.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

One client in this process calls `ghzgame.cli.main(argv)` with
`--format json`, parses and verifies each report, and sends the next command
only when the previous one has returned.  The package is imported from
`src/` of the checkout this file sits in; nothing is installed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the workload
untraced for half the time, replays exactly the same commands with a span
around every public function of `core`, `classical`, `quantum`, `noise` and
`cli`, and prints the per-layer metrics.  The spans are saved to
`.perfbench/spans-<workload>.npz`.  The last line of standard output is
always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import WARMUP, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
#: fresh-interpreter launches behind setup_s; the median is reported
SETUP_LAUNCHES = 11
#: cmd_tail_s is the highest percentile with at least this many commands beyond it
TAIL_BEYOND = 10
#: the documented user setting that lets `search --n 9` run
PROGRAM_ENV = {"GAME_EXHAUSTIVE_LIMIT": "9"}
#: other limits stay at their defaults whatever the caller's environment says
CLEARED_ENV = ("GAME_DENSE_LIMIT", "GAME_EXTENDED_LIMIT")


class BenchmarkError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


@dataclass
class Run:
    commands: list[Command] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)  # wall time of each whole cycle
    wall_s: float = 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def bench(args) -> dict:
    modules = import_program()
    setup_times = [launch_s()]
    WORKDIR.mkdir(exist_ok=True)
    cli = modules["cli"]
    for warm in WARMUP:
        run_command(cli, Command("warm-up", (*warm, "--format", "json"), 0, lambda report: []))

    make_cycle, work_name = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    gc.collect()
    if args.trace:
        untraced = closed_loop(cli, make_cycle, rng, args.seconds / 2)
        tracer = spans.Tracer(modules)
        traced = Run()
        gc.collect()
        with tracer:
            execute(cli, untraced.commands, traced, tracer, expect=untraced.digests)
        tracer.save(WORKDIR / f"spans-{args.workload}.npz")
        runs = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
    else:
        measured = closed_loop(cli, make_cycle, rng, args.seconds, setup_times)
        runs = [measured]
        metrics = end_to_end(measured, statistics.median(setup_times))
    (WORKDIR / "witnesses.csv").unlink(missing_ok=True)

    attempted = sum(len(r.commands) for r in runs)
    failures = [f for r in runs for f in r.failures]
    print(json.dumps({"context": context(args, runs[0], work_name)}, sort_keys=True))
    for problem in failures[:20]:
        print(f"FAILED {problem}")
    print(f"{'fail_share':24s} {len(failures) / attempted:.6g} ratio")
    for name, metric in metrics.items():
        label = f"{work_name}_per_s" if name == "work_per_s" else name
        print(f"{label:24s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def import_program() -> dict:
    """The ghzgame modules from this checkout's src/, by layer name."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    for name, value in PROGRAM_ENV.items():
        os.environ[name] = value
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    try:
        package = importlib.import_module("ghzgame")
        modules = {layer: importlib.import_module(f"ghzgame.{layer}") for layer in spans.LAYERS}
    except ImportError as exc:
        raise BenchmarkError(f"cannot import ghzgame from {src}: {exc}") from None
    if Path(package.__file__).resolve().parent != src / "ghzgame":
        raise BenchmarkError(f"imported ghzgame from {package.__file__}, not from {src}")
    return {"ghzgame": package, **modules}


def launch_s() -> float:
    """Wall time of one fresh `python -m ghzgame.cli --version`."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ghzgame.cli", "--version"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchmarkError("`ghzgame.cli --version` did not return within 60 s") from None
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not proc.stdout.startswith("game "):
        raise BenchmarkError(f"`ghzgame.cli --version` failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def closed_loop(cli, make_cycle, rng: random.Random, seconds: float, setup_times=None) -> Run:
    """Whole cycles of commands until they have taken `seconds`, so every run has the same mix.

    Set-up launches, when asked for, go between cycles at an even pace, so
    their median samples the machine across the whole run.  They lie outside
    every timed command and cycle, and outside the `seconds` measured.
    """
    run = Run()
    while sum(run.cycle_s) < seconds:
        started = time.perf_counter()
        execute(cli, make_cycle(rng, WORKDIR), run)
        run.cycle_s.append(time.perf_counter() - started)
        done = min(1.0, sum(run.cycle_s) / seconds)
        while setup_times is not None and len(setup_times) < SETUP_LAUNCHES * done:
            setup_times.append(launch_s())
    return run


def execute(cli, commands, run: Run, tracer: spans.Tracer | None = None, expect=None) -> Run:
    """Send each command when the previous one has returned and its report has been checked."""
    started = time.perf_counter()
    for command in commands:
        index = len(run.commands)
        if tracer is not None:
            tracer.command = index
        elapsed, problems, text = run_command(cli, command)
        digest = hashlib.sha256(text.encode()).digest()
        if expect is not None and digest != expect[index]:
            problems.append("report differs from the untraced run of the same command")
        run.commands.append(command)
        run.latencies.append(elapsed)
        run.digests.append(digest)
        run.failures += [f"{' '.join(command.argv)}: {p}" for p in problems]
        if tracer is not None:
            tracer.counts["cli.commands"] += 1
            tracer.counts["cli.commands_failed"] += bool(problems)
            tracer.counts["cli.report_bytes"] += len(text)
    run.wall_s += time.perf_counter() - started
    return run


def run_command(cli, command: Command) -> tuple[float, list[str], str]:
    """Call the CLI in-process; returns latency, verification problems and the report text."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(command.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing command is a failed command; the loop goes on
        code = traceback.format_exc(limit=-2)
    elapsed = time.perf_counter() - started
    text = out.getvalue()
    if code != 0:
        return elapsed, [f"exit {code}: {err.getvalue().strip()[-300:]}"], text
    try:
        return elapsed, command.check(json.loads(text)), text
    except json.JSONDecodeError:
        return elapsed, ["unparsable report"], text
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return elapsed, [f"malformed report: {type(exc).__name__}: {exc}"], text


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with TAIL_BEYOND commands beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def end_to_end(run: Run, setup_s: float) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    # every cycle holds the same commands, so rates come from the median cycle,
    # which a burst of load from outside the benchmark does not move
    cycles = len(run.cycle_s)
    cycle_s = statistics.median(run.cycle_s)
    return {
        "setup_s": _metric(setup_s, "s"),
        "cmd_p50_s": _metric(statistics.median(run.latencies), "s"),
        "cmd_tail_s": _metric(tail(run.latencies)[1], "s"),
        "cmds_per_s": _metric(len(run.commands) / cycles / cycle_s, "1/s"),
        "work_per_s": _metric(sum(c.work for c in run.commands) / cycles / cycle_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


#: per-layer span metrics: (function span, report its call count too)
SPAN_METRICS = (
    ("classical.win_count_table", True),
    ("classical.exhaustive_best", False),
    ("classical.success_proportion", False),
    ("noise.errorfree_exhaustive", True),
    ("noise.bitflip_monte_carlo", True),
    ("noise.compare_report", True),
    ("quantum.sample_answers", True),
    ("quantum.apply_phase_dense", True),
    ("quantum.apply_hadamards_dense", False),
    ("quantum.question_state_dense", False),
    ("quantum.dense_matches_analytic", True),
    ("core.legitimate_bits", True),
    ("cli.main", False),
)
#: per-layer rates: counter over the inclusive time of the span that does the work
RATES = {
    "classical.strategies_per_s": ("classical.strategies_covered", "classical.win_count_table"),
    "noise.tables_per_s": ("noise.tables_covered", "noise.errorfree_exhaustive"),
    "noise.mc_trials_per_s": ("noise.mc_trials", "noise.bitflip_monte_carlo"),
    "quantum.rounds_per_s": ("quantum.rounds_sampled", "quantum.sample_answers"),
}


def per_layer(tracer: spans.Tracer, untraced: Run, traced: Run) -> dict:
    summary = spans.summarize(tracer.arrays())
    metrics = {}
    for name, with_calls in SPAN_METRICS:
        metrics[f"{name}.self_s"] = _metric(summary[name]["self_s"], "s")
        if with_calls:
            metrics[f"{name}.calls"] = _metric(summary[name]["calls"], "count")
    handlers = [s for name, s in summary.items() if name.startswith("cli.cmd_")]
    metrics["cli.handler.self_s"] = _metric(sum(s["self_s"] for s in handlers), "s")
    for name, count in tracer.counts.items():
        unit = "B" if name.endswith("_bytes") or name.endswith("_bytes_computed") else "count"
        metrics[name] = _metric(count, unit)
    for name, (counter, span) in RATES.items():
        busy = summary[span]["total_s"]
        metrics[name] = _metric(tracer.counts[counter] / busy if busy else 0.0, "1/s")
    metrics["noise.bitflip_monte_carlo.peak_mb"] = _metric(tracer.peak_bytes / 2**20, "MB")
    for layer in spans.LAYERS:
        own = sum(s["self_s"] for name, s in summary.items() if name.startswith(f"{layer}."))
        metrics[f"{layer}.self_s"] = _metric(own, "s")
    metrics["trace.loop_s"] = _metric(traced.wall_s - summary["cli.main"]["total_s"], "s")
    metrics["trace.wall_s"] = _metric(traced.wall_s, "s")
    metrics["trace.spans"] = _metric(len(tracer.name_of), "count")
    overhead = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    metrics["trace.overhead_share"] = _metric(overhead, "ratio")
    return metrics


def context(args, run: Run, work_name: str) -> dict:
    percentile, _ = tail(run.latencies)
    by_kind: dict[str, list[float]] = {}
    for command, latency in zip(run.commands, run.latencies):
        by_kind.setdefault(command.kind, []).append(latency)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "l2_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
        "commands": len(run.commands),
        "cycles": len(run.cycle_s),
        "commands_by_kind": {
            kind: {"count": len(v), "p50_s": round(statistics.median(v), 4)}
            for kind, v in by_kind.items()
        },
        "cmd_tail_percentile": round(percentile, 2),
        "work_measure": work_name,
        "program_env": PROGRAM_ENV,
    }


def _cache_size(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    raise SystemExit(main())
