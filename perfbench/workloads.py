"""The benchmark's workloads: one cycle of `game` commands each, drawn from a seed.

A cycle is shuffled by the workload seed, every command gets its own
generated `--seed`, and the sampling workload also draws its Monte Carlo
`--p` grid start.  Each command carries the work it covers, counted from
its inputs, and the check that verifies its report.

A run repeats whole cycles, so the median command and the command with ten
slower ones beyond it fall at fixed ranks of the cycle's mix.  Where a mix
has a few slow commands, the slowest is repeated within the cycle until a
run of 35 s holds more than ten of it even when the machine runs at two
thirds of its speed; otherwise the tail would jump between two kinds of
command whenever a run completes one cycle more or less.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    kind: str  # the command without its generated arguments
    argv: tuple[str, ...]  # arguments for ghzgame.cli.main
    work: int  # units of the workload's work measure this command covers
    check: Callable[[dict], list[str]]  # report -> problems


#: commands run once before timing, so lazy imports and first-call set-up are done
WARMUP = (
    ("search", "--n", "4"),
    ("detect", "--n", "3"),
    ("quantum", "--n", "4", "--trials", "2", "--dense-check"),
    ("noise", "--n", "3", "--p", "0.9", "--trials", "100"),
)


def exhaustive(rng: random.Random, workdir: Path) -> list[Command]:
    """Work measure: strategy tables covered, 4^n per search and 9^n per no-output sweep."""
    csv = str(workdir / "witnesses.csv")
    specs = [
        (None, ("search", "--n", str(n)), 4**n, partial(checks.check_search, n=n))
        for n in (6, 7, 8, 9, 9, 9)
    ]
    specs.append(
        (
            "search --n 8 --witnesses",
            ("search", "--n", "8", "--witnesses", csv),
            4**8,
            partial(checks.check_search, n=8, witnesses_csv=csv),
        )
    )
    n_text, eta_text = "3..5", "0.5:1.0:0.01"
    specs.append(
        (
            None,
            ("detect", "--n", n_text, "--eta", eta_text),
            sum(9**n for n in checks.parse_range(n_text)),
            partial(checks.check_detect, n_text=n_text, eta_text=eta_text),
        )
    )
    return _cycle(rng, specs)


def sampling(rng: random.Random, workdir: Path) -> list[Command]:
    """Work measure: game rounds, analytic quantum rounds plus Monte Carlo trials."""
    start = rng.randint(80, 94)
    specs = [
        _quantum(10, 20),
        _quantum(12, 20),
        _quantum(14, 5),
        _quantum(24, 20_000),
        _noise("3..9", f"0.{start}:0.{start + 5}:0.01", 20_000, "<seeded 6-point grid>"),
        _noise("9", "0.9", 1_000_000),
        _noise("3..9", "0.5:1.0:0.001", 0),
        (
            None,
            ("report",),
            checks.REPORT_QUANTUM_TRIALS * sum(1 << (n - 1) for n in range(3, 9))
            + checks.REPORT_MC_TRIALS,
            checks.check_report,
        ),
    ]
    return _cycle(rng, specs)


def dense(rng: random.Random, workdir: Path) -> list[Command]:
    """Work measure: amplitudes cross-checked, questions times 2^n."""
    specs = []
    for n in (12, 15, 15):
        if n <= checks.DENSE_ALL_QUESTIONS:
            questions = 1 << (n - 1)
        else:
            questions = checks.DENSE_SAMPLED_QUESTIONS
        specs.append(
            (
                None,
                ("quantum", "--n", str(n), "--trials", "1", "--dense-check"),
                questions << n,
                partial(checks.check_quantum, n=n, trials=1, dense=True),
            )
        )
    return _cycle(rng, specs)


#: workload name -> (cycle generator, name of its work measure)
WORKLOADS = {
    "exhaustive": (exhaustive, "tables"),
    "sampling": (sampling, "rounds"),
    "dense": (dense, "amplitudes"),
}


def _quantum(n: int, trials: int):
    rounds = trials << (n - 1) if n <= checks.ANALYTIC_ALL_QUESTIONS else trials
    argv = ("quantum", "--n", str(n), "--trials", str(trials))
    return None, argv, rounds, partial(checks.check_quantum, n=n, trials=trials, dense=False)


def _noise(n_text: str, p_text: str, trials: int, grid_kind: str | None = None):
    argv = ("noise", "--n", n_text, "--p", p_text)
    if trials:
        argv += ("--trials", str(trials))
    kind = " ".join(argv).replace(p_text, grid_kind) if grid_kind else None
    points = len(checks.parse_range(n_text)) * len(checks.parse_grid(p_text))
    check = partial(checks.check_noise, n_text=n_text, p_text=p_text, trials=trials)
    return kind, argv, points * trials, check


def _cycle(rng: random.Random, specs: list) -> list[Command]:
    """specs: (kind or None for the argv itself, argv, work, check), shuffled then seeded."""
    rng.shuffle(specs)
    return [
        Command(
            kind or " ".join(argv),
            (*argv, "--seed", str(rng.randrange(1 << 31)), "--format", "json"),
            work,
            check,
        )
        for kind, argv, work, check in specs
    ]
