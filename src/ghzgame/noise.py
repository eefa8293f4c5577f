"""Imperfect apparatus: bit-flip noise and detection inefficiency.

Two failure modes are modelled on the classical outputs of the perfect
quantum strategy: each player's bit is flipped with probability 1-p, or each
player fails to produce a bit at all with probability 1-eta.  Closed-form
win probabilities and the thresholds where the noisy quantum strategy still
beats every classical strategy are computed here, together with the
exhaustive sweep over no-output ("bot") strategy tables that pins down how
little an error-free classical strategy can achieve.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quantum
from .classical import classical_bound, gaussian_product_table
from .core import (
    GameConfig,
    OutputTable,
    Question,
    SizeLimit,
    answer_bits,
    appropriate,
    legitimate_bits,
    output_masks,
)

#: the 9^n no-output table sweep runs up to this n
EXTENDED_LIMIT = SizeLimit("no-output sweep", "GAME_EXTENDED_LIMIT", 5)
#: a batch of geometric gaps covers the expected flips plus this many standard deviations
GAP_SLACK = 5


@dataclass(frozen=True)
class MonteCarloEstimate:
    wins: int
    trials: int

    @property
    def estimate(self) -> float:
        return self.wins / self.trials

    @property
    def std_error(self) -> float:
        e = self.estimate
        return math.sqrt(e * (1.0 - e) / self.trials)


def bitflip_win_prob(n: int, p: Fraction | float) -> Fraction | float:
    """Win probability of the quantum strategy when each player outputs the
    predicted bit with probability p, its complement otherwise.

    The round is won exactly when an even number of players flip, which
    collapses to (1 + (2p-1)^n) / 2: exact for a Fraction p.
    """
    return (1 + (2 * p - 1) ** n) / 2


def bitflip_threshold(n: int) -> float:
    """Reliability above which the noisy quantum strategy beats the classical bound.

    Exact solution of (2p-1)^n / 2 = 2^-ceil(n/2); for odd n this is the
    closed form 1/2 + sqrt(2)^(1+1/n)/4, and the even case solves the same
    equation with its own ceiling.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    return 0.5 + 2.0 ** ((1 - math.ceil(n / 2)) / n - 1)


def detection_win_prob(n: int, eta: Fraction | float) -> Fraction | float:
    """Probability that every player, each producing an output with probability
    eta, does so (all-or-nothing round): eta^n."""
    return eta**n


def detection_threshold(n: int) -> float:
    """Efficiency above which eta^n beats the best error-free classical rate 2/2^(n-1)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    return 4.0 ** (1.0 / n) / 2.0


def bitflip_monte_carlo(n: int, p: float, trials: int, rng: np.random.Generator) -> MonteCarloEstimate:
    """Sample noisy rounds: uniform legitimate question, perfect round, then flips.

    The perfect rounds come a chunk at a time from `quantum.sampled_rounds`;
    each chunk's answers are xored with the flips of `_flip_masks`, drawn
    right after it, and each noisy round is checked with `core.appropriate`.
    """
    if not BITFLIP.least <= p <= 1:
        raise ValueError(f"reliability p must lie in [{float(BITFLIP.least)}, 1], got {p}")
    wins = 0
    for questions, answers in quantum.sampled_rounds(n, trials, rng):
        answers ^= _flip_masks(n, answers.size, p, rng)
        wins += int(np.count_nonzero(appropriate(questions, answers)))
    return MonteCarloEstimate(wins, trials)


def _flip_masks(n: int, rows: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Packed flips of `rows` rounds, player 1 the most significant bit of each.

    Every output flips on its own with probability 1-p.  The rows * n cells
    are laid out player by player (cell j*rows + r is player j+1 in row r),
    and the gaps between flipped cells are drawn as geometric numbers: about
    n(1-p) numbers a round, and none at p = 1.  Gaps are drawn in batches
    of the expected count plus GAP_SLACK standard deviations, a further
    batch for the cells left whenever one falls short.
    """
    masks = np.zeros(rows, dtype=np.uint64)
    rate = 1.0 - p
    if rate == 0.0:
        return masks
    cells = rows * n
    found = []
    last = -1  # the last flipped cell drawn so far
    while last < cells - 1:
        expected = (cells - 1 - last) * rate
        gaps = rng.geometric(rate, size=int(expected + GAP_SLACK * math.sqrt(expected)) + 1)
        # a gap past every cell ends the chunk: capping it keeps the sums in range
        np.minimum(gaps, cells + 1, out=gaps)
        found.append(last + np.cumsum(gaps))
        last = int(found[-1][-1])
    flipped = np.concatenate(found)
    bounds = np.searchsorted(flipped, np.arange(n + 1) * rows)
    for player in range(n):
        # distinct cells of one player are distinct rows, so fancy indexing is exact
        row = flipped[bounds[player] : bounds[player + 1]] - player * rows
        masks[row] |= np.uint64(1 << (n - 1 - player))
    return masks


class ExtendedStrategy(OutputTable):
    """An output table over {0, 1, None}, None meaning no output: a base-9 digit per player."""

    SYMBOLS = (0, 1, None)


def is_error_free(strat: ExtendedStrategy) -> bool:
    """True when every legitimate question is either a draw or answered appropriately."""
    return _evaluate_error_free(strat) is not None


def winnable_questions(strat: ExtendedStrategy) -> list[Question]:
    """The legitimate questions the table answers appropriately (no draws among them).

    Raises for tables that are not error-free; their win count is meaningless.
    """
    won = _evaluate_error_free(strat)
    if won is None:
        raise ValueError("strategy is not error-free")
    return [Question(strat.n, x) for x in won]


def errorfree_exhaustive(cfg: GameConfig) -> tuple[int, np.ndarray]:
    """Sweep all 9^n extended tables and maximize wins among error-free ones.

    Returns the best win count and the codes of every table attaining it,
    ascending (see `ExtendedStrategy.from_code`).
    """
    n = cfg.n
    EXTENDED_LIMIT.require(n)
    wins = errorfree_win_table(n)
    best = int(wins.max())
    return best, np.flatnonzero(wins == best)


def errorfree_win_table(n: int) -> np.ndarray:
    """wins[code] over all 9^n extended table codes; -1 for a table that is not error-free.

    Let s_j be the sign of a player's output on input j (+1 for 0, -1 for 1,
    0 for no output) and a_j = |s_j|.  Over the legitimate questions a table
    then has, with products over the players,

        wins - losses = Re prod (s_0 + i*s_1)
        wins + losses = (prod (a_0 + a_1) + prod (a_0 - a_1)) / 2

    Each product is a Kronecker power of a 9-vector over the pair codes, so
    all 9^n tables are scored at once; a table is error-free exactly when the
    two counts agree.
    """
    sign = np.array([1, -1, 0], dtype=np.int16)  # of each entry of ExtendedStrategy.SYMBOLS
    s0, s1 = np.repeat(sign, 3), np.tile(sign, 3)  # per pair code
    a0, a1 = abs(s0), abs(s1)
    # every entry is at most 2^n in size: int16 holds it for any table that fits in memory
    wins = gaussian_product_table(s0, s1, n, np.int16)
    decided = (_kron_power(a0 + a1, n) + _kron_power(a0 - a1, n)) // 2
    wins[wins != decided] = -1
    return wins


def _kron_power(factor: np.ndarray, n: int) -> np.ndarray:
    table = factor
    for _ in range(n - 1):
        table = np.multiply.outer(table, factor).ravel()
    return table


def errorfree_reference_strategy(cfg: GameConfig) -> ExtendedStrategy:
    """The simple optimal error-free table: wins exactly 0^n and 110^(n-2).

    Player 1 always outputs 0, player 2 echoes its input, everyone else
    outputs 0 on input 0 and declines on input 1.
    """
    outputs = [(0, 0), (0, 1)] + [(0, None)] * (cfg.n - 2)
    return ExtendedStrategy(tuple(outputs))


@dataclass(frozen=True)
class GridModel:
    """What the bit-flip and detection grids differ in: `BITFLIP` and `DETECTION`."""

    kind: str  # each grid record's kind
    param: str  # the grid value's key in each record: p or eta
    least: Fraction  # the parameter's range is [least, 1]
    classical: Callable[[int], Fraction]  # the best classical win rate at n
    threshold: Callable[[int], float]  # grid values above it let noisy quantum play win
    quantum_wins: Callable[[int, int, int], bool]  # exactly, at n for the grid value a/b
    win_prob: Callable[[int, Fraction | float], Fraction | float]  # noisy quantum win rate at n


BITFLIP = GridModel(
    "bitflip",
    "p",
    Fraction(1, 2),
    classical=lambda n: classical_bound(n),  # the name is read per call: a tracer may rebind it
    threshold=bitflip_threshold,
    # (2p-1)^n > 2^(1-ceil(n/2)), both sides times b^n 2^(ceil(n/2)-1)
    quantum_wins=lambda n, a, b: ((2 * a - b) ** n << (n + 1) // 2 - 1) > b**n,
    win_prob=bitflip_win_prob,
)
DETECTION = GridModel(
    "detection",
    "eta",
    Fraction(0),
    classical=lambda n: Fraction(2, 1 << (n - 1)),  # the no-output sweep's 2 questions won
    threshold=detection_threshold,
    quantum_wins=lambda n, a, b: (a**n << n - 2) > b**n,  # eta^n > 2^(2-n), times b^n 2^(n-2)
    win_prob=detection_win_prob,
)


def compare_report(n: int, model: GridModel, grid: list[Fraction | float]) -> list[dict]:
    """The record of each grid point: noisy-quantum against classical play at n.

    Flags are decided in exact arithmetic on each grid value; the records
    show the value and the quantum win probability as floats.
    """
    bound = model.classical(n)
    classical, threshold = float(bound), model.threshold(n)
    exact = f"{bound.numerator}/{bound.denominator}"
    records = []
    for x in grid:
        quantum = model.win_prob(n, float(x))
        wins = model.quantum_wins(n, *x.as_integer_ratio())
        records.append(
            {
                "kind": model.kind,
                "n": n,
                model.param: float(x),
                "derivation": "closed-form",
                "quantum": quantum,
                "classical": classical,
                "classical_exact": exact,
                "margin": quantum - classical,
                "threshold": threshold,
                "flag": "quantum-wins" if wins else "classical-reachable",
            }
        )
    return records


def _evaluate_error_free(strat: ExtendedStrategy) -> list[int] | None:
    """Won question bits if the table is error-free, else None."""
    q = legitimate_bits(strat.n)
    decided = answer_bits(*output_masks(strat.outputs, None), q) == 0
    right = appropriate(q, answer_bits(*output_masks(strat.outputs), q))
    if np.any(decided & ~right):
        return None
    return q[decided].tolist()
