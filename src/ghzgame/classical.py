"""Classical strategies: representation, exact scoring, and exhaustive search.

A deterministic strategy is a per-player output table; the whole table packs
into a 2n-bit code so exhaustive sweeps run over a plain integer range.  All
proportions and probabilities are exact `Fraction`s; the complex strategy
score is an exact Gaussian integer.  Floats never enter any bound check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    GameConfig,
    OutputTable,
    SizeLimit,
    answer_bits,
    appropriate,
    legitimate_bits,
    output_masks,
)

#: the 4^n strategy sweep runs up to this n
EXHAUSTIVE_LIMIT = SizeLimit("exhaustive", "GAME_EXHAUSTIVE_LIMIT", 8)


def classical_bound(n: int) -> Fraction:
    """Best success proportion any deterministic strategy can reach: 1/2 + 2^-ceil(n/2)."""
    return Fraction(1, 2) + Fraction(1, 1 << math.ceil(n / 2))


class DeterministicStrategy(OutputTable):
    """An output table over {0, 1}: its code holds 2 bits per player."""

    @classmethod
    def from_strings(cls, pairs: list[str] | tuple[str, ...]) -> "DeterministicStrategy":
        """Build from two-character strings like "01" (output on 0, output on 1)."""
        return cls(tuple((int(p[0]), int(p[1])) for p in pairs))


@dataclass(frozen=True)
class StrategyScore:
    """Exact complex score of a strategy plus its direct win/loss tally."""

    re: int
    im: int
    wins: int
    losses: int


def success_proportion(strat: DeterministicStrategy) -> Fraction:
    """Fraction of legitimate questions answered appropriately, exact, in O(n).

    Re(s) = wins - losses and wins + losses = 2^(n-1), so wins = (2^(n-1) + Re s) / 2.
    """
    half = 1 << (strat.n - 1)
    return Fraction((half + _gaussian_score(strat)[0]) // 2, half)


def strategy_score(strat: DeterministicStrategy) -> StrategyScore:
    """Exact Gaussian-integer product over players of (sign(i,0) + i*sign(i,1)).

    The real part must equal wins minus losses, counted question by question
    over the legitimate questions; a mismatch means a scoring bug and raises.
    """
    re, im = _gaussian_score(strat)
    wins = int(np.count_nonzero(_win_matrix([strat], strat.n)))
    losses = (1 << (strat.n - 1)) - wins
    if re != wins - losses:
        raise RuntimeError(
            f"score identity violated: Re(s)={re} but wins-losses={wins - losses}"
        )
    if abs(re) > 1 << (strat.n // 2):
        raise RuntimeError(f"|Re(s)|={abs(re)} exceeds 2^floor(n/2)")
    return StrategyScore(re, im, wins, losses)


def exhaustive_best(cfg: GameConfig) -> tuple[Fraction, np.ndarray]:
    """Sweep all 4^n strategies; returns the best proportion and every maximizer.

    Maximizers come back as their packed codes, ascending, in an int64 array;
    `DeterministicStrategy.from_code` unpacks one.
    """
    n = cfg.n
    EXHAUSTIVE_LIMIT.require(n)
    wins = win_count_table(n)
    best = int(wins.max())
    return Fraction(best, 1 << (n - 1)), np.flatnonzero(wins == best)


#: optimal output pairs (player 1, players 2..n) keyed on n mod 8;
#: each row is verified against the exhaustive sweep in the test suite
SIMPLE_OPTIMAL_TABLE = {
    0: ("00", "00"),
    1: ("00", "00"),
    2: ("01", "00"),
    3: ("11", "11"),
    4: ("11", "00"),
    5: ("11", "11"),
    6: ("10", "00"),
    7: ("00", "00"),
}


def table1_strategy(cfg: GameConfig) -> DeterministicStrategy:
    """The simple optimal strategy for this n: one row of pairs keyed on n mod 8."""
    first, rest = SIMPLE_OPTIMAL_TABLE[cfg.n % 8]
    return DeterministicStrategy.from_strings([first] + [rest] * (cfg.n - 1))


def optimal_set(cfg: GameConfig) -> list[DeterministicStrategy]:
    """All strategies reaching the classical bound exactly, in code order: the sweep's maximizers.

    Refused, like `exhaustive_best`, beyond EXHAUSTIVE_LIMIT.
    """
    _best, codes = exhaustive_best(cfg)
    return [DeterministicStrategy.from_code(cfg.n, c) for c in codes.tolist()]


def is_balanced(strategies: list[DeterministicStrategy], cfg: GameConfig) -> bool:
    """Whether every legitimate question is won by the same number of member strategies."""
    counts = per_question_win_counts(strategies, cfg)
    return len(set(counts)) <= 1


def per_question_win_counts(
    strategies: list[DeterministicStrategy], cfg: GameConfig
) -> list[int]:
    """For each legitimate question (in order), how many member strategies win it."""
    return _win_matrix(strategies, cfg.n).sum(axis=0).tolist()


@dataclass(frozen=True)
class ProbabilisticStrategy:
    """A finite mixture of deterministic strategies with exact rational weights."""

    strategies: tuple[DeterministicStrategy, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.strategies) != len(self.weights):
            raise ValueError("one weight per strategy required")
        if not self.strategies:
            raise ValueError("the mixture needs at least one strategy")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")
        if len({s.n for s in self.strategies}) != 1:
            raise ValueError("all member strategies must have the same player count")

    @classmethod
    def uniform(cls, strategies: list[DeterministicStrategy]) -> "ProbabilisticStrategy":
        w = Fraction(1, len(strategies))
        return cls(tuple(strategies), (w,) * len(strategies))

    @property
    def n(self) -> int:
        return self.strategies[0].n

    def win_probabilities(self) -> list[Fraction]:
        """Per legitimate question (in order), the probability of answering appropriately."""
        # exact: integer numerators over the weights' common denominator
        denom = math.lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (denom // w.denominator) for w in self.weights]
        won = _win_matrix(self.strategies, self.n).T.tolist()
        return [Fraction(sum(itertools.compress(nums, row)), denom) for row in won]

    def success_probability(self) -> Fraction:
        """Worst case over legitimate questions (the min, not the mean)."""
        return min(self.win_probabilities())

    def success_proportion(self) -> Fraction:
        """Average over legitimate questions of the per-question win probability."""
        probs = self.win_probabilities()
        return sum(probs, Fraction(0)) / len(probs)


def pair_flip_map(strat: DeterministicStrategy) -> DeterministicStrategy:
    """The score-preserving bijection acting on players 1 and 2.

    It rotates the first player's table a quarter turn one way and the second
    player's the other way, which leaves the Gaussian-integer score unchanged
    and trades appropriateness on 00... questions for 11... questions.
    """
    if strat.n < 2:
        raise ValueError("the mapping needs at least two players")
    out = list(strat.outputs)
    a0, a1 = out[0]
    b0, b1 = out[1]
    out[0] = (a1, 1 - a0)
    out[1] = (1 - b1, b0)
    return DeterministicStrategy(tuple(out))


def win_count_table(n: int) -> np.ndarray:
    """wins[code] over all 4^n packed strategy codes, from the Gaussian-integer score.

    Re(s) = wins - losses and wins + losses = 2^(n-1), so the table is one
    Kronecker power of the per-pair factors, never a loop over questions.
    """
    # pair code (out0 << 1) | out1 -> sign(out0) + i*sign(out1)
    score = gaussian_product_table([1, 1, -1, -1], [1, -1, 1, -1], n, np.int64)
    return ((1 << (n - 1)) + score) // 2


def gaussian_product_table(re, im, n: int, dtype) -> np.ndarray:
    """Re of the product over n players of re[k_i] + i*im[k_i], for every digit string k.

    Entry K belongs to the digit string k_1..k_n of K in base len(re), player 1
    most significant.  Integer arithmetic in `dtype`, which must hold every
    partial product: exact as long as it does.
    """
    fr = np.array(re, dtype=dtype)
    fi = np.array(im, dtype=dtype)
    table_re, table_im = fr, fi
    for _ in range(n - 1):
        table_re, table_im = (
            (np.multiply.outer(table_re, fr) - np.multiply.outer(table_im, fi)).ravel(),
            (np.multiply.outer(table_re, fi) + np.multiply.outer(table_im, fr)).ravel(),
        )
    return table_re


def _gaussian_score(strat: DeterministicStrategy) -> tuple[int, int]:
    """(Re, Im) of the product over players of s(out0) + i*s(out1), where s(b) = 1 - 2b."""
    re, im = 1, 0
    for out0, out1 in strat.outputs:
        c, d = 1 - 2 * out0, 1 - 2 * out1
        re, im = re * c - im * d, re * d + im * c
    return re, im


def _win_matrix(strategies, n: int) -> np.ndarray:
    """won[s, j]: whether strategy s answers legitimate question j appropriately."""
    masks = np.array([output_masks(s.outputs) for s in strategies], dtype=np.uint64)
    masks = masks.reshape(-1, 2, 1)  # strategies x (on0, on1) x broadcast over questions
    q = legitimate_bits(n)
    return appropriate(q, answer_bits(masks[:, 0], masks[:, 1], q))
