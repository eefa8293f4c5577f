"""Core definitions of the n-player parity game.

The game hands each of n >= 3 players one input bit.  The collective input
(the question) is promised to contain an even number of 1s, and the players
must produce one output bit each so that the answer's parity equals half the
question's Hamming weight, mod 2.  Everything here is pure integer logic;
no floating point is used anywhere in the game rules.

Bit packing convention: player 1 occupies the most significant of the n bit
positions, so the lexicographic order of bit strings coincides with integer
order of the packed value.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class GameConfig:
    """Parameters of one game instance: just the player count."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"the game needs at least 3 players, got n={self.n}")

    @property
    def num_legitimate(self) -> int:
        """Number of questions satisfying the even-weight promise: 2^(n-1)."""
        return 1 << (self.n - 1)


@dataclass(frozen=True)
class Question:
    """An n-bit collective input, packed into an int (player 1 = MSB)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits:#x} out of range for n={self.n}")

    @classmethod
    def from_string(cls, s: str) -> "Question":
        if s.strip("01"):
            raise ValueError(f"question must be a binary string, got {s!r}")
        return cls(len(s), int(s, 2))

    def bit(self, player: int) -> int:
        """Input bit of `player` (1-based)."""
        if not 1 <= player <= self.n:
            raise IndexError(f"player {player} out of range 1..{self.n}")
        return (self.bits >> (self.n - player)) & 1

    @property
    def weight(self) -> int:
        """Hamming weight of the question."""
        return self.bits.bit_count()

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")


BOT = "⊥"  # the no-output symbol in string renderings


@dataclass(frozen=True)
class Answer:
    """An n-symbol collective output over {0, 1, no-output}.

    `bits` holds the 0/1 outputs; positions flagged in `bot_mask` produced
    no output at all, and their `bits` entries must be 0.  Parity is defined
    only when `bot_mask == 0`.
    """

    n: int
    bits: int
    bot_mask: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits:#x} out of range for n={self.n}")
        if not 0 <= self.bot_mask < (1 << self.n):
            raise ValueError(f"bot_mask {self.bot_mask:#x} out of range for n={self.n}")
        if self.bits & self.bot_mask:
            raise ValueError("a no-output position cannot also carry a bit")

    @classmethod
    def from_string(cls, s: str) -> "Answer":
        bits = 0
        mask = 0
        for ch in s:
            bits <<= 1
            mask <<= 1
            if ch == "1":
                bits |= 1
            elif ch in (BOT, "_"):
                mask |= 1
            elif ch != "0":
                raise ValueError(f"bad answer symbol {ch!r}")
        return cls(len(s), bits, mask)

    @property
    def has_bot(self) -> bool:
        return self.bot_mask != 0

    @property
    def parity(self) -> int:
        """Parity of the output bits; undefined when any player gave no output."""
        if self.has_bot:
            raise ValueError("parity is undefined for an answer with no-output symbols")
        return self.bits.bit_count() & 1

    def __str__(self) -> str:
        out = []
        for pos in range(self.n - 1, -1, -1):
            if (self.bot_mask >> pos) & 1:
                out.append(BOT)
            else:
                out.append(str((self.bits >> pos) & 1))
        return "".join(out)


def is_legitimate(q: Question) -> bool:
    """Whether the question satisfies the even-weight promise."""
    return q.weight % 2 == 0


def target_parity(q: Question) -> int:
    """The answer parity a legitimate question demands: (weight/2) mod 2."""
    if not is_legitimate(q):
        raise ValueError(f"question {q} violates the promise (odd weight)")
    return (q.weight >> 1) & 1


def is_appropriate(q: Question, a: Answer) -> bool:
    """Whether the answer wins the round for this question.

    Contract check, not a game outcome: an illegitimate question or an
    answer containing no-output symbols is a caller error and raises.
    """
    if q.n != a.n:
        raise ValueError(f"size mismatch: question n={q.n}, answer n={a.n}")
    if a.has_bot:
        raise ValueError("appropriateness is undefined for an answer with no-output symbols")
    return a.parity == target_parity(q)


def enumerate_legitimate(cfg: GameConfig) -> list[Question]:
    """All even-weight questions, in lexicographic (= integer) order."""
    return [Question(cfg.n, bits) for bits in legitimate_bits(cfg.n).tolist()]


def legitimate_bits(n: int) -> np.ndarray:
    """Every even-weight question as a packed uint64, ascending: n-1 free bits, then parity."""
    free = np.arange(1 << (n - 1), dtype=np.uint64)
    return (free << 1) | (np.bitwise_count(free) & 1)


def output_masks(outputs, value=1) -> tuple[int, int]:
    """Masks (on0, on1) of the players whose output on input 0 (1) equals `value`.

    `outputs[i-1]` is player i's pair; player 1 is the most significant bit.
    """
    on0 = on1 = 0
    for out0, out1 in outputs:
        on0 = (on0 << 1) | (out0 == value)
        on1 = (on1 << 1) | (out1 == value)
    return on0, on1


def answer_bits(on0, on1, q):
    """Packed answer to the packed question q of the table with output masks (on0, on1).

    Works on Python ints and on broadcast uint64 arrays alike.
    """
    return (on0 & ~q) | (on1 & q)


def appropriate(q, answers):
    """Packed form of is_appropriate: answer parity equals (weight/2) mod 2, elementwise."""
    return np.bitwise_count(answers) & 1 == np.bitwise_count(q) >> 1 & 1


@dataclass(frozen=True)
class OutputTable:
    """Per-player output table: outputs[i-1] = (output on input 0, output on input 1).

    Every output is one of SYMBOLS, where None stands for no output.  The
    table packs into 2n base-len(SYMBOLS) digits, player 1 most significant,
    each pair's input-0 output first: its `code`.
    """

    SYMBOLS: ClassVar[tuple[int | None, ...]] = (0, 1)
    outputs: tuple[tuple[int | None, int | None], ...]

    def __post_init__(self) -> None:
        for pair in self.outputs:
            if len(pair) != 2 or any(b not in self.SYMBOLS for b in pair):
                raise ValueError(f"bad output pair {pair!r}")

    @property
    def n(self) -> int:
        return len(self.outputs)

    @classmethod
    def from_code(cls, n: int, code: int):
        """The table of n players whose code is `code`."""
        base = len(cls.SYMBOLS)
        if not 0 <= code < base ** (2 * n):
            raise ValueError(f"code {code} out of range for n={n}")
        digits = [cls.SYMBOLS[code // base**k % base] for k in reversed(range(2 * n))]
        return cls(tuple(zip(digits[::2], digits[1::2])))

    @property
    def code(self) -> int:
        c = 0
        for out in itertools.chain.from_iterable(self.outputs):
            c = c * len(self.SYMBOLS) + self.SYMBOLS.index(out)
        return c

    def answer(self, q: Question) -> Answer:
        """The answer on a question, one lookup per player; no outputs become bot positions."""
        if self.n != q.n:
            raise ValueError(f"size mismatch: strategy n={self.n}, question n={q.n}")
        bits = answer_bits(*output_masks(self.outputs), q.bits)
        return Answer(q.n, bits, answer_bits(*output_masks(self.outputs, None), q.bits))


class UsageError(ValueError):
    """A request the workbench refuses as given; the CLI prints it as one line and exits 1."""


@dataclass(frozen=True)
class SizeLimit:
    """The largest player count a sweep accepts, overridable by the environment variable `env`."""

    what: str
    env: str
    default: int

    def value(self) -> int:
        """The limit in force: read from `env` on every call, `default` when it is unset."""
        raw = os.environ.get(self.env)
        if raw is None:
            return self.default
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{self.env} must be an integer, got {raw!r}") from None

    def require(self, n: int) -> None:
        """Refuse n beyond the limit before any work is done for it."""
        limit = self.value()
        if n > limit:
            raise UsageError(
                f"n={n} exceeds the {self.what} limit {limit} "
                f"(set {self.env} to raise it); refusing to sample silently"
            )
