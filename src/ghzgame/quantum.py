"""The perfect quantum strategy, two ways.

The analytic path tracks only which of the two GHZ phase states the players
hold after their conditional phase gates; it is pure parity logic with no
floating point, so it scales to word-sized n.  The dense path simulates the
full 2^n statevector and exists as an independent cross-check oracle.

Basis indexing matches `core`: player 1's qubit is the most significant bit
of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Answer, GameConfig, Question, env_limit, is_legitimate, target_parity

NORM_TOL = 1e-12

#: amplitudes above this cutoff use a full 2^n vector; overridable via env
DEFAULT_DENSE_LIMIT = 20
#: the analytic path only needs n to fit comfortably in a machine word
ANALYTIC_LIMIT = 62


def dense_limit() -> int:
    return env_limit("GAME_DENSE_LIMIT", DEFAULT_DENSE_LIMIT)


@dataclass(frozen=True)
class GhzPhaseState:
    """One of the two GHZ phase states: sign +1 for |0..0>+|1..1>, -1 for the minus state."""

    n: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def ghz_state(cfg: GameConfig, sign: int = +1) -> np.ndarray:
    """Dense statevector (1/sqrt2)(|0^n> + sign|1^n>)."""
    if cfg.n > dense_limit():
        raise ValueError(f"n={cfg.n} exceeds the dense-vector limit {dense_limit()}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    state = np.zeros(1 << cfg.n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(2.0)
    state[0] = amp
    state[-1] = sign * amp
    return state


def apply_phase_dense(state: np.ndarray, player: int) -> np.ndarray:
    """Phase gate |1> -> i|1> on one player's qubit (1-based index)."""
    n = _num_qubits(state)
    if not 1 <= player <= n:
        raise IndexError(f"player {player} out of range 1..{n}")
    out = state.copy()
    idx = np.arange(out.size)
    out[(idx >> (n - player)) & 1 == 1] *= 1j
    return out


def apply_hadamards_dense(state: np.ndarray) -> np.ndarray:
    """Hadamard on every qubit (normalized Walsh-Hadamard transform)."""
    size = state.size
    _num_qubits(state)
    v = state.astype(np.complex128, copy=True)
    half = 1
    while half < size:
        v = v.reshape(-1, 2, half)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(size)
        half *= 2
    v /= math.sqrt(size)
    return v


def measure_all(state: np.ndarray, rng: np.random.Generator) -> Answer:
    """Sample a computational-basis outcome from the state's distribution."""
    outcome = _sample_outcomes(state, 1, rng)[0]
    return Answer(_num_qubits(state), int(outcome))


def apply_inputs_analytic(q: Question) -> GhzPhaseState:
    """Phase tracking of the conditional phase gates: weight mod 4 decides the sign.

    Only defined under the promise; an odd-weight question would leave the
    GHZ phase subspace and is rejected.
    """
    if not is_legitimate(q):
        raise ValueError(f"question {q} violates the promise; analytic path undefined")
    return GhzPhaseState(q.n, +1 if q.weight % 4 == 0 else -1)


def question_state_dense(q: Question) -> np.ndarray:
    """Pre-measurement state for a question: GHZ, then phase gates, then Hadamards."""
    state = ghz_state(GameConfig(q.n))
    for player in range(1, q.n + 1):
        if q.bit(player):
            state = apply_phase_dense(state, player)
    return apply_hadamards_dense(state)


def sample_answers(
    q: Question,
    trials: int,
    rng: np.random.Generator,
    mode: str = "analytic",
) -> list[Answer]:
    """Play the question `trials` times; returns one answer per round.

    Analytic mode samples the parity class directly: n-1 fair bits plus one
    parity-fixing bit, never touching a 2^n vector.  Dense mode builds the
    statevector once and samples its outcome distribution.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mode == "analytic":
        if q.n > ANALYTIC_LIMIT:
            raise ValueError(f"n={q.n} exceeds the analytic limit {ANALYTIC_LIMIT}")
        parity = target_parity(q)  # raises on an illegitimate question
        free = rng.integers(0, 2, size=(trials, q.n - 1), dtype=np.uint64)
        last = (free.sum(axis=1) + parity) & 1
        outcomes = (free << np.arange(q.n - 1, 0, -1, dtype=np.uint64)).sum(axis=1) | last
        return [Answer(q.n, int(bits)) for bits in outcomes]
    if mode == "dense":
        if not is_legitimate(q):
            raise ValueError(f"question {q} violates the promise")
        state = question_state_dense(q)
        outcomes = _sample_outcomes(state, trials, rng)
        return [Answer(q.n, int(bits)) for bits in outcomes]
    raise ValueError(f"unknown mode {mode!r}")


def run_quantum_round(q: Question, rng: np.random.Generator, mode: str = "analytic") -> Answer:
    """One full round of the perfect strategy for a legitimate question."""
    return sample_answers(q, 1, rng, mode)[0]


def dense_matches_analytic(q: Question) -> bool:
    """Cross-check: the dense pipeline must land flat on the analytic parity class.

    After the phase gates and Hadamards the statevector has to be supported
    on exactly one parity class, with every squared amplitude equal to
    2^(1-n) within tolerance, and the class must match the tracked sign.
    """
    state = question_state_dense(q)
    want_parity = 0 if apply_inputs_analytic(q).sign > 0 else 1
    probs = np.abs(state) ** 2
    parities = np.bitwise_count(np.arange(probs.size, dtype=np.uint64)) & 1
    in_class = parities == want_parity
    flat = np.abs(probs[in_class] - 2.0 ** (1 - q.n)) <= NORM_TOL
    empty = probs[~in_class] <= NORM_TOL
    return bool(flat.all() and empty.all())


def _num_qubits(state: np.ndarray) -> int:
    n = state.size.bit_length() - 1
    if state.size != 1 << n or n < 1:
        raise ValueError(f"state size {state.size} is not a power of two")
    return n


def _sample_outcomes(state: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    probs = np.abs(state) ** 2
    total = probs.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |psi|^2 = {total}")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(trials), side="right")
