"""The perfect quantum strategy, two ways.

The analytic path tracks only which of the two GHZ phase states the players
hold after their conditional phase gates; it is pure parity logic with no
floating point, so it scales to word-sized n.  Its rounds are packed uint64
outcomes, one random word each, drawn and checked a chunk at a time; rounds
of sampled questions come from one generator, `sampled_rounds`, which the
bit-flip Monte Carlo consumes too.  The dense path is an independent
cross-check oracle over the full 2^n statevector: the GHZ state has only two
nonzero amplitudes, so the phase gates act on those two, and every qubit's
Hadamard then acts on all 2^n entries; a check of many questions runs them
all in one `DenseWork`.

Basis indexing matches `core`: player 1's qubit is the most significant bit
of the basis index.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    Answer,
    GameConfig,
    Question,
    SizeLimit,
    UsageError,
    appropriate,
    is_legitimate,
    legitimate_bits,
    target_parity,
)

NORM_TOL = 1e-12

#: the dense oracle builds 2^n-entry vectors up to this n
DENSE_LIMIT = SizeLimit("dense", "GAME_DENSE_LIMIT", 20)
#: the analytic path only needs n to fit comfortably in a machine word
ANALYTIC_LIMIT = 62
#: analytic rounds are drawn and checked at most this many at a time
ANALYTIC_CHUNK = 1 << 18
#: the analytic check plays every question up to this n, and samples beyond it
ANALYTIC_ALL_QUESTIONS = 16
#: the dense check covers every question up to this n, and samples beyond it
DENSE_ALL_QUESTIONS = 12
#: questions the dense check samples beyond DENSE_ALL_QUESTIONS
DENSE_SAMPLED_QUESTIONS = 256
#: the Hadamard transform acts on at most this many qubits per matrix product
HADAMARD_LAYER = 4
#: multiply-adds per matrix product at most; OpenBLAS runs products this small
#: on the calling thread, so the transform never waits for a second core
HADAMARD_PRODUCT = 1 << 18

#: the single-qubit Hadamard gate
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
#: i^k for k = 0..3; i^k for any k is entry k mod 4
_I_POWERS = np.array([1, 1j, -1, -1j])


class DenseWork:
    """Every buffer of 2^n entries that one dense question needs, and its plan.

    A question's input is two float planes, the real and imaginary parts of
    the phased GHZ state: zero but for the entries of |0..0> and |1..1>.
    A check of many questions allocates one workspace and passes it to each
    call, so its pages are mapped once and not once per question.  The
    state that `question_state_dense` or `apply_hadamards_dense` returns
    lives in the workspace and stays valid until its next use.

    The Hadamard layers are planned here, from HADAMARD_LAYER and
    HADAMARD_PRODUCT as they read when the workspace is built: each is a
    Sylvester matrix and the input and output views of one matrix product,
    over the real plane alone and over both planes.
    """

    def __init__(self, n: int):
        DENSE_LIMIT.require(n)
        size = 1 << n
        self.n = n
        self.state = np.empty(size, dtype=np.complex128)
        self.probs = np.empty(size)
        #: real and imaginary parts, twice: a Hadamard layer's input and output
        self.planes = np.empty((2, 2, size))
        both = []
        for layer, k in enumerate(_layer_widths(n)):
            src, dst = self.planes[layer % 2], self.planes[1 - layer % 2]
            rest = size >> k
            # the longest power-of-two block whose product keeps within the cap
            block = min(rest, 1 << max(0, HADAMARD_PRODUCT.bit_length() - 1 - 2 * k))
            lowest_last = src.reshape(2, rest // block, block, 1 << k).transpose(0, 1, 3, 2)
            lowest_first = dst.reshape(2, 1 << k, rest // block, block).transpose(0, 2, 1, 3)
            both.append((_sylvester(k), lowest_last, lowest_first))
        #: the layers of the real plane alone, then of both planes
        self.layers = ([(h, a[:1], b[:1]) for h, a, b in both], both)
        #: the planes that hold the transform after the last layer
        self.out = self.planes[len(both) % 2]


def ghz_state(cfg: GameConfig, sign: int = +1) -> np.ndarray:
    """Dense statevector (1/sqrt2)(|0^n> + sign|1^n>)."""
    DENSE_LIMIT.require(cfg.n)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    amp = 1.0 / math.sqrt(2.0)
    state = np.zeros(1 << cfg.n, dtype=np.complex128)
    state[0], state[-1] = amp, sign * amp
    return state


def apply_phase_dense(state: np.ndarray, player: int) -> np.ndarray:
    """Phase gate |1> -> i|1> on one player's qubit (1-based index)."""
    n = _num_qubits(state)
    if not 1 <= player <= n:
        raise IndexError(f"player {player} out of range 1..{n}")
    out = state.copy()
    # axis 1 is the player's qubit: the qubits before it, that qubit, the ones after
    out.reshape(1 << (player - 1), 2, 1 << (n - player))[:, 1, :] *= 1j
    return out


def apply_hadamards_dense(state: np.ndarray, work: DenseWork | None = None) -> np.ndarray:
    """Hadamard on every qubit (normalized Walsh-Hadamard transform).

    H^(x)n runs as layers of H^(x)k, k <= HADAMARD_LAYER.  A layer is a
    matrix product on the lowest k qubits of the real plane, and of the
    imaginary plane when `state` is complex, written out transposed so that
    those k qubits become the highest.  The layers cover n qubits in all,
    so after the last one every qubit is back in its place.  Two buffers of
    planes take turns as input and output.  A layer larger than
    HADAMARD_PRODUCT multiply-adds runs as several products, over blocks of
    the other qubits.

    The result is written to `work.state` (`state` itself may be that
    buffer); without a workspace, a fresh one is made.
    """
    work = _workspace(_num_qubits(state), work)
    imaginary = np.iscomplexobj(state)
    np.copyto(work.planes[0, 0], state.real)
    if imaginary:
        np.copyto(work.planes[0, 1], state.imag)
    return _planes_to_state(work, _transform(work, imaginary))


def apply_inputs_analytic(q: Question) -> int:
    """Phase tracking of the conditional phase gates: the sign of the GHZ phase state.

    +1 stands for |0..0>+|1..1>, -1 for the minus state; weight mod 4
    decides.  Only defined under the promise; an odd-weight question would
    leave the GHZ phase subspace and is rejected.
    """
    if not is_legitimate(q):
        raise ValueError(f"question {q} violates the promise; analytic path undefined")
    return +1 if q.weight % 4 == 0 else -1


def question_state_dense(q: Question, work: DenseWork | None = None) -> np.ndarray:
    """Pre-measurement state for a question: GHZ, then phase gates, then Hadamards.

    The phase gates of all players with input 1 commute, and together they
    multiply basis state |x> by i^popcount(x & q); only x = 0..0 and 1..1
    carry GHZ amplitude.  The state is built in `work` (a fresh workspace
    without one).
    """
    work = _workspace(q.n, work)
    return _planes_to_state(work, _question_planes(q, work))


def sample_parity_class(n: int, parity: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniformly random packed n-bit string per entry of `parity`, of that bit parity.

    Each string is one draw of n-1 fair bits, most significant first,
    shifted up by one, plus a last bit that fixes the parity.  All strings
    come from one draw, so the chunked callers pass at most ANALYTIC_CHUNK
    entries; how a run of strings is split into calls does not change them.
    """
    out = rng.integers(0, 1 << (n - 1), size=len(parity), dtype=np.uint64)
    out <<= 1
    out |= (np.bitwise_count(out) + parity) & 1
    return out


def require_analytic(n: int) -> None:
    """Refuse n beyond ANALYTIC_LIMIT, where a packed round no longer fits a machine word."""
    if n > ANALYTIC_LIMIT:
        raise UsageError(f"n={n} exceeds the analytic limit {ANALYTIC_LIMIT}")


def require_rounds(rounds: int, what: str) -> None:
    """Refuse more rounds than the int64 maximum, which numbers every sampled round."""
    if rounds > np.iinfo(np.int64).max:
        raise UsageError(f"{what} is more than {np.iinfo(np.int64).max} rounds")


def sampled_rounds(n: int, trials: int, rng: np.random.Generator):
    """Packed (questions, answers) of `trials` perfect rounds, a chunk at a time.

    Each chunk holds ANALYTIC_CHUNK // n rounds (at least one): its
    questions, uniform in the even parity class, then the perfect answers,
    uniform in the class each question demands.  Memory stays flat however
    many trials are asked for; n and trials are refused before any draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    require_analytic(n)
    require_rounds(trials, f"{trials} trials")
    step = max(1, ANALYTIC_CHUNK // n)
    for start in range(0, trials, step):
        questions = sample_parity_class(n, np.zeros(min(step, trials - start), dtype=np.uint8), rng)
        yield questions, sample_parity_class(n, np.bitwise_count(questions) >> 1 & 1, rng)


def analytic_wins(n: int, questions: np.ndarray, trials: int, rng: np.random.Generator) -> int:
    """Rounds won when every packed question is played `trials` times, analytically.

    Draws exactly what one `sample_answers` call per question, in order,
    would draw, but keeps the outcomes packed and checks their parity with
    one popcount per chunk of at most ANALYTIC_CHUNK rounds.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    require_analytic(n)
    weights = np.bitwise_count(np.asarray(questions, dtype=np.uint64))
    if np.any(weights & 1):
        raise ValueError("a question violates the promise (odd weight)")
    parity = (weights >> 1) & 1
    rounds = parity.size * trials
    require_rounds(rounds, f"{parity.size} questions times {trials} trials")
    wins = 0
    for start in range(0, rounds, ANALYTIC_CHUNK):
        want = parity[np.arange(start, min(start + ANALYTIC_CHUNK, rounds)) // trials]
        outcomes = sample_parity_class(n, want, rng)
        wins += int(np.count_nonzero((np.bitwise_count(outcomes) & 1) == want))
    return wins


def analytic_check(n: int, trials: int, rng: np.random.Generator) -> tuple[str, int, int]:
    """Play the perfect strategy analytically; returns (coverage, rounds, wins).

    Up to ANALYTIC_ALL_QUESTIONS players every legitimate question is played
    `trials` times ("all-questions").  Beyond, the `trials` rounds of
    `sampled_rounds` are checked, one question each ("sampled-questions").
    """
    if n <= ANALYTIC_ALL_QUESTIONS:
        questions = legitimate_bits(n)
        return "all-questions", questions.size * trials, analytic_wins(n, questions, trials, rng)
    wins = sum(int(np.count_nonzero(appropriate(q, a))) for q, a in sampled_rounds(n, trials, rng))
    return "sampled-questions", trials, wins


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
        require_analytic(q.n)
        parity = target_parity(q)  # raises on an illegitimate question
        outcomes = sample_parity_class(q.n, np.full(trials, parity, dtype=np.uint8), rng)
    elif mode == "dense":
        if not is_legitimate(q):
            raise ValueError(f"question {q} violates the promise")
        outcomes = _sample_outcomes(question_state_dense(q), trials, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [Answer(q.n, bits) for bits in outcomes.tolist()]


def dense_matches_analytic(q: Question, work: DenseWork | None = None) -> bool:
    """Cross-check: the dense pipeline must land flat on the analytic parity class.

    After the phase gates and Hadamards the statevector has to be supported
    on exactly one parity class, with every squared amplitude equal to
    2^(1-n) within tolerance, and the class must match the tracked sign.
    Runs in `work` (a fresh workspace without one).
    """
    work = _workspace(q.n, work)
    imaginary = _question_planes(q, work)
    real, imag = work.out
    probs = np.multiply(real, real, out=work.probs)
    if imaginary:
        probs += np.square(imag, out=imag)  # in place: the check hands out no state
    probs -= _flat_on_class(q.n)[int(apply_inputs_analytic(q) < 0)]
    return bool(np.abs(probs, out=probs).max() <= NORM_TOL)


def dense_check(n: int, rng: np.random.Generator) -> tuple[Question | None, int]:
    """Dense pipeline agrees with phase tracking: one parity class, flat weights.

    Checks every legitimate question up to DENSE_ALL_QUESTIONS players, and
    DENSE_SAMPLED_QUESTIONS drawn ones beyond, all in one workspace.
    Returns the first question that disagrees (None when all agree) and how
    many questions were checked.
    """
    if n <= DENSE_ALL_QUESTIONS:
        questions = legitimate_bits(n)
    else:
        parity = np.zeros(DENSE_SAMPLED_QUESTIONS, dtype=np.uint8)
        questions = sample_parity_class(n, parity, rng)
    work = DenseWork(n)
    checked = (Question(n, q) for q in questions.tolist())
    return next((q for q in checked if not dense_matches_analytic(q, work)), None), questions.size


def _workspace(n: int, work: DenseWork | None) -> DenseWork:
    if work is None:
        return DenseWork(n)
    if work.n != n:
        raise ValueError(f"workspace is for n={work.n}, not n={n}")
    return work


def _question_planes(q: Question, work: DenseWork) -> bool:
    """The question's state in `work.out`; whether its imaginary plane was transformed.

    The GHZ state has amplitude only on |0..0> and |1..1>, so the input
    planes are zero but for those two entries x, each the GHZ amplitude
    times the phase i^popcount(x & q).  H is real, so a plane that is
    exactly zero stays zero and is not transformed; the written entries
    decide that, never the question.
    """
    amp = 1.0 / math.sqrt(2.0)
    planes = work.planes[0]
    planes.fill(0.0)
    for x in (0, (1 << q.n) - 1):
        phase = _I_POWERS[(x & q.bits).bit_count() % 4]
        planes[:, x] = phase.real * amp, phase.imag * amp
    return _transform(work, bool(planes[1, 0] or planes[1, -1]))


def _transform(work: DenseWork, imaginary: bool) -> bool:
    """Run the planned layers on the real plane, and on the imaginary one if asked."""
    for h, lowest_last, lowest_first in work.layers[imaginary]:
        np.matmul(h, lowest_last, out=lowest_first)
    return imaginary


def _planes_to_state(work: DenseWork, imaginary: bool) -> np.ndarray:
    """The transformed planes as the complex `work.state`; a plane left out is zero."""
    work.state.real = work.out[0]
    work.state.imag = work.out[1] if imaginary else 0.0
    return work.state


@lru_cache(maxsize=4)
def _flat_on_class(n: int) -> np.ndarray:
    """Row p: the probabilities of the state spread evenly over the basis indices of parity p."""
    odd = np.bitwise_count(np.arange(1 << n)) & 1
    flat = np.where(odd == np.arange(2)[:, None], 2.0 ** (1 - n), 0.0)
    flat.flags.writeable = False
    return flat


@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """H^(x)k as a real 2^k x 2^k matrix, Kronecker powers of the 2x2 gate."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.kron(h, _HADAMARD)
    h.flags.writeable = False
    return h


def _layer_widths(n: int) -> list[int]:
    full, last = divmod(n, HADAMARD_LAYER)
    return [HADAMARD_LAYER] * full + ([last] if last else [])


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
