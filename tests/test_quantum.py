import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgame import quantum
from ghzgame.core import (
    GameConfig,
    Question,
    UsageError,
    enumerate_legitimate,
    is_appropriate,
    legitimate_bits,
    target_parity,
)
from ghzgame.quantum import (
    analytic_check,
    analytic_wins,
    apply_hadamards_dense,
    apply_inputs_analytic,
    apply_phase_dense,
    dense_matches_analytic,
    ghz_state,
    question_state_dense,
    sample_answers,
)

RT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------- oracles


def phase_by_index_oracle(state, player):
    """Phase gate on one player's qubit, selected through an index array."""
    n = state.size.bit_length() - 1
    out = state.copy()
    idx = np.arange(out.size)
    out[(idx >> (n - player)) & 1 == 1] *= 1j
    return out


def butterfly_oracle(state):
    """Walsh-Hadamard transform, one copying butterfly stage per qubit."""
    size = state.size
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


def gate_by_gate_oracle(q):
    """GHZ, one phase gate per player with input 1, then the butterfly transform."""
    state = ghz_state(GameConfig(q.n))
    for player in range(1, q.n + 1):
        if q.bit(player):
            state = apply_phase_dense(state, player)
    return butterfly_oracle(state)


def per_question_outcomes_oracle(n, questions, trials, rng):
    """Packed outcomes of `trials` rounds per question, one round at a time.

    A round is one draw of n-1 fair bits, shifted up by one, plus the bit
    that gives the question's target parity.
    """
    outcomes = []
    for bits in questions:
        want = target_parity(Question(n, int(bits)))
        for _ in range(trials):
            free = int(rng.integers(0, 1 << (n - 1), dtype=np.uint64))
            outcomes.append(free << 1 | (free.bit_count() + want) & 1)
    return outcomes


def permute_bits(x, perm, n):
    """Move player i's bit to player perm[i] (0-based, player 1 most significant)."""
    out = 0
    for i, j in enumerate(perm):
        out |= ((x >> (n - 1 - i)) & 1) << (n - 1 - j)
    return out


def test_ghz_state_amplitudes():
    s = ghz_state(GameConfig(3))
    assert s[0] == pytest.approx(RT2)
    assert s[7] == pytest.approx(RT2)
    assert np.count_nonzero(s) == 2
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_ghz_support_at_larger_n():
    s = ghz_state(GameConfig(12))
    assert np.count_nonzero(s) == 2


def test_phase_gate_period_four():
    s = ghz_state(GameConfig(3))
    t = s
    for _ in range(4):
        t = apply_phase_dense(t, 2)
    np.testing.assert_allclose(t, s, atol=1e-12)


def test_phase_on_two_qubits_flips_sign():
    s = ghz_state(GameConfig(4))
    t = apply_phase_dense(apply_phase_dense(s, 1), 3)
    np.testing.assert_allclose(t, ghz_state(GameConfig(4), sign=-1), atol=1e-12)


def test_phase_on_four_qubits_is_identity():
    s = ghz_state(GameConfig(5))
    t = s
    for player in (1, 2, 4, 5):
        t = apply_phase_dense(t, player)
    np.testing.assert_allclose(t, s, atol=1e-12)


def test_hadamards_on_plus_state():
    s = apply_hadamards_dense(ghz_state(GameConfig(3)))
    even = [0b000, 0b011, 0b101, 0b110]
    for idx in range(8):
        want = 0.5 if idx in even else 0.0
        assert s[idx] == pytest.approx(want, abs=1e-12)


def test_hadamards_on_minus_state():
    s = apply_hadamards_dense(ghz_state(GameConfig(3), sign=-1))
    for idx in range(8):
        odd = bin(idx).count("1") % 2 == 1
        assert abs(s[idx]) == pytest.approx(0.5 if odd else 0.0, abs=1e-12)


def test_hadamards_involution():
    rng = np.random.default_rng(7)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(apply_hadamards_dense(apply_hadamards_dense(v)), v, atol=1e-12)


def test_gates_preserve_norm():
    rng = np.random.default_rng(11)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    v /= np.linalg.norm(v)
    assert np.linalg.norm(apply_phase_dense(v, 3)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(apply_hadamards_dense(v)) == pytest.approx(1.0, abs=1e-12)


def test_analytic_sign_examples():
    assert apply_inputs_analytic(Question.from_string("0000")) == +1
    assert apply_inputs_analytic(Question.from_string("110")) == -1
    assert apply_inputs_analytic(Question.from_string("1111")) == +1


def test_analytic_rejects_illegitimate():
    with pytest.raises(ValueError):
        apply_inputs_analytic(Question.from_string("100"))


def test_measure_deterministic_state():
    s = np.zeros(8, dtype=complex)
    s[0b011] = 1.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert quantum._sample_outcomes(s, 1, rng).tolist() == [0b011]


def test_measure_rejects_unnormalized():
    with pytest.raises(ValueError):
        quantum._sample_outcomes(np.ones(8, dtype=complex), 1, np.random.default_rng(0))


def test_measure_frequencies_match_amplitudes():
    s = apply_hadamards_dense(ghz_state(GameConfig(3)))
    rng = np.random.default_rng(123)
    counts = {}
    trials = 40000
    for a in sample_answers(Question.from_string("000"), trials, rng, mode="dense"):
        counts[str(a)] = counts.get(str(a), 0) + 1
    assert set(counts) == {"000", "011", "101", "110"}
    for c in counts.values():
        assert c / trials == pytest.approx(0.25, abs=0.01)
    # sampling never leaves the support
    probs = np.abs(s) ** 2
    assert all(probs[int(k, 2)] > 0 for k in counts)


@pytest.mark.parametrize("mode", ["analytic", "dense"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_round_always_wins(n, mode):
    rng = np.random.default_rng(5)
    for q in enumerate_legitimate(GameConfig(n)):
        for _ in range(20):
            (a,) = sample_answers(q, 1, rng, mode=mode)
            assert is_appropriate(q, a)


def test_all_zero_question_gives_even_answers():
    rng = np.random.default_rng(9)
    for a in sample_answers(Question.from_string("00000"), 200, rng):
        assert a.parity == 0


def test_weight_two_question_gives_odd_answers():
    rng = np.random.default_rng(9)
    for a in sample_answers(Question.from_string("110"), 200, rng):
        assert a.parity == 1


def test_analytic_and_dense_distributions_agree():
    # both modes must be uniform over the same parity class
    q = Question.from_string("011")
    rng = np.random.default_rng(2024)
    trials = 20000
    for mode in ("analytic", "dense"):
        counts = {}
        for a in sample_answers(q, trials, rng, mode=mode):
            counts[str(a)] = counts.get(str(a), 0) + 1
        assert all(int(k, 2).bit_count() % 2 == target_parity(q) for k in counts)
        assert len(counts) == 4
        for c in counts.values():
            assert c / trials == pytest.approx(0.25, abs=0.015)


@pytest.mark.parametrize("n", range(3, 9))
def test_dense_matches_analytic_small_n(n):
    for q in enumerate_legitimate(GameConfig(n)):
        assert dense_matches_analytic(q)


def test_question_state_is_flat_on_parity_class():
    s = question_state_dense(Question.from_string("1100"))
    probs = np.abs(s) ** 2
    for idx in range(16):
        odd = bin(idx).count("1") % 2 == 1
        assert probs[idx] == pytest.approx(0.125 if odd else 0.0, abs=1e-12)


def test_seed_determinism():
    q = Question.from_string("0110")
    a = sample_answers(q, 50, np.random.default_rng(77))
    b = sample_answers(q, 50, np.random.default_rng(77))
    assert a == b


@pytest.mark.parametrize("n", [*range(3, 13), 15, 20])
def test_dense_check_fails_on_the_wrong_class(monkeypatch, n):
    # the two classes differ by 2^(1-n) per entry, so at n = 20 this fails any
    # NORM_TOL from 2^-19 up; every question is planted up to DENSE_ALL_QUESTIONS
    # and one sampled question beyond
    right = quantum.apply_inputs_analytic
    monkeypatch.setattr(quantum, "apply_inputs_analytic", lambda q: -right(q))
    if n <= quantum.DENSE_ALL_QUESTIONS:
        questions = legitimate_bits(n)
    else:
        even = np.zeros(1, dtype=np.uint8)
        questions = quantum.sample_parity_class(n, even, np.random.default_rng(n))
    work = quantum.DenseWork(n)
    assert not any(dense_matches_analytic(Question(n, q), work) for q in questions.tolist())


@pytest.mark.parametrize("n", range(1, 7))
def test_phase_gate_matches_index_oracle(n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for player in range(1, n + 1):
        want = phase_by_index_oracle(v, player)
        np.testing.assert_array_equal(apply_phase_dense(v, player), want)


@pytest.mark.parametrize("n", range(3, 11))
def test_question_state_matches_gate_by_gate_oracle(n):
    work = quantum.DenseWork(n)
    for q in enumerate_legitimate(GameConfig(n)):
        want = gate_by_gate_oracle(q)
        np.testing.assert_allclose(question_state_dense(q), want, rtol=0, atol=1e-12)
        # one workspace for every question, as a dense check uses it
        np.testing.assert_allclose(question_state_dense(q, work), want, rtol=0, atol=1e-12)
        assert dense_matches_analytic(q, work)


def test_workspace_serves_one_n():
    work = quantum.DenseWork(4)
    with pytest.raises(ValueError):
        dense_matches_analytic(Question.from_string("110"), work)
    with pytest.raises(ValueError):
        apply_hadamards_dense(ghz_state(GameConfig(5)), work)


def test_dense_work_rejects_large_n(monkeypatch):
    monkeypatch.setenv("GAME_DENSE_LIMIT", "6")
    quantum.DenseWork(6)
    with pytest.raises(UsageError) as refused:
        quantum.DenseWork(7)
    assert str(refused.value) == (
        "n=7 exceeds the dense limit 6 "
        "(set GAME_DENSE_LIMIT to raise it); refusing to sample silently"
    )


@pytest.mark.parametrize("n", range(1, 14))
def test_hadamards_match_butterfly_oracle(n):
    rng = np.random.default_rng(100 + n)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(apply_hadamards_dense(v), butterfly_oracle(v), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,product", [(5, 1), (6, 16), (8, 64), (9, 300), (11, 1 << 12)])
def test_hadamards_in_small_products_match_butterfly_oracle(monkeypatch, n, product):
    # a cap this small splits every layer into many products
    monkeypatch.setattr(quantum, "HADAMARD_PRODUCT", product)
    rng = np.random.default_rng(200 + n)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(apply_hadamards_dense(v), butterfly_oracle(v), rtol=0, atol=1e-12)
    q = Question(n, (1 << n) - 2 if n % 2 else (1 << n) - 1)
    np.testing.assert_allclose(question_state_dense(q), gate_by_gate_oracle(q), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 14))
def test_hadamards_in_one_workspace_match_butterfly_oracle(n):
    # real, complex with one imaginary entry, real again: a stale imaginary
    # plane or a live one left out shows as a mismatch
    rng = np.random.default_rng(300 + n)
    one_imaginary = rng.normal(size=1 << n).astype(np.complex128)
    one_imaginary[rng.integers(1 << n)] += 1j
    work = quantum.DenseWork(n)
    for v in (rng.normal(size=1 << n), one_imaginary, rng.normal(size=1 << n), one_imaginary):
        np.testing.assert_allclose(apply_hadamards_dense(v, work), butterfly_oracle(v), atol=1e-12)
    if n >= 3:
        q = Question(n, 0b11 << (n - 2))
        want = gate_by_gate_oracle(q)
        np.testing.assert_allclose(question_state_dense(q, work), want, atol=1e-12)


@pytest.mark.parametrize("n", [12, 15])
def test_matrix_products_stay_within_the_cap(monkeypatch, n):
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        # (multiply-adds of one product, planes in the operand)
        products.append((a.shape[-2] * a.shape[-1] * b.shape[-1], b.shape[0]))
        return matmul(a, b, *args, **kwargs)

    def planes_per_product(call):
        products.clear()
        result = call()
        assert len(products) == -(-n // quantum.HADAMARD_LAYER)
        assert max(size for size, _ in products) <= quantum.HADAMARD_PRODUCT
        return result, {planes for _, planes in products}

    q = Question(n, 0b11 << (n - 2))
    state = np.random.default_rng(n).normal(size=(2, 1 << n)).T @ [1, 1j]
    monkeypatch.setattr(np, "matmul", spy)
    # a legitimate question's imaginary plane is exactly zero, so it is not transformed
    assert planes_per_product(lambda: dense_matches_analytic(q)) == (True, {1})
    assert planes_per_product(lambda: apply_hadamards_dense(state))[1] == {2}
    # a faulty phase table (i^2 read as i) leaves imaginary amplitude on |1..1>
    monkeypatch.setattr(quantum, "_I_POWERS", np.array([1, 1j, 1j, -1j]))
    assert planes_per_product(lambda: dense_matches_analytic(q)) == (False, {2})


@pytest.mark.parametrize("n", [12, 15])
def test_a_warm_workspace_allocates_less_than_a_plane(n):
    work = quantum.DenseWork(n)
    q = Question(n, 0b11 << (n - 2))
    state = np.random.default_rng(n).normal(size=(2, 1 << n)).T @ [1, 1j]
    calls = (lambda: dense_matches_analytic(q, work), lambda: apply_hadamards_dense(state, work))
    for call in calls:
        call()  # fills the per-n caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np.dtype(np.float64).itemsize << n


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.data())))
def test_question_state_permutes_with_the_players(args):
    perm, data = args
    n = len(perm)
    bits = data.draw(st.integers(0, (1 << n) - 1).filter(lambda b: b.bit_count() % 2 == 0))
    state = question_state_dense(Question(n, bits))
    moved = question_state_dense(Question(n, permute_bits(bits, perm, n)))
    idx = [permute_bits(x, perm, n) for x in range(1 << n)]
    np.testing.assert_allclose(moved[idx], state, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "n,trials,chunk",
    [(3, 7, 5), (5, 3, 9), (8, 4, 10), (12, 2, 64), (20, 1, 38), (12, 2, 7), (20, 1, 3)],
)
def test_analytic_wins_draws_like_per_question_calls(monkeypatch, n, trials, chunk):
    # a chunk this small splits rounds, and questions, across draws
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", chunk)
    pick = np.random.default_rng(n)
    questions = pick.integers(0, 1 << n, size=40, dtype=np.uint64)
    questions = questions[np.bitwise_count(questions) % 2 == 0]
    ours, oracle, per_question = (np.random.default_rng(9) for _ in range(3))
    wins = analytic_wins(n, questions, trials, ours)
    outcomes = per_question_outcomes_oracle(n, questions, trials, oracle)
    want = np.repeat((np.bitwise_count(questions) >> 1) & 1, trials).tolist()
    assert wins == sum(x.bit_count() % 2 == w for x, w in zip(outcomes, want))
    assert wins == questions.size * trials
    # sample_answers draws the same rounds, one call per question
    answers = [sample_answers(Question(n, q), trials, per_question) for q in questions.tolist()]
    assert [a.bits for round_answers in answers for a in round_answers] == outcomes
    assert ours.random() == oracle.random() == per_question.random()


@pytest.mark.parametrize("n,trials", [(3, 7), (8, 3), (16, 1)])
def test_analytic_check_plays_every_question_up_to_the_cutoff(n, trials):
    ours, oracle = np.random.default_rng(n), np.random.default_rng(n)
    wins = analytic_wins(n, legitimate_bits(n), trials, oracle)
    assert analytic_check(n, trials, ours) == ("all-questions", trials << (n - 1), wins)
    assert ours.random() == oracle.random()


def test_analytic_check_samples_questions_a_chunk_at_a_time(monkeypatch):
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", 140)  # 7 rounds of 20 players
    sizes = []
    sample = quantum.sample_parity_class

    def spy(n, parity, rng):
        sizes.append(len(parity))
        return sample(n, parity, rng)

    monkeypatch.setattr(quantum, "sample_parity_class", spy)
    ours, oracle = np.random.default_rng(20), np.random.default_rng(20)
    assert analytic_check(20, 50, ours) == ("sampled-questions", 50, 50)
    # each chunk of at most 7 draws its questions, then their outcomes
    assert sizes == [7, 7] * 7 + [1, 1]
    for size in sizes:
        oracle.integers(0, 1 << 19, size=size, dtype=np.uint64)
    assert ours.random() == oracle.random()


def test_analytic_wins_rejects_an_odd_question():
    with pytest.raises(ValueError):
        analytic_wins(4, np.array([0b0000, 0b0100], dtype=np.uint64), 1, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n,count,chunk", [(3, 11, 4), (24, 50, 100), (62, 9, 61), (24, 50, 7), (62, 9, 2)]
)
def test_sample_parity_class_draws_like_one_draw(monkeypatch, n, count, chunk):
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", chunk)
    parity = np.random.default_rng(n).integers(0, 2, size=count, dtype=np.uint8)
    ours, oracle = np.random.default_rng(3), np.random.default_rng(3)
    got = quantum.sample_parity_class(n, parity, ours)
    free = oracle.integers(0, 1 << (n - 1), size=count, dtype=np.uint64)
    want = free << np.uint64(1) | ((np.bitwise_count(free) + parity) & 1)
    np.testing.assert_array_equal(got, want)
    assert (np.bitwise_count(got) & 1).tolist() == parity.tolist()
    assert ours.random() == oracle.random()
