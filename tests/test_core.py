import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgame.classical import DeterministicStrategy
from ghzgame.core import (
    Answer,
    GameConfig,
    Question,
    answer_bits,
    appropriate,
    enumerate_legitimate,
    is_appropriate,
    is_legitimate,
    legitimate_bits,
    output_masks,
    target_parity,
)
from ghzgame.noise import ExtendedStrategy


def lookup_answer(outputs, q):
    """Oracle: (answer bits, no-output mask), one player's table entry at a time."""
    n = len(outputs)
    bits = bot = 0
    for i, pair in enumerate(outputs, start=1):
        out = pair[(q >> (n - i)) & 1]
        bits = (bits << 1) | (out == 1)
        bot = (bot << 1) | (out is None)
    return bits, bot


def test_config_rejects_small_n():
    with pytest.raises(ValueError):
        GameConfig(2)
    assert GameConfig(3).num_legitimate == 4


def test_legitimacy_examples():
    assert is_legitimate(Question.from_string("000"))
    assert not is_legitimate(Question.from_string("100"))
    assert is_legitimate(Question.from_string("110"))


def test_appropriate_examples():
    assert is_appropriate(Question.from_string("0000"), Answer.from_string("0000"))
    assert is_appropriate(Question.from_string("110"), Answer.from_string("100"))
    assert not is_appropriate(Question.from_string("110"), Answer.from_string("110"))


def test_appropriate_rejects_contract_violations():
    with pytest.raises(ValueError):
        is_appropriate(Question.from_string("100"), Answer.from_string("000"))
    with pytest.raises(ValueError):
        is_appropriate(Question.from_string("110"), Answer.from_string("1⊥0"))
    with pytest.raises(ValueError):
        is_appropriate(Question.from_string("110"), Answer.from_string("10"))


def test_enumerate_legitimate_n3():
    qs = [str(q) for q in enumerate_legitimate(GameConfig(3))]
    assert qs == ["000", "011", "101", "110"]


@pytest.mark.parametrize("n", range(3, 11))
def test_legitimate_count(n):
    assert len(enumerate_legitimate(GameConfig(n))) == 2 ** (n - 1)


def test_enumeration_is_sorted():
    bits = legitimate_bits(6).tolist()
    assert bits == sorted(bits)


@pytest.mark.parametrize("n", range(3, 13))
def test_legitimate_bits_are_the_even_weight_strings(n):
    bits = legitimate_bits(n)
    assert bits.dtype == np.uint64
    assert bits.tolist() == [x for x in range(1 << n) if x.bit_count() % 2 == 0]


def tables(n, outputs):
    pair = st.tuples(st.sampled_from(outputs), st.sampled_from(outputs))
    return st.lists(pair, min_size=n, max_size=n).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(tables(n, (0, 1)), tables(n, (0, 1, None)))))
def test_answer_kernel_matches_per_player_lookup(args):
    deterministic, extended = args
    n = len(extended)
    questions = legitimate_bits(n)
    for outputs in (deterministic, extended):
        ones, bots = output_masks(outputs), output_masks(outputs, None)
        want = [lookup_answer(outputs, q) for q in questions.tolist()]
        # broadcast over a uint64 array of questions, and on one Python int at a time
        got = zip(answer_bits(*ones, questions).tolist(), answer_bits(*bots, questions).tolist())
        assert list(got) == want
        assert [(answer_bits(*ones, q), answer_bits(*bots, q)) for q in questions.tolist()] == want
    # the Question-level evaluator is built on the kernel
    for q in questions[:64].tolist():
        got = ExtendedStrategy(extended).answer(Question(n, q))
        assert (got.bits, got.bot_mask) == lookup_answer(extended, q)
        got = DeterministicStrategy(deterministic).answer(Question(n, q))
        assert (got.bits, got.bot_mask) == lookup_answer(deterministic, q)


@given(st.integers(3, 12), st.integers(0, 2**32))
def test_packed_appropriateness_matches_is_appropriate(n, seed):
    questions = legitimate_bits(n)
    answers = np.random.default_rng(seed).integers(0, 1 << n, size=questions.size, dtype=np.uint64)
    pairs = zip(questions.tolist(), answers.tolist())
    want = [is_appropriate(Question(n, q), Answer(n, a)) for q, a in pairs]
    assert appropriate(questions, answers).tolist() == want


def test_answer_string_roundtrip():
    a = Answer.from_string("1⊥0")
    assert str(a) == "1⊥0"
    assert a.has_bot
    with pytest.raises(ValueError):
        a.parity


def test_answer_rejects_bit_under_bot():
    with pytest.raises(ValueError):
        Answer(3, bits=0b100, bot_mask=0b100)


@given(st.integers(3, 10), st.data())
def test_permutation_invariance(n, data):
    # relabeling players together on question and answer never changes the outcome
    qbits = data.draw(st.integers(0, 2**n - 1).filter(lambda b: b.bit_count() % 2 == 0))
    abits = data.draw(st.integers(0, 2**n - 1))
    perm = data.draw(st.permutations(range(1, n + 1)))
    q = Question(n, qbits)
    a = Answer(n, abits)
    q2 = Question(n, _permute(qbits, perm, n))
    a2 = Answer(n, _permute(abits, perm, n))
    assert is_appropriate(q, a) == is_appropriate(q2, a2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_half_of_answers_appropriate(n):
    for q in enumerate_legitimate(GameConfig(n)):
        wins = sum(1 for a in range(2**n) if is_appropriate(q, Answer(n, a)))
        assert wins == 2 ** (n - 1)


def test_target_parity_is_weight_mod4():
    assert target_parity(Question.from_string("0000")) == 0
    assert target_parity(Question.from_string("110")) == 1
    assert target_parity(Question.from_string("1111")) == 0


def _permute(bits: int, perm, n: int) -> int:
    out = 0
    for new_pos, old_player in enumerate(perm, start=1):
        bit = (bits >> (n - old_player)) & 1
        out |= bit << (n - new_pos)
    return out
