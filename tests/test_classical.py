import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgame.classical import (
    DeterministicStrategy,
    ProbabilisticStrategy,
    classical_bound,
    exhaustive_best,
    is_balanced,
    optimal_set,
    pair_flip_map,
    per_question_win_counts,
    strategy_score,
    success_proportion,
    table1_strategy,
    win_count_table,
)
from ghzgame.core import GameConfig, Question, UsageError, legitimate_bits
from ghzgame.noise import ExtendedStrategy


def oracle_wins(outputs):
    """Independent win count: enumerate bit tuples and apply the parity rule directly."""
    n = len(outputs)
    wins = 0
    for x in itertools.product((0, 1), repeat=n):
        if sum(x) % 2 != 0:
            continue
        y = [outputs[i][x[i]] for i in range(n)]
        if sum(y) % 2 == (sum(x) // 2) % 2:
            wins += 1
    return wins


def answer_parity_oracle(strat, question_bits):
    """Parity of the strategy's answer on a packed question, one player at a time."""
    n = strat.n
    parity = 0
    for i in range(1, n + 1):
        parity ^= strat.outputs[i - 1][(question_bits >> (n - i)) & 1]
    return parity


def count_wins_oracle(strat):
    """Legitimate questions the strategy wins, one question at a time."""
    wins = 0
    for x in range(1 << strat.n):
        if x.bit_count() % 2 == 0 and answer_parity_oracle(strat, x) == (x.bit_count() >> 1) & 1:
            wins += 1
    return wins


def selector_mask_wins(n):
    """Brute-force oracle for the whole win table, one question at a time.

    For each question a mask picks, per player, the code bit its input
    selects; the parity of code & mask is the parity of the answer.
    """
    codes = np.arange(1 << (2 * n), dtype=np.uint64)
    wins = np.zeros(codes.size, dtype=np.int64)
    for x in legitimate_bits(n).tolist():
        mask = 0
        for i in range(1, n + 1):
            j = (x >> (n - i)) & 1
            mask |= 1 << (2 * (n - i) + (1 - j))
        parity = np.bitwise_count(codes & np.uint64(mask)) & 1
        wins += parity == (x.bit_count() >> 1) & 1
    return wins


def oracle_score_sum(outputs):
    """Signed sum over all 2^n strings of i^weight(x) * prod of selected signs."""
    n = len(outputs)
    total = 0 + 0j
    for x in itertools.product((0, 1), repeat=n):
        prod = 1
        for i in range(n):
            prod *= 1 - 2 * outputs[i][x[i]]
        total += (1j ** sum(x)) * prod
    return total


def all_players(pair, n):
    return DeterministicStrategy.from_strings([pair] * n)


TABLES = pytest.mark.parametrize(
    "table", [DeterministicStrategy, ExtendedStrategy], ids=lambda table: table.__name__
)


@TABLES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_code_roundtrip(table, data):
    n = data.draw(st.integers(1, 6), label="n")
    code = data.draw(st.integers(0, len(table.SYMBOLS) ** (2 * n) - 1), label="code")
    assert table.from_code(n, code).code == code


@TABLES
def test_every_code_roundtrips_at_n3(table):
    codes = range(len(table.SYMBOLS) ** 6)
    assert [table.from_code(3, code).code for code in codes] == list(codes)


def test_code_order_is_lexicographic_on_pairs():
    s = DeterministicStrategy.from_strings(["01", "10", "11"])
    assert s.code == 0b01_10_11


def test_eval_answer_examples():
    n = 4
    always0 = all_players("00", n)
    assert str(always0.answer(Question.from_string("0110"))) == "0000"
    all11 = all_players("11", 3)
    assert str(all11.answer(Question.from_string("110"))) == "111"
    echo = all_players("01", 3)
    assert str(echo.answer(Question.from_string("011"))) == "011"


def test_success_proportion_examples():
    # frozen from oracle_wins: all-output-1 wins 3 of 4 questions at n=3
    assert oracle_wins(((1, 1),) * 3) == 3
    assert success_proportion(all_players("11", 3)) == Fraction(3, 4)
    assert oracle_wins(((0, 0),) * 3) == 1
    assert success_proportion(all_players("00", 3)) == Fraction(1, 4)
    table_n4 = DeterministicStrategy.from_strings(["11", "00", "00", "00"])
    assert oracle_wins(table_n4.outputs) == 6
    assert success_proportion(table_n4) == Fraction(3, 4)


def test_strategy_score_example():
    # all signs +1: s = (1+i)^3 = -2+2i; wins only the all-zero question
    score = strategy_score(all_players("00", 3))
    assert (score.re, score.im) == (-2, 2)
    assert (score.wins, score.losses) == (1, 3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_success_proportion_matches_oracle_for_every_strategy(n):
    for code in range(1 << (2 * n)):
        strat = DeterministicStrategy.from_code(n, code)
        assert success_proportion(strat) == Fraction(oracle_wins(strat.outputs), 1 << (n - 1))


@given(st.integers(3, 10), st.data())
@settings(max_examples=60)
def test_strategy_score_counts_wins_like_the_parity_loop(n, data):
    strat = DeterministicStrategy.from_code(n, data.draw(st.integers(0, (1 << (2 * n)) - 1)))
    score = strategy_score(strat)
    assert score.wins == count_wins_oracle(strat)
    assert success_proportion(strat) == Fraction(score.wins, 1 << (n - 1))


@given(st.integers(3, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_win_matrix_users_match_the_parity_loop(n, data):
    codes = data.draw(st.lists(st.integers(0, (1 << (2 * n)) - 1), min_size=1, max_size=12))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=len(codes), max_size=len(codes)))
    strategies = [DeterministicStrategy.from_code(n, c) for c in codes]
    mix = ProbabilisticStrategy(
        tuple(strategies), tuple(Fraction(w, sum(weights)) for w in weights)
    )
    questions = [x for x in range(1 << n) if x.bit_count() % 2 == 0]
    won = [
        [answer_parity_oracle(s, x) == (x.bit_count() >> 1) & 1 for s in strategies]
        for x in questions
    ]
    assert per_question_win_counts(strategies, GameConfig(n)) == [sum(row) for row in won]
    want = [sum((w for w, ok in zip(mix.weights, row) if ok), Fraction(0)) for row in won]
    assert mix.win_probabilities() == want


@given(st.integers(3, 10), st.data())
@settings(max_examples=60)
def test_score_product_equals_sum(n, data):
    outputs = tuple(
        (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))) for _ in range(n)
    )
    strat = DeterministicStrategy(outputs)
    score = strategy_score(strat)
    oracle = oracle_score_sum(outputs)
    assert complex(score.re, score.im) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_score_identity_exhaustive(n):
    for code in range(1 << (2 * n)):
        score = strategy_score(DeterministicStrategy.from_code(n, code))
        assert score.wins + score.losses == 1 << (n - 1)
        assert abs(score.re) <= 1 << (n // 2)
        if n % 2 == 0:
            assert (abs(score.re), abs(score.im)) in {(1 << n // 2, 0), (0, 1 << n // 2)}


@pytest.mark.parametrize(
    "n,expect",
    [(3, Fraction(3, 4)), (4, Fraction(3, 4)), (5, Fraction(5, 8)), (6, Fraction(5, 8))],
)
def test_exhaustive_best(n, expect):
    best, witnesses = exhaustive_best(GameConfig(n))
    assert best == expect
    assert best == classical_bound(n)
    assert all(
        success_proportion(DeterministicStrategy.from_code(n, int(c))) == best
        for c in witnesses[:5]
    )


def test_exhaustive_best_rejects_large_n(monkeypatch):
    monkeypatch.setenv("GAME_EXHAUSTIVE_LIMIT", "4")
    with pytest.raises(UsageError) as refused:
        exhaustive_best(GameConfig(5))
    assert str(refused.value) == (
        "n=5 exceeds the exhaustive limit 4 "
        "(set GAME_EXHAUSTIVE_LIMIT to raise it); refusing to sample silently"
    )


def test_optimal_set_is_refused_beyond_the_exhaustive_limit(monkeypatch):
    monkeypatch.delenv("GAME_EXHAUSTIVE_LIMIT", raising=False)
    with pytest.raises(UsageError) as refused:
        optimal_set(GameConfig(9))
    assert str(refused.value) == (
        "n=9 exceeds the exhaustive limit 8 "
        "(set GAME_EXHAUSTIVE_LIMIT to raise it); refusing to sample silently"
    )


def test_win_count_table_matches_oracle():
    n = 3
    wins = win_count_table(n)
    for code in range(64):
        assert wins[code] == oracle_wins(DeterministicStrategy.from_code(n, code).outputs)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_win_count_table_matches_selector_mask_oracle(n):
    assert np.array_equal(win_count_table(n), selector_mask_wins(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exhaustive_best_codes_are_oracle_argmax(n):
    wins = selector_mask_wins(n)
    top = int(wins.max())
    best, codes = exhaustive_best(GameConfig(n))
    assert best == Fraction(top, 1 << (n - 1))
    assert codes.dtype == np.int64
    assert codes.tolist() == [c for c in range(wins.size) if wins[c] == top]


@given(st.integers(3, 8), st.data())
@settings(max_examples=60)
def test_win_count_invariant_under_player_permutation(n, data):
    pairs = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    code = int("".join(format(pairs[i], "02b") for i in range(n)), 2)
    permuted = int("".join(format(pairs[i], "02b") for i in order), 2)
    wins = win_count_table(n)
    assert wins[code] == wins[permuted]


def test_table1_rows():
    assert table1_strategy(GameConfig(6)).outputs[:2] == ((1, 0), (0, 0))
    assert table1_strategy(GameConfig(10)).outputs[0] == (0, 1)  # 10 mod 8 = 2
    n11 = table1_strategy(GameConfig(11))
    assert set(n11.outputs) == {(1, 1)}
    assert success_proportion(n11) == Fraction(33, 64)


@pytest.mark.parametrize("n", range(3, 17))
def test_table1_achieves_bound(n):
    assert success_proportion(table1_strategy(GameConfig(n))) == classical_bound(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_optimal_set_properties(n):
    opt = optimal_set(GameConfig(n))
    assert table1_strategy(GameConfig(n)).code in {s.code for s in opt}
    assert all(success_proportion(s) == classical_bound(n) for s in opt[:10])
    assert is_balanced(opt, GameConfig(n))


def test_singleton_is_not_balanced():
    cfg = GameConfig(3)
    assert not is_balanced([table1_strategy(cfg)], cfg)
    assert per_question_win_counts([table1_strategy(cfg)], cfg) == [0, 1, 1, 1]


def test_empty_set_is_balanced():
    assert is_balanced([], GameConfig(3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_uniform_mixture_over_optimal_set(n):
    ps = ProbabilisticStrategy.uniform(optimal_set(GameConfig(n)))
    assert ps.success_probability() == classical_bound(n)


def test_point_mass_on_table1_fails_worst_case():
    # the simple optimal strategy loses the all-zero question outright
    ps = ProbabilisticStrategy.uniform([table1_strategy(GameConfig(3))])
    assert ps.success_probability() == 0


def test_min_never_exceeds_mean():
    rng_strategies = [DeterministicStrategy.from_code(3, c) for c in (5, 17, 40, 63)]
    ps = ProbabilisticStrategy(
        tuple(rng_strategies),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
    )
    assert ps.success_probability() <= ps.success_proportion()


def test_probabilistic_weight_validation():
    s = table1_strategy(GameConfig(3))
    with pytest.raises(ValueError):
        ProbabilisticStrategy((s,), (Fraction(1, 2),))
    with pytest.raises(ValueError):
        ProbabilisticStrategy((s, s), (Fraction(3, 2), Fraction(-1, 2)))


def test_pair_flip_preserves_score():
    for code in range(1 << 6):
        s = DeterministicStrategy.from_code(3, code)
        a = strategy_score(s)
        b = strategy_score(pair_flip_map(s))
        assert (a.re, a.im) == (b.re, b.im)


def test_pair_flip_maps_optimal_to_optimal():
    cfg = GameConfig(4)
    opt_codes = {s.code for s in optimal_set(cfg)}
    for s in optimal_set(cfg):
        assert pair_flip_map(s).code in opt_codes


def test_pair_flip_order_four():
    for code in (0, 13, 37, 63):
        s = DeterministicStrategy.from_code(3, code)
        t = s
        for _ in range(4):
            t = pair_flip_map(t)
        assert t == s


def test_pair_flip_swaps_question_pairs():
    # appropriateness on 00xx maps to appropriateness on 11xx
    cfg = GameConfig(4)
    for code in range(1 << 8):
        s = DeterministicStrategy.from_code(4, code)
        s2 = pair_flip_map(s)
        for tail in range(4):
            if bin(tail).count("1") % 2 != 0:
                continue
            x = Question(4, tail)
            x2 = Question(4, 0b1100 | tail)
            from ghzgame.core import is_appropriate

            assert is_appropriate(x, s.answer(x)) == is_appropriate(x2, s2.answer(x2))
