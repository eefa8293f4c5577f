import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgame import cli, noise, quantum
from ghzgame.classical import classical_bound
from ghzgame.core import GameConfig, Question, UsageError, legitimate_bits
from ghzgame.noise import (
    GAP_SLACK,
    ExtendedStrategy,
    bitflip_monte_carlo,
    bitflip_threshold,
    bitflip_win_prob,
    compare_report,
    detection_threshold,
    detection_win_prob,
    errorfree_exhaustive,
    errorfree_reference_strategy,
    errorfree_win_table,
    is_error_free,
    winnable_questions,
)


def binomial_even_error_sum(n, p):
    """Independent oracle: probability of an even number of flips among n players."""
    return sum(
        math.comb(n, i) * p ** (n - i) * (1 - p) ** i for i in range(0, n + 1, 2)
    )


def int64_monte_carlo_wins(n, p, trials, chunk, rng):
    """Oracle: the bit-flip Monte Carlo one round at a time, on Python ints.

    A chunk of max(1, chunk // n) rounds draws each round's question, then
    each round's perfect answer, then the flipped cells of the chunk.
    """
    step = max(1, chunk // n)
    wins = 0
    for start in range(0, trials, step):
        rows = min(step, trials - start)
        questions = [draw_of_parity(n, 0, rng) for _ in range(rows)]
        answers = [draw_of_parity(n, (x.bit_count() >> 1) & 1, rng) for x in questions]
        for cell in flipped_cells(n * rows, 1.0 - p, rng):
            player, row = divmod(cell, rows)
            answers[row] ^= 1 << (n - 1 - player)
        wins += sum(a.bit_count() % 2 == (x.bit_count() >> 1) & 1 for x, a in zip(questions, answers))
    return wins


def draw_of_parity(n, parity, rng):
    """One word of n-1 fair bits, shifted up by one, plus the bit that gives `parity`."""
    free = int(rng.integers(0, 1 << (n - 1), dtype=np.uint64))
    return free << 1 | (free.bit_count() + parity) & 1


def flipped_cells(cells, rate, rng):
    """Flipped cells (player * rows + row) below `cells`, one geometric gap at a time.

    Gaps come in batches of the expected number of flips left plus
    GAP_SLACK standard deviations, and every gap of a batch is drawn.
    """
    flipped = []
    last = -1
    while rate and last < cells - 1:
        expected = (cells - 1 - last) * rate
        for _ in range(int(expected + GAP_SLACK * math.sqrt(expected)) + 1):
            last += int(rng.geometric(rate))
            if last < cells:
                flipped.append(last)
    return flipped


def lookup_error_free(strat, n):
    """Oracle: won questions of an error-free table (None otherwise), player by player."""
    won = []
    for x in range(1 << n):
        if x.bit_count() % 2:
            continue
        outs = [strat.outputs[i][(x >> (n - 1 - i)) & 1] for i in range(n)]
        if None in outs:
            continue
        if sum(outs) % 2 != (x.bit_count() >> 1) & 1:
            return None
        won.append(x)
    return won


def itertools_errorfree_sweep(n):
    """Oracle for the no-output sweep: every table in itertools.product order, question by question.

    Returns the best win count and (position in the sweep, table) for every
    table attaining it.
    """
    questions = legitimate_bits(n).tolist()
    targets = [(x.bit_count() >> 1) & 1 for x in questions]
    inputs = [tuple((x >> (n - i)) & 1 for i in range(1, n + 1)) for x in questions]
    pairs = [(a, b) for a in (0, 1, None) for b in (0, 1, None)]
    best = -1
    witnesses = []
    for index, combo in enumerate(itertools.product(pairs, repeat=n)):
        wins = 0
        error_free = True
        for inp, target in zip(inputs, targets):
            parity = 0
            draw = False
            for player in range(n):
                out = combo[player][inp[player]]
                if out is None:
                    draw = True
                    break
                parity ^= out
            if draw:
                continue
            if parity == target:
                wins += 1
            else:
                error_free = False
                break
        if not error_free:
            continue
        if wins > best:
            best = wins
            witnesses = [(index, combo)]
        elif wins == best:
            witnesses.append((index, combo))
    return best, witnesses


def test_model_validation(capsys):
    # each range is [model.least, 1]: the one sampler refuses a p outside it,
    # and the command line a grid value outside it
    with pytest.raises(ValueError, match=r"reliability p must lie in \[0\.5, 1\], got 0\.4"):
        bitflip_monte_carlo(3, 0.4, 10, np.random.default_rng(0))
    bitflip_monte_carlo(3, 0.5, 10, np.random.default_rng(0))
    assert (noise.BITFLIP.least, noise.DETECTION.least) == (Fraction(1, 2), 0)
    assert cli.main(["detect", "--n", "3", "--eta", "1.5"]) == 1
    assert capsys.readouterr().err == "error: --eta grid '1.5' leaves [0.0, 1]\n"
    assert cli.main(["detect", "--n", "3", "--eta", "0"]) == 0


def test_grid_models_hold_the_closed_forms():
    assert noise.BITFLIP.win_prob is bitflip_win_prob
    assert noise.DETECTION.win_prob is detection_win_prob


def test_bitflip_win_prob_is_exact_on_fractions():
    assert bitflip_win_prob(3, Fraction(9, 10)) == Fraction(189, 250)
    assert detection_win_prob(3, Fraction(4, 5)) == Fraction(64, 125)


@settings(max_examples=500, deadline=None)
@given(st.integers(3, 62), st.floats(0.5, 1.0))
def test_bitflip_win_prob_keeps_the_float_formula(n, p):
    # (1 + y) / 2 and 1/2 + y / 2 round alike: halving a float is exact
    assert bitflip_win_prob(n, p) == 0.5 + (2.0 * p - 1.0) ** n / 2.0


@pytest.mark.parametrize("model", [noise.BITFLIP, noise.DETECTION], ids=lambda m: m.kind)
def test_exact_flag_matches_the_exact_closed_form(model):
    # no float in between: the flag on a/b is the closed form on the Fraction a/b,
    # at every point of least:1:0.001
    grid = [model.least + Fraction(k, 1000) for k in range(int((1 - model.least) * 1000) + 1)]
    for n in range(3, 13):
        classical = model.classical(n)
        for x in grid:
            want = model.win_prob(n, x) > classical
            assert model.quantum_wins(n, *x.as_integer_ratio()) == want, (n, x)


def test_bitflip_win_prob_endpoints():
    for n in (3, 7, 12):
        assert bitflip_win_prob(n, 1.0) == pytest.approx(1.0)
        assert bitflip_win_prob(n, 0.5) == pytest.approx(0.5)
    assert bitflip_win_prob(3, 0.9) == pytest.approx(0.756, abs=1e-12)


@pytest.mark.parametrize("n", range(3, 31))
def test_closed_form_matches_binomial_oracle(n):
    for k in range(50, 101):
        p = k / 100
        assert bitflip_win_prob(n, p) == pytest.approx(
            binomial_even_error_sum(n, p), abs=1e-12
        )


def test_bitflip_threshold_printed_values():
    assert bitflip_threshold(3) == pytest.approx(0.897, abs=0.001)
    assert bitflip_threshold(5) == pytest.approx(0.879, abs=0.001)


def test_bitflip_threshold_matches_odd_closed_form():
    for n in (3, 5, 7, 9, 11):
        closed = 0.5 + math.sqrt(2) ** (1 + 1 / n) / 4
        assert bitflip_threshold(n) == pytest.approx(closed, abs=1e-14)


def test_bitflip_threshold_decreases_to_limit():
    # decreasing within each parity class (the even-n bounds are weaker, so the
    # interleaved sequence is not monotone) and both classes share the limit
    odd = [bitflip_threshold(n) for n in range(3, 60, 2)]
    even = [bitflip_threshold(n) for n in range(4, 60, 2)]
    assert all(a > b for a, b in zip(odd, odd[1:]))
    assert all(a > b for a, b in zip(even, even[1:]))
    assert bitflip_threshold(10**4) == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-4)


@pytest.mark.parametrize("n", range(3, 31))
def test_threshold_separates_quantum_from_classical(n):
    e = bitflip_threshold(n)
    bound = classical_bound(n)
    for k in range(50, 101):
        p = k / 100
        quantum = bitflip_win_prob(n, p)
        assert (p > e) == (quantum > bound)


def test_monte_carlo_perfect_apparatus():
    rng = np.random.default_rng(1)
    est = bitflip_monte_carlo(4, 1.0, 5000, rng)
    assert est.estimate == 1.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("n,p", [(3, 0.9), (5, 0.85)])
def test_monte_carlo_matches_closed_form(n, p):
    rng = np.random.default_rng(42)
    est = bitflip_monte_carlo(n, p, 200000, rng)
    want = bitflip_win_prob(n, p)
    assert abs(est.estimate - want) <= 4 * est.std_error


@pytest.mark.parametrize(
    "n,p,trials,chunk",
    [
        (3, 0.9, 1000, 7),
        (3, 0.9, 10**5, 1 << 18),
        (5, 0.85, 77777, 1000),
        (9, 0.93, 20000, 50),
        (9, 0.9, 10**5, 1 << 18),
        (12, 0.7, 333, 5),
        (3, 0.99, 3000, 3),
        (3, 0.999, 20000, 30),
        (4, 1.0, 500, 9),
    ],
)
def test_monte_carlo_draws_like_the_int64_oracle(monkeypatch, n, p, trials, chunk):
    # a small chunk splits the question, answer and flip draws across many calls
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", chunk)
    ours, oracle = np.random.default_rng(trials), np.random.default_rng(trials)
    est = bitflip_monte_carlo(n, p, trials, ours)
    assert est.wins == int64_monte_carlo_wins(n, p, trials, chunk, oracle)
    assert ours.random() == oracle.random()


@pytest.mark.parametrize("n,rows,p", [(3, 1, 0.9), (4, 25, 0.5), (7, 10, 0.99), (62, 300, 0.95)])
def test_flip_masks_set_the_bits_of_the_oracle_cells(n, rows, p):
    ours, oracle = np.random.default_rng(rows), np.random.default_rng(rows)
    for _ in range(20):
        want = [0] * rows
        for cell in flipped_cells(n * rows, 1.0 - p, oracle):
            player, row = divmod(cell, rows)
            want[row] |= 1 << (n - 1 - player)
        assert noise._flip_masks(n, rows, p, ours).tolist() == want
    assert ours.random() == oracle.random()


def sampled_flips(monkeypatch, n, p, trials, chunk):
    """The estimate of one seeded run and the flip masks it applied, row by row."""
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", chunk)
    drawn = []

    def record(*args):
        drawn.append(flip_masks(*args))
        return drawn[-1]

    flip_masks = noise._flip_masks
    monkeypatch.setattr(noise, "_flip_masks", record)
    est = bitflip_monte_carlo(n, p, trials, np.random.default_rng(n * 1000 + trials))
    masks = np.concatenate(drawn)
    assert masks.size == trials
    # bit column j is player j + 1's flips, one row per round
    return est, (masks[:, None] >> np.arange(n - 1, -1, -1, dtype=np.uint64)) & 1 == 1


@pytest.mark.parametrize("n,p", [(3, 0.5), (5, 0.8), (9, 0.99), (4, 1.0)])
def test_chunked_flips_follow_the_model(monkeypatch, n, p):
    # small chunks: gaps cross rows and players, and the rounds span many chunks
    est, flips = sampled_flips(monkeypatch, n, p, 30000, 100)
    rate = 1.0 - p
    per_player = flips.mean(axis=0)
    assert np.all(np.abs(per_player - rate) <= 5 * math.sqrt(rate * (1 - rate) / len(flips)))
    both = rate**2
    se = math.sqrt(both * (1 - both) / len(flips))
    for j, k in [(0, 1), (0, n - 1), (n - 2, n - 1)]:
        assert abs(np.mean(flips[:, j] & flips[:, k]) - both) <= 5 * se
    # the same player in consecutive rounds, which the layout makes neighbouring cells
    assert abs(np.mean(flips[1:, 0] & flips[:-1, 0]) - both) <= 5 * se
    assert abs(est.estimate - binomial_even_error_sum(n, p)) <= 5 * est.std_error
    if p == 1.0:
        assert est.wins == est.trials


@pytest.mark.parametrize(
    "argv",
    [
        ["noise", "--n", "3..5", "--p", "0.8:0.9:0.05", "--trials", "1000", "--seed", "7"],
        ["report", "--quantum-trials", "5", "--mc-trials", "1000"],
    ],
    ids=["noise", "report"],
)
def test_pinned_monte_carlo_records_follow_the_int64_oracle(capsys, argv):
    # the runs whose digests test_cli pins: every Monte Carlo number comes from the oracle
    assert cli.main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    rng = np.random.default_rng(report["config"]["seed"])
    chunk = quantum.ANALYTIC_CHUNK
    if argv[0] == "noise":
        records = [r for r in report["records"] if r["kind"] == "monte-carlo"]
        assert len(records) == 3 * 3
        for rec in records:
            assert rec["wins"] == int64_monte_carlo_wins(rec["n"], rec["p"], 1000, chunk, rng)
    else:
        # the quantum section draws first; test_quantum checks those draws against their oracle
        for n in cli.REPORT_QUANTUM_N:
            quantum.analytic_wins(n, legitimate_bits(n), 5, rng)
        (rec,) = [r for r in report["records"] if r.get("derivation") == "monte-carlo" and "p" in r]
        assert rec["estimate"] == int64_monte_carlo_wins(3, 0.9, 1000, chunk, rng) / 1000


def test_perfect_check_and_noiseless_monte_carlo_draw_the_same_rounds(monkeypatch):
    # beyond 16 players the quantum check is the p = 1 Monte Carlo: one loop draws both
    monkeypatch.setattr(quantum, "ANALYTIC_CHUNK", 140)  # 7 rounds of 20 players
    sizes = []
    sample = quantum.sample_parity_class

    def spy(n, parity, rng):
        sizes.append(len(parity))
        return sample(n, parity, rng)

    monkeypatch.setattr(quantum, "sample_parity_class", spy)
    checked, sampled = np.random.default_rng(20), np.random.default_rng(20)
    assert quantum.analytic_check(20, 50, checked) == ("sampled-questions", 50, 50)
    check_sizes = sizes.copy()
    sizes.clear()
    assert bitflip_monte_carlo(20, 1.0, 50, sampled).wins == 50
    assert check_sizes == sizes == [7, 7] * 7 + [1, 1]
    assert checked.random() == sampled.random()


def test_monte_carlo_refuses_beyond_the_analytic_limit():
    with pytest.raises(ValueError):
        bitflip_monte_carlo(63, 0.9, 10, np.random.default_rng(0))


def test_monte_carlo_is_seed_deterministic():
    a = bitflip_monte_carlo(3, 0.9, 10000, np.random.default_rng(9))
    b = bitflip_monte_carlo(3, 0.9, 10000, np.random.default_rng(9))
    assert a == b


def test_detection_win_prob():
    assert detection_win_prob(3, 1.0) == 1.0
    assert detection_win_prob(3, 0.8) == pytest.approx(0.512)


def test_detection_threshold_values():
    assert detection_threshold(3) == pytest.approx(0.7937, abs=0.0001)
    assert detection_threshold(100) == pytest.approx(0.5070, abs=0.0001)
    values = [detection_threshold(n) for n in range(3, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", range(3, 21))
def test_detection_grid_equivalence(n):
    thr = detection_threshold(n)
    bound = 2 / 2 ** (n - 1)
    for k in range(50, 100):
        eta = k / 100
        assert (eta**n > bound) == (eta > thr)


def test_errorfree_exhaustive_n3():
    best, witnesses = errorfree_exhaustive(GameConfig(3))
    assert best == 2
    assert witnesses.size > 0
    for c in witnesses[:10]:
        w = ExtendedStrategy.from_code(3, int(c))
        assert is_error_free(w)
        assert len(winnable_questions(w)) == 2


def test_errorfree_exhaustive_n4():
    best, _ = errorfree_exhaustive(GameConfig(4))
    assert best == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_errorfree_exhaustive_matches_itertools_oracle(n):
    best, codes = errorfree_exhaustive(GameConfig(n))
    want_best, want = itertools_errorfree_sweep(n)
    assert best == want_best
    assert codes.tolist() == [index for index, _ in want]
    assert all(ExtendedStrategy.from_code(n, index).outputs == combo for index, combo in want)


@pytest.mark.parametrize("n", [3, 4])
def test_errorfree_win_table_scores_every_table(n):
    want = []
    for code in range(9**n):
        strat = ExtendedStrategy.from_code(n, code)
        want.append(len(winnable_questions(strat)) if is_error_free(strat) else -1)
    assert errorfree_win_table(n).tolist() == want


def test_errorfree_exhaustive_n5():
    best, codes = errorfree_exhaustive(GameConfig(5))
    assert best == 2
    assert codes.size == 2560


def test_extended_code_order_follows_pairs():
    # digits 3*index(a) + index(b) over (0, 1, None), player 1 most significant
    strat = ExtendedStrategy.from_code(3, 1 * 81 + 5 * 9 + 8)
    assert strat.outputs == ((0, 1), (1, None), (None, None))
    with pytest.raises(ValueError):
        ExtendedStrategy.from_code(3, 9**3)


def test_errorfree_rejects_large_n(monkeypatch):
    monkeypatch.setenv("GAME_EXTENDED_LIMIT", "3")
    with pytest.raises(UsageError) as refused:
        errorfree_exhaustive(GameConfig(4))
    assert str(refused.value) == (
        "n=4 exceeds the no-output sweep limit 3 "
        "(set GAME_EXTENDED_LIMIT to raise it); refusing to sample silently"
    )


def test_reference_strategy_structure():
    strat = errorfree_reference_strategy(GameConfig(5))
    assert strat.outputs[0] == (0, 0)
    assert strat.outputs[1] == (0, 1)
    assert all(pair == (0, None) for pair in strat.outputs[2:])


@pytest.mark.parametrize("n", range(3, 17))
def test_reference_strategy_wins_exactly_two(n):
    cfg = GameConfig(n)
    strat = errorfree_reference_strategy(cfg)
    won = {q.bits for q in winnable_questions(strat)}
    assert won == {0, 0b11 << (n - 2)}


def test_reference_strategy_example_answers():
    cfg = GameConfig(4)
    strat = errorfree_reference_strategy(cfg)
    assert str(strat.answer(Question.from_string("0000"))) == "0000"
    assert str(strat.answer(Question.from_string("1100"))) == "0100"
    a = strat.answer(Question.from_string("1010"))
    assert a.has_bot  # third player declines, the round is a draw


EXTENDED_PAIR = st.tuples(st.sampled_from((0, 1, None)), st.sampled_from((0, 1, None)))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.lists(EXTENDED_PAIR, min_size=n, max_size=n)))
def test_error_free_evaluation_matches_player_lookup(outputs):
    strat = ExtendedStrategy(tuple(outputs))
    cfg = GameConfig(len(outputs))
    want = lookup_error_free(strat, cfg.n)
    assert is_error_free(strat) == (want is not None)
    if want is not None:
        assert [q.bits for q in winnable_questions(strat)] == want


def test_non_errorfree_table_is_rejected():
    # all players always output 0: inappropriate on weight-2 questions
    table = ExtendedStrategy(((0, 0),) * 3)
    assert not is_error_free(table)
    with pytest.raises(ValueError):
        winnable_questions(table)


def test_all_bot_player_wins_nothing():
    table = ExtendedStrategy((((None, None)),) + ((0, 0),) * 2)
    assert is_error_free(table)
    assert winnable_questions(table) == []


def test_compare_report_flags():
    recs = compare_report(3, noise.BITFLIP, [0.85, 0.95])
    recs += compare_report(3, noise.DETECTION, [0.6, 0.9])
    by_key = {(r["kind"], r.get("p", r.get("eta"))): r for r in recs}
    assert by_key[("bitflip", 0.95)]["flag"] == "quantum-wins"
    assert by_key[("bitflip", 0.95)]["quantum"] == pytest.approx(0.8645, abs=1e-10)
    assert by_key[("bitflip", 0.85)]["flag"] == "classical-reachable"
    assert by_key[("bitflip", 0.85)]["quantum"] == pytest.approx(0.6715, abs=1e-10)
    assert by_key[("detection", 0.9)]["flag"] == "quantum-wins"
    assert by_key[("detection", 0.6)]["flag"] == "classical-reachable"
    for (_, param), r in by_key.items():
        assert (param > r["threshold"]) == (r["flag"] == "quantum-wins")


def test_compare_report_flags_match_exact_oracle():
    # grid values in exact arithmetic, plus floats within an ulp or so of each threshold
    for n in range(3, 41):
        p_grid = [Fraction(k, 1000) for k in range(500, 1001, 7)]
        eta_grid = [Fraction(k, 1000) for k in range(0, 1001, 7)]
        for thr, grid in ((bitflip_threshold(n), p_grid), (detection_threshold(n), eta_grid)):
            grid += [math.nextafter(thr, 0.0), thr, math.nextafter(thr, 2.0)]
        bitflip = compare_report(n, noise.BITFLIP, p_grid)
        detection = compare_report(n, noise.DETECTION, eta_grid)
        recs = bitflip + detection
        want = [Fraction(1, 2) + (2 * Fraction(p) - 1) ** n / 2 > classical_bound(n) for p in p_grid]
        want += [Fraction(eta) ** n > Fraction(2, 2 ** (n - 1)) for eta in eta_grid]
        assert [r["flag"] == "quantum-wins" for r in recs] == want
        params = [r["p"] for r in bitflip] + [r["eta"] for r in detection]
        assert params == [float(x) for x in p_grid + eta_grid]


def test_compare_report_detection_example():
    (rec,) = compare_report(10, noise.DETECTION, [0.6])
    assert rec["quantum"] == pytest.approx(0.6**10)
    assert rec["classical"] == pytest.approx(2 / 2**9)
    assert rec["flag"] == "quantum-wins"
