"""Acceptance suite: one test per headline claim, at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
a failure is an ordinary pytest failure.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ghzgame import classical, noise, quantum
from ghzgame.cli import main
from ghzgame.core import GameConfig, enumerate_legitimate, target_parity


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_quantum_perfection():
    # n = 3..12, every legitimate question, 100 trials per question and mode;
    # win rate exactly 1 and the two pipelines agree on the parity class
    started = time.perf_counter()
    trials = 100
    for n in range(3, 13):
        rng = np.random.default_rng(1000 + n)
        for q in enumerate_legitimate(GameConfig(n)):
            want = target_parity(q)
            for mode in ("analytic", "dense"):
                answers = quantum.sample_answers(q, trials, rng, mode=mode)
                assert all(a.parity == want for a in answers), (n, str(q), mode)
            assert quantum.dense_matches_analytic(q), (n, str(q))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(f"1 quantum perfection: PASS (n=3..12, {trials} trials/question, {elapsed:.1f}s)")


def test_criterion_2_classical_bound_tight():
    expected = {3: Fraction(3, 4), 4: Fraction(3, 4), 5: Fraction(5, 8), 6: Fraction(5, 8), 7: Fraction(9, 16)}
    started = time.perf_counter()
    for n, want in expected.items():
        best, witnesses = classical.exhaustive_best(GameConfig(n))
        assert best == want, n
        assert witnesses.size > 0
    sweep_time = time.perf_counter() - started
    assert sweep_time < 10.0, f"n<=7 sweeps took {sweep_time:.1f}s"
    for n in range(3, 17):
        strat = classical.table1_strategy(GameConfig(n))
        assert classical.success_proportion(strat) == classical.classical_bound(n), n
    report(f"2 classical bound tight: PASS (sweeps n=3..7 in {sweep_time:.2f}s, table rows n=3..16)")


def test_criterion_3_score_identity():
    for n in range(3, 7):
        for code in range(1 << (2 * n)):
            # strategy_score itself raises if Re(s) != wins - losses
            score = classical.strategy_score(classical.DeterministicStrategy.from_code(n, code))
            assert score.wins + score.losses == 1 << (n - 1)
            assert abs(score.re) <= 1 << (n // 2)
    report("3 score identity: PASS (all 4^n strategies, n=3..6, zero exceptions)")


def test_criterion_4_probabilistic_optimality():
    for n in (3, 4, 5):
        cfg = GameConfig(n)
        opt = classical.optimal_set(cfg)
        assert classical.is_balanced(opt, cfg), n
        mixture = classical.ProbabilisticStrategy.uniform(opt)
        assert mixture.success_probability() == classical.classical_bound(n), n
    # randomized refutation: no sampled mixture at n=3 beats 3/4
    rng = np.random.default_rng(404)
    pool = [classical.DeterministicStrategy.from_code(3, c) for c in range(64)]
    bound = Fraction(3, 4)
    for _ in range(10**4):
        size = int(rng.integers(1, 7))
        codes = rng.integers(0, 64, size=size)
        raw = rng.integers(1, 100, size=size)
        total = int(raw.sum())
        weights = tuple(Fraction(int(w), total) for w in raw)
        ps = classical.ProbabilisticStrategy(tuple(pool[c] for c in codes), weights)
        assert ps.success_probability() <= bound
    report("4 probabilistic optimality: PASS (balanced sets n=3..5, 10^4 random mixtures <= 3/4)")


def test_criterion_5_pair_flip_bijection():
    for n in (3, 4):
        opt_codes = {s.code for s in classical.optimal_set(GameConfig(n))}
        for code in range(1 << (2 * n)):
            s = classical.DeterministicStrategy.from_code(n, code)
            s2 = classical.pair_flip_map(s)
            a = classical.strategy_score(s)
            b = classical.strategy_score(s2)
            assert (a.re, a.im) == (b.re, b.im), (n, code)
            if code in opt_codes:
                assert s2.code in opt_codes, (n, code)
    report("5 pair-flip bijection: PASS (score preserved for all 4^n, n=3..4; optimal -> optimal)")


def test_criterion_6_bitflip_model():
    for n in range(3, 31):
        for k in range(50, 101):
            p = k / 100
            closed = noise.bitflip_win_prob(n, p)
            oracle = sum(
                math.comb(n, i) * p ** (n - i) * (1 - p) ** i for i in range(0, n + 1, 2)
            )
            assert abs(closed - oracle) <= 1e-12, (n, p)
    assert abs(noise.bitflip_threshold(3) - 0.897) <= 0.001
    assert abs(noise.bitflip_threshold(5) - 0.879) <= 0.001
    assert abs(noise.bitflip_threshold(10**4) - 0.85355) <= 0.0005
    est = noise.bitflip_monte_carlo(3, 0.9, 10**6, np.random.default_rng(42))
    assert abs(est.estimate - 0.756) <= 4 * est.std_error
    report(
        "6 bit-flip model: PASS (oracle match n<=30, thresholds 0.897/0.879/limit, "
        f"MC {est.estimate:.4f} vs 0.756)"
    )


def test_criterion_7_detection_model():
    started = time.perf_counter()
    for n in (3, 4, 5):
        best, _ = noise.errorfree_exhaustive(GameConfig(n))
        assert best == 2, n
    sweep_time = time.perf_counter() - started
    assert sweep_time < 60.0, f"9^n sweeps took {sweep_time:.1f}s"
    for n in range(3, 17):
        cfg = GameConfig(n)
        won = {q.bits for q in noise.winnable_questions(noise.errorfree_reference_strategy(cfg))}
        assert won == {0, 0b11 << (n - 2)}, n
    for n in range(3, 21):
        thr = noise.detection_threshold(n)
        bound = 2 / 2 ** (n - 1)
        for k in range(50, 100):
            eta = k / 100
            assert (eta**n > bound) == (eta > thr), (n, eta)
    assert abs(noise.detection_threshold(3) - 0.7937) <= 0.0001
    report(f"7 detection model: PASS (9^n sweeps in {sweep_time:.1f}s, grids n<=20 clean)")


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "report", "--seed", "42", "--quantum-trials", "20", "--mc-trials", "50000",
        "--format", "json",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # the machine format stays well-formed
    # an injected fault (corrupted strategy-table row) must surface as exit code 2
    broken = dict(classical.SIMPLE_OPTIMAL_TABLE)
    broken[3] = ("00", "11")
    monkeypatch.setattr(classical, "SIMPLE_OPTIMAL_TABLE", broken)
    assert main(["search", "--n", "3", "--out", str(tmp_path / "broken.txt")]) == 2
    report("8 reproducibility: PASS (byte-identical reports, injected fault exits 2)")
