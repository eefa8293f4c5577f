"""Independent verification of every ghzgame report the benchmark receives.

Each check recomputes the expected figures itself, in exact arithmetic where
the claim is exact, and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: maximizer counts of the exhaustive strategy sweep, as observed at n = 6..9
WITNESS_COUNTS = {6: 1024, 7: 8192, 8: 16384, 9: 131072}
#: `game report` defaults for --quantum-trials and --mc-trials
REPORT_QUANTUM_TRIALS = 50
REPORT_MC_TRIALS = 100_000
#: a Monte Carlo estimate further than this many standard errors from the truth fails
MC_SIGMAS = 5
#: beyond this n the dense cross-check samples its questions instead of covering them
DENSE_ALL_QUESTIONS = 12
DENSE_SAMPLED_QUESTIONS = 256
#: beyond this n `game quantum` samples its questions instead of covering them
ANALYTIC_ALL_QUESTIONS = 16


def classical_bound(n: int) -> Fraction:
    return Fraction(1, 2) + Fraction(1, 1 << -(-n // 2))


def parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_grid(text: str) -> list[Fraction]:
    """The grid start:stop:step (or a single value) as exact decimals."""
    parts = [Fraction(p) for p in text.split(":")]
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    return [start + k * step for k in range(int((stop - start) / step) + 1)]


def bitflip_quantum_wins(n: int, p: Fraction) -> bool:
    """(2p-1)^n > 2^(1-ceil(n/2)), decided exactly."""
    return (2 * p - 1) ** n > Fraction(2, 1 << -(-n // 2))


def detection_quantum_wins(n: int, eta: Fraction) -> bool:
    """eta^n > 2 / 2^(n-1), decided exactly."""
    return eta**n > Fraction(4, 1 << n)


def bitflip_win_prob(n: int, p: Fraction) -> Fraction:
    return Fraction(1, 2) + (2 * p - 1) ** n / 2


def report_problems(report: dict, command: str) -> list[str]:
    """Checks shared by every command: the right report, every check passed."""
    problems = []
    if report.get("command") != command:
        problems.append(f"report is for {report.get('command')!r}, not {command!r}")
    problems += [f"check {c['name']} failed" for c in report.get("checks", []) if not c["ok"]]
    return problems


def monte_carlo_problems(rec: dict, n: int, p: Fraction, trials: int) -> list[str]:
    expected = float(bitflip_win_prob(n, p))
    se = math.sqrt(expected * (1.0 - expected) / trials)
    where = f"monte-carlo n={n} p={float(p)}"
    if rec["trials"] != trials:
        return [f"{where}: {rec['trials']} trials, expected {trials}"]
    if abs(rec["estimate"] - expected) > MC_SIGMAS * se:
        return [f"{where}: estimate {rec['estimate']} not within {MC_SIGMAS} SE of {expected}"]
    return []


def check_search(report: dict, n: int, witnesses_csv=None) -> list[str]:
    problems = report_problems(report, "search")
    recs = [r for r in report.get("records", []) if r.get("n") == n]
    if len(recs) != 1:
        return problems + [f"expected one search record for n={n}, got {len(recs)}"]
    rec = recs[0]
    bound = classical_bound(n)
    if rec["strategies_swept"] != 4**n:
        problems.append(f"strategies_swept {rec['strategies_swept']} != 4^{n}")
    if Fraction(rec["best_proportion"]) != bound:
        problems.append(f"best_proportion {rec['best_proportion']} != {bound}")
    if Fraction(rec["table1_proportion"]) != bound:
        problems.append(f"table1_proportion {rec['table1_proportion']} != {bound}")
    if rec["witness_count"] != WITNESS_COUNTS[n]:
        problems.append(f"witness_count {rec['witness_count']} != {WITNESS_COUNTS[n]}")
    if witnesses_csv is not None:
        with open(witnesses_csv) as fh:
            rows = sum(1 for _ in fh) - 1  # header
        if rows != rec["witness_count"]:
            problems.append(f"witness CSV has {rows} rows, report says {rec['witness_count']}")
    return problems


def check_detect(report: dict, n_text: str, eta_text: str) -> list[str]:
    problems = report_problems(report, "detect")
    grid = parse_grid(eta_text)
    records = report.get("records", [])
    for n in parse_range(n_text):
        mine = [r for r in records if r.get("n") == n]
        if not any(r["kind"] == "threshold" for r in mine):
            problems.append(f"missing detection threshold for n={n}")
        errorfree = [r for r in mine if r["kind"] == "errorfree"]
        if len(errorfree) != 1:
            problems.append(f"expected one errorfree record for n={n}, got {len(errorfree)}")
        elif errorfree[0]["max_winnable"] != 2 or errorfree[0]["tables_swept"] != 9**n:
            problems.append(f"errorfree record for n={n} is wrong: {errorfree[0]}")
        points = [r for r in mine if r["kind"] == "detection"]
        if [r["eta"] for r in points] != [float(e) for e in grid]:
            problems.append(f"detection grid for n={n} does not match {eta_text}")
            continue
        for rec, eta in zip(points, grid):
            want = "quantum-wins" if detection_quantum_wins(n, eta) else "classical-reachable"
            if rec["flag"] != want:
                problems.append(f"detection flag n={n} eta={float(eta)} is {rec['flag']}")
    return problems


def check_noise(report: dict, n_text: str, p_text: str, trials: int) -> list[str]:
    problems = report_problems(report, "noise")
    grid = parse_grid(p_text)
    records = report.get("records", [])
    for n in parse_range(n_text):
        mine = [r for r in records if r.get("n") == n]
        if not any(r["kind"] == "threshold" for r in mine):
            problems.append(f"missing bit-flip threshold for n={n}")
        points = [r for r in mine if r["kind"] == "bitflip"]
        if [r["p"] for r in points] != [float(p) for p in grid]:
            problems.append(f"bit-flip grid for n={n} does not match {p_text}")
        else:
            for rec, p in zip(points, grid):
                want = "quantum-wins" if bitflip_quantum_wins(n, p) else "classical-reachable"
                if rec["flag"] != want:
                    problems.append(f"bit-flip flag n={n} p={float(p)} is {rec['flag']}")
        if not trials:
            continue
        estimates = [r for r in mine if r["kind"] == "monte-carlo"]
        if [r["p"] for r in estimates] != [float(p) for p in grid]:
            problems.append(f"monte-carlo grid for n={n} does not match {p_text}")
            continue
        for rec, p in zip(estimates, grid):
            problems += monte_carlo_problems(rec, n, p, trials)
    return problems


def check_quantum(report: dict, n: int, trials: int, dense: bool) -> list[str]:
    problems = report_problems(report, "quantum")
    records = report.get("records", [])
    analytic = [r for r in records if r.get("mode") == "analytic"]
    if len(analytic) != 1:
        return problems + [f"expected one analytic record, got {len(analytic)}"]
    rec = analytic[0]
    if n <= ANALYTIC_ALL_QUESTIONS:
        coverage, rounds = "all-questions", (1 << (n - 1)) * trials
    else:
        coverage, rounds = "sampled-questions", trials
    if (rec["coverage"], rec["rounds"], rec["wins"]) != (coverage, rounds, rounds):
        problems.append(f"analytic record {rec} != {coverage} with wins == rounds == {rounds}")
    if dense:
        checked = [r for r in records if r.get("mode") == "dense"]
        want = 1 << (n - 1) if n <= DENSE_ALL_QUESTIONS else DENSE_SAMPLED_QUESTIONS
        if len(checked) != 1:
            problems.append(f"expected one dense record, got {len(checked)}")
        elif checked[0]["questions_checked"] != want or checked[0]["consistent"] is not True:
            problems.append(f"dense record {checked[0]} != {want} consistent questions")
    return problems


def check_report(report: dict) -> list[str]:
    problems = report_problems(report, "report")
    records = report.get("records", [])

    def section(name: str, **match) -> list[dict]:
        return [
            r
            for r in records
            if r.get("section") == name and all(r.get(k) == v for k, v in match.items())
        ]

    for n in range(3, 7):
        found = section("search", n=n)
        if len(found) != 1 or Fraction(found[0]["best_proportion"]) != classical_bound(n):
            problems.append(f"report search n={n} is missing or wrong")
    for n in range(3, 9):
        rounds = REPORT_QUANTUM_TRIALS << (n - 1)
        found = section("quantum", n=n)
        if len(found) != 1 or (found[0]["rounds"], found[0]["wins"]) != (rounds, rounds):
            problems.append(f"report quantum n={n} is missing or not perfect")
    found = section("bitflip", derivation="monte-carlo")
    if len(found) != 1:
        problems.append("report bit-flip Monte Carlo record is missing")
    else:
        rec = found[0]
        problems += monte_carlo_problems(rec, rec["n"], Fraction(str(rec["p"])), REPORT_MC_TRIALS)
    for n in (3, 4):
        found = section("detection", n=n)
        if len(found) != 1 or found[0]["errorfree_max_winnable"] != 2:
            problems.append(f"report errorfree n={n} is missing or wrong")
    return problems
