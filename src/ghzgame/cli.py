"""Command-line front end: runs experiments and emits deterministic reports.

Subcommands mirror the module operations: `bound`, `search`, `quantum`,
`noise`, `detect`, and `report` (which bundles every headline number into a
single document).  Reports are reproducible byte for byte for a fixed seed:
timing goes to stderr, never into the report body.

Exit codes: 0 success, 1 usage error, 2 when a verification check fails.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from contextlib import contextmanager, suppress
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__, classical, noise, quantum
from .core import GameConfig, UsageError

DEFAULT_SEED = 42

USAGE_ERROR = 1
CHECK_FAILED = 2

#: player counts of the `report` sections that run a sweep or the dense oracle
REPORT_SEARCH_N = range(3, 7)
REPORT_QUANTUM_N = range(3, 9)
REPORT_ERRORFREE_N = (3, 4)
#: witness CSV rows formatted per write
WITNESS_BLOCK = 4096
#: player counts, and grid points (player counts times grid values), that one
#: command computes at most
GRID_LIMIT = 10**5
#: largest decimal exponent a grid value may carry, so parsing it stays cheap
GRID_EXPONENT = 40
#: grid values this close to a threshold, relatively, are too close for its float to order
FLAG_TOL = 1e-12


#: the flags of every command, ahead of its own: option string and argparse keywords
SHARED_FLAGS = (
    ("--seed", dict(type=int, default=DEFAULT_SEED, help="RNG seed (fixed default)")),
    ("--format", dict(choices=("text", "json"))),
    ("--out", dict(help="write the report to this path instead of stdout")),
    ("--config", dict(help="JSON file whose keys mirror the command flags")),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2, kept here for failed checks: a flag it rejects is a usage error
    def error(self, message: str) -> None:
        raise UsageError(message)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        started = time.perf_counter()
        report = args.handler(args)
        elapsed = time.perf_counter() - started
        _emit(report, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"[{report['command']}] completed in {elapsed:.2f}s", file=sys.stderr)
    if any(not c["ok"] for c in report.get("checks", [])):
        return CHECK_FAILED
    return 0


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every command, and flags for the one argv names (argparse reads no other),
    with the values of the `--config` file in argv as their defaults."""
    parser = _Parser(prog="game", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help: str, *flags: tuple, default_format: str = "text") -> None:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, format=default_format)
        if argv and argv[0] == name:
            actions = [p.add_argument(flag, **spec) for flag, spec in SHARED_FLAGS + flags]
            _read_config_file(actions, argv[1:])

    n = ("--n", dict(required=True, type=int))
    csv = ("--csv", dict(help="CSV path for the grid records"))
    add("bound", cmd_bound, "print the exact classical success-proportion bound", n)
    add("search", cmd_search, "exhaustively confirm the bound and the simple optimal strategy", n,
        ("--witnesses", dict(help="CSV path for all maximizing strategies")))
    add("quantum", cmd_quantum, "play the perfect quantum strategy and verify certainty", n,
        ("--trials", dict(type=int, default=100)),
        ("--dense-check", dict(action="store_true")))
    add("noise", cmd_noise, "bit-flip noise: win probabilities, thresholds, Monte Carlo",
        ("--n", dict(required=True, help="player count or range, e.g. 3 or 3..9")),
        ("--p", dict(help="reliability grid start:stop:step, e.g. 0.80:0.99:0.01")),
        ("--trials", dict(type=int, default=0, help="Monte Carlo trials per grid point (0 = none)")),
        csv)
    add("detect", cmd_detect, "detection inefficiency: thresholds and the no-output sweep",
        ("--n", dict(required=True, help="player count or range, e.g. 3..5")),
        ("--eta", dict(help="efficiency grid start:stop:step")),
        csv)
    add("report", cmd_report, "one document reproducing every headline number",
        ("--quantum-trials", dict(type=int, default=50)),
        ("--mc-trials", dict(type=int, default=100000)),
        default_format="json")
    return parser


# ---------------------------------------------------------------- commands


def cmd_bound(args) -> dict:
    n = _require_printable_bound(_require_at_least(args.n, 3, "--n"))
    return _report("bound", args, records=[_bound_record(n)])


def cmd_search(args) -> dict:
    n = _require_at_least(args.n, 3, "--n")
    record, codes, best_ok, table1_ok = _search_record(n)
    if args.witnesses is not None:
        _write_witness_csv(args.witnesses, codes, n)
    checks = [
        _check("exhaustive_max_equals_formula", best_ok),
        _check("table1_achieves_formula", table1_ok),
    ]
    return _report("search", args, records=[record], checks=checks)


def cmd_quantum(args) -> dict:
    n = _require_at_least(args.n, 3, "--n")
    quantum.require_analytic(n)
    trials = _require_at_least(args.trials, 1, "--trials")
    if args.dense_check:
        quantum.DENSE_LIMIT.require(n)
    rng = _rng(args)
    records = _quantum_records(n, trials, rng, args.dense_check)
    checks = [_check("quantum_win_rate_is_one", records[0]["wins"] == records[0]["rounds"])]
    checks += [_check("dense_matches_analytic", dense["consistent"]) for dense in records[1:]]
    return _report("quantum", args, records=records, checks=checks)


def cmd_noise(args) -> dict:
    n_values = _parse_range(args.n)
    _require_printable_bound(n_values[-1])
    grid = _parse_grid(args, noise.BITFLIP, len(n_values))
    trials = _require_at_least(args.trials, 0, "--trials")
    if trials:
        quantum.require_analytic(n_values[-1])
    rng = _rng(args)

    def monte_carlo(n: int, records: list[dict], checks: list[dict]) -> None:
        records.extend(_monte_carlo_record(n, p, trials, rng) for p in grid if trials)

    return _grid_report("noise", args, noise.BITFLIP, n_values, grid, monte_carlo)


def cmd_detect(args) -> dict:
    n_values = _parse_range(args.n)
    grid = _parse_grid(args, noise.DETECTION, len(n_values))
    noise.EXTENDED_LIMIT.require(n_values[-1])

    def errorfree(n: int, records: list[dict], checks: list[dict]) -> None:
        record = _errorfree_record(n)
        records.append(record)
        checks.append(_check(f"errorfree_max_is_two_n{n}", record["max_winnable"] == 2))

    return _grid_report("detect", args, noise.DETECTION, n_values, grid, errorfree)


def cmd_report(args) -> dict:
    """Every headline number: the commands' own records, each cut to its section's fields.

    Only the closed-form thresholds and the reference table are built here."""
    trials = _require_at_least(args.quantum_trials, 1, "--quantum-trials")
    mc_trials = _require_at_least(args.mc_trials, 1, "--mc-trials")
    classical.EXHAUSTIVE_LIMIT.require(max(REPORT_SEARCH_N))
    quantum.DENSE_LIMIT.require(max(REPORT_QUANTUM_N))
    noise.EXTENDED_LIMIT.require(max(REPORT_ERRORFREE_N))
    rng = _rng(args)
    records = []
    checks = []

    # exact classical bounds, with exhaustive confirmation at desk scale
    for n in range(3, 8):
        records.append({"section": "bound", **_bound_record(n)})
    for n in REPORT_SEARCH_N:
        record, _codes, best_ok, table1_ok = _search_record(n)
        fields = ("n", "derivation", "witness_count", "best_proportion", "best_proportion_decimal")
        records.append(_section("search", record, fields))
        checks.append(_check(f"search_matches_bound_n{n}", best_ok))
        checks.append(_check(f"table1_matches_bound_n{n}", table1_ok))

    # perfect quantum play, analytic everywhere plus dense cross-check
    for n in REPORT_QUANTUM_N:
        analytic, dense = _quantum_records(n, trials, rng, dense=True)
        fields = ("n", "derivation", "rounds", "wins")
        records.append(_section("quantum", analytic, fields, dense_consistent=dense["consistent"]))
        checks.append(_check(f"quantum_perfect_n{n}", analytic["wins"] == analytic["rounds"]))
        checks.append(_check(f"dense_matches_analytic_n{n}", dense["consistent"]))

    # bit-flip thresholds and the large-n limit
    e3 = noise.bitflip_threshold(3)
    e5 = noise.bitflip_threshold(5)
    e_limit = noise.bitflip_threshold(10**4)
    records.append(
        {
            "section": "bitflip",
            "derivation": "closed-form",
            "threshold_n3": e3,
            "threshold_n5": e5,
            "threshold_n10000": e_limit,
            "limit": 0.5 + math.sqrt(2) / 4,
        }
    )
    checks.append(_check("bitflip_threshold_n3", abs(e3 - 0.897) <= 0.001))
    checks.append(_check("bitflip_threshold_n5", abs(e5 - 0.879) <= 0.001))
    checks.append(_check("bitflip_threshold_limit", abs(e_limit - 0.85355) <= 0.0005))

    p = Fraction(9, 10)
    est = _monte_carlo_record(3, p, mc_trials, rng)
    expected = noise.bitflip_win_prob(3, float(p))
    fields = ("derivation", "n", "p", "trials", "estimate", "std_error")
    records.append(_section("bitflip", est, fields, closed_form=expected))
    # within 5 standard deviations of the exact a/d: a false alarm about 5.7 in 10^7 runs
    a, d = noise.bitflip_win_prob(3, p).as_integer_ratio()
    deviation = d * est["wins"] - a * mc_trials
    checks.append(_check("bitflip_monte_carlo_n3", deviation**2 <= 25 * a * (d - a) * mc_trials))

    # detection thresholds, the no-output sweep, and the reference table
    d3 = noise.detection_threshold(3)
    records.append(
        {
            "section": "detection",
            "derivation": "closed-form",
            "threshold_n3": d3,
            "threshold_n10000": noise.detection_threshold(10**4),
            "limit": 0.5,
        }
    )
    checks.append(_check("detection_threshold_n3", abs(d3 - 0.7937) <= 0.0001))
    for n in REPORT_ERRORFREE_N:
        errorfree = _errorfree_record(n)
        best = errorfree["max_winnable"]
        records.append(
            _section("detection", errorfree, ("derivation", "n"), errorfree_max_winnable=best)
        )
        checks.append(_check(f"errorfree_max_is_two_n{n}", best == 2))
    ref_ok = all(_reference_wins_expected(n) for n in range(3, 9))
    records.append(
        {"section": "detection", "derivation": "exhaustive", "reference_strategy_ok": ref_ok}
    )
    checks.append(_check("reference_strategy_wins_expected", ref_ok))

    return _report("report", args, records=records, checks=checks)


# ---------------------------------------------------------------- records


def _bound_record(n: int) -> dict:
    bound = classical.classical_bound(n)
    return {"n": n, "derivation": "closed-form", **_fraction_fields("bound", bound)}


def _search_record(n: int) -> tuple[dict, np.ndarray, bool, bool]:
    """The sweep's record, its maximizer codes, and whether the maximum and
    the simple optimal table each reach the closed-form bound."""
    bound = classical.classical_bound(n)
    best, codes = classical.exhaustive_best(GameConfig(n))
    table1 = classical.table1_strategy(GameConfig(n))
    table1_prop = classical.success_proportion(table1)
    record = {
        "n": n,
        "derivation": "exhaustive",
        "strategies_swept": 1 << (2 * n),
        "witness_count": len(codes),
        **_fraction_fields("best_proportion", best),
        **_fraction_fields("table1_proportion", table1_prop),
        "table1_pairs": ["".join(map(str, pair)) for pair in table1.outputs],
    }
    return record, codes, best == bound, table1_prop == bound


def _quantum_records(n: int, trials: int, rng: np.random.Generator, dense: bool) -> list[dict]:
    """The analytic record, then the dense check's record if `dense`."""
    coverage, rounds, wins = quantum.analytic_check(n, trials, rng)
    records = [
        {
            "n": n,
            "derivation": "monte-carlo",
            "mode": "analytic",
            "coverage": coverage,
            "rounds": rounds,
            "wins": wins,
            "win_rate": wins / rounds,
        }
    ]
    if dense:
        mismatch, questions_checked = quantum.dense_check(n, rng)
        records.append(
            {
                "n": n,
                "derivation": "exhaustive",
                "mode": "dense",
                "questions_checked": questions_checked,
                "consistent": mismatch is None,
            }
        )
        if mismatch is not None:
            records[-1]["first_mismatch"] = str(mismatch)
    return records


def _monte_carlo_record(n: int, p, trials: int, rng: np.random.Generator) -> dict:
    est = noise.bitflip_monte_carlo(n, float(p), trials, rng)
    return {
        "kind": "monte-carlo",
        "n": n,
        "p": float(p),
        "derivation": "monte-carlo",
        "trials": est.trials,
        "wins": est.wins,
        "estimate": est.estimate,
        "std_error": est.std_error,
    }


def _errorfree_record(n: int) -> dict:
    best, codes = noise.errorfree_exhaustive(GameConfig(n))
    return {
        "kind": "errorfree",
        "n": n,
        "derivation": "exhaustive",
        "tables_swept": 9**n,
        "max_winnable": best,
        "witness_count": len(codes),
    }


def _section(name: str, record: dict, fields: tuple[str, ...], **extra) -> dict:
    """A `report` record: its section, `fields` of a command's record in order, then `extra`."""
    return {"section": name, **{k: record[k] for k in fields}, **extra}


# ---------------------------------------------------------------- helpers


def _reference_wins_expected(n: int) -> bool:
    strat = noise.errorfree_reference_strategy(GameConfig(n))
    won = {q.bits for q in noise.winnable_questions(strat)}
    return won == {0, 0b11 << (n - 2)}


def _grid_report(command: str, args, model: noise.GridModel, n_values, grid, more) -> dict:
    """Per n: the threshold record, one record per grid point, a check that the exact
    flags agree with the float threshold wherever a float can order the two, then
    what `more(n, records, checks)` adds.  The grid records also go to `--csv`."""
    records = []
    checks = []
    x = model.param
    for n in n_values:
        rows = noise.compare_report(n, model, grid)
        threshold = {"kind": "threshold", "n": n, "derivation": "closed-form"}
        records += [{**threshold, f"{model.kind}_threshold": model.threshold(n)}, *rows]
        clear = [r for r in rows if not math.isclose(r[x], r["threshold"], rel_tol=FLAG_TOL)]
        consistent = all((r[x] > r["threshold"]) == (r["flag"] == "quantum-wins") for r in clear)
        if rows:
            checks.append(_check(f"threshold_flags_consistent_n{n}", consistent))
        more(n, records, checks)
    if args.csv is not None:
        _write_grid_csv(args.csv, [r for r in records if r["kind"] == model.kind])
    return _report(command, args, records=records, checks=checks)


def _require_at_least(value: int, least: int, flag: str) -> int:
    if value < least:
        raise UsageError(f"{flag} must be >= {least}, got {value}")
    return value


def _require_printable_bound(n: int) -> int:
    """Refuse an n whose classical bound 1/2 + 2^-ceil(n/2) would not print as an exact
    fraction within Python's limit on int-to-string digits."""
    # 2^ceil(n/2) < 10^digits prints within the int-to-str limit (its default when it is off)
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    largest = 2 * ((10**digits).bit_length() - 1)
    if n > largest:
        raise UsageError(f"--n must be <= {largest}, whose bound has {digits} digits, got {n}")
    return n


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(_require_at_least(args.seed, 0, "--seed"))


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        values = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise UsageError(f"bad n range {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty n range {text!r}")
    _require_at_least(values[0], 3, "--n")
    if len(values) > GRID_LIMIT:
        raise UsageError(
            f"n range {text!r} has {len(values)} player counts, more than the limit {GRID_LIMIT}"
        )
    return values


def _parse_grid(args, model: noise.GridModel, n_count: int) -> list[Fraction]:
    """The model's grid flag, exactly: start:stop:step (or one value) is start + k*step
    for every k that stays <= stop, and without the flag the grid is empty.

    Every point must lie in [model.least, 1].  The points are counted, times
    `n_count` player counts, before any is built.
    """
    text = getattr(args, model.param)
    if text is None:
        # they act on grid points; `detect` has no --trials
        for flag, unset in (("csv", None), ("trials", 0)):
            if getattr(args, flag, unset) != unset:
                raise UsageError(f"--{flag} needs a --{model.param} grid")
        return []
    parts = text.split(":") if ":" in text else [text, text, "1"]
    if len(parts) != 3:
        raise UsageError(f"bad grid {text!r}: expected start:stop:step")
    try:
        decimals = [Decimal(p) for p in parts]
    except ArithmeticError:
        raise UsageError(f"bad grid {text!r}: not decimal numbers") from None
    if not all(d.is_finite() and abs(d.as_tuple().exponent) <= GRID_EXPONENT for d in decimals):
        raise UsageError(f"bad grid {text!r}: needs finite values, exponents within ±{GRID_EXPONENT}")
    start, stop, step = map(Fraction, decimals)
    if step <= 0 or stop < start:
        raise UsageError(f"bad grid bounds {text!r}")
    count = (stop - start) // step + 1
    if start < model.least or start + (count - 1) * step > 1:
        raise UsageError(f"--{model.param} grid {text!r} leaves [{float(model.least)}, 1]")
    if count * n_count > GRID_LIMIT:
        raise UsageError(
            f"grid {text!r} over {n_count} player counts has {count * n_count} points, "
            f"more than the limit {GRID_LIMIT}"
        )
    return [start + k * step for k in range(count)]


def _fraction_fields(name: str, frac: Fraction) -> dict:
    exact = f"{frac.numerator}/{frac.denominator}"
    return {name: exact, f"{name}_decimal": format(float(frac), ".12g")}


def _check(name: str, ok: bool) -> dict:
    return {"name": name, "ok": bool(ok)}


def _report(command: str, args, records: list[dict], checks: list[dict] | None = None) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "format", "out", "config") and v is not None
    }
    return {
        "tool": "ghzgame",
        "version": __version__,
        "command": command,
        "config": config,
        "records": records,
        "checks": checks or [],
    }


def _read_config_file(actions: list[argparse.Action], argv: list[str]) -> None:
    """Make the values of the `--config` file in a command's argv its flags' defaults.

    A pre-parser with the same option strings, each value optional, finds the file
    as the one parse of argv will, lets help win, and reports no error it would not.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("-h", "--help", action="store_true")
    for action in actions:
        pre.add_argument(*action.option_strings, nargs="?")
    known = pre.parse_known_args(argv)[0]
    if known.help or known.config is None:
        return
    try:
        with open(known.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or bad UTF-8; RecursionError: arrays nested too deep
        raise UsageError(f"cannot read config file {known.config!r}: {exc}") from None
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {known.config!r} must hold a JSON object")
    flags = {action.dest: action for action in actions if action.dest != "config"}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config key {key!r} does not match any flag")
        # JSON types stand in for the flag's: switches take true/false
        want = bool if action.nargs == 0 else action.type or str
        if type(value) is not want or (action.choices and value not in action.choices):
            raise UsageError(f"config key {key!r} needs a JSON {want.__name__}, got {value!r}")
        action.default = value
        action.required = False


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report)
    with _open_for_writing(args.out) as fh:
        fh.write(text)


def _render_text(report: dict) -> str:
    lines = [f"ghzgame {report['version']} :: {report['command']}"]
    cfg = report["config"]
    lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
    for rec in report["records"]:
        fields = ", ".join(f"{k}={_fmt(v)}" for k, v in rec.items())
        lines.append("  " + fields)
    for chk in report["checks"]:
        lines.append(f"  [{'ok' if chk['ok'] else 'FAIL'}] {chk['name']}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_witness_csv(path: str, codes: np.ndarray, n: int) -> None:
    """One `code,pairs` row per code, with the csv module's \r\n line ends."""
    low = n // 2  # players spelled out by the table of the code's low bits
    high_pairs, low_pairs = _pairs_table(n - low), _pairs_table(low)
    with _open_for_writing(path) as fh:
        fh.write("code,pairs\r\n")
        # a block of rows at a time keeps the row strings' memory small
        for start in range(0, codes.size, WITNESS_BLOCK):
            block = codes[start : start + WITNESS_BLOCK]
            high, rest = np.divmod(block, 1 << (2 * low))
            rows = zip(block.tolist(), high.tolist(), rest.tolist())
            fh.write("".join(f"{c},{high_pairs[h]} {low_pairs[r]}\r\n" for c, h, r in rows))


@lru_cache(maxsize=None)
def _pairs_table(players: int) -> tuple[str, ...]:
    """Entry c spells out code c, 2 bits per player, as output pairs, e.g. "00 01"."""
    pairs = itertools.product(("00", "01", "10", "11"), repeat=players)
    return tuple(" ".join(p) for p in pairs)


@contextmanager
def _open_for_writing(path: str | None):
    """The file at `path` opened for writing, or stdout without a path, flushed
    or closed on leaving; a failure to open, write or flush it is a UsageError."""
    try:
        if path is not None:
            with open(path, "w", newline="") as fh:
                yield fh
        else:
            try:
                yield sys.stdout
                sys.stdout.flush()
            except OSError:
                # the text stays buffered: closing stdout drops it, or the
                # interpreter's flush at exit fails again and exits 120
                with suppress(OSError):
                    sys.stdout.close()
                raise
    except OSError as exc:
        where = "<stdout>" if path is None else path
        raise UsageError(f"cannot write {where!r}: {exc.strerror}") from None


def _write_grid_csv(path: str, records: list[dict]) -> None:
    """The grid records of one model, which all carry the same keys, in sorted columns."""
    with _open_for_writing(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted(records[0]))
        writer.writeheader()
        writer.writerows(records)


if __name__ == "__main__":
    raise SystemExit(main())
