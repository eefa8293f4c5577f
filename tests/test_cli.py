import ast
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghzgame
from ghzgame import classical, noise, quantum
from ghzgame.classical import DeterministicStrategy
from ghzgame.core import GameConfig, legitimate_bits
from ghzgame.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def config_file(tmp_path, values: dict) -> str:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return str(cfg)


def test_bound_command(capsys):
    code, report = run_json(capsys, "bound", "--n", "5")
    assert code == 0
    (rec,) = report["records"]
    assert rec["bound"] == "5/8"
    assert rec["bound_decimal"] == "0.625"
    assert rec["derivation"] == "closed-form"


@pytest.mark.parametrize("n,want", [(3, "3/4"), (5, "5/8"), (7, "9/16")])
def test_bound_values(capsys, n, want):
    _, report = run_json(capsys, "bound", "--n", str(n))
    assert report["records"][0]["bound"] == want


def test_bound_rejects_small_n(capsys):
    code = main(["bound", "--n", "2"])
    assert code == 1


def test_search_command(capsys):
    code, report = run_json(capsys, "search", "--n", "4")
    assert code == 0
    rec = report["records"][0]
    assert rec["best_proportion"] == "3/4"
    assert rec["witness_count"] == 64
    assert all(c["ok"] for c in report["checks"])


def test_search_refuses_beyond_limit(capsys, monkeypatch):
    monkeypatch.setenv("GAME_EXHAUSTIVE_LIMIT", "4")
    code = main(["search", "--n", "6"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: n=6 exceeds the exhaustive limit 4 "
        "(set GAME_EXHAUSTIVE_LIMIT to raise it); refusing to sample silently\n"
    )


def test_search_witness_csv(capsys, tmp_path):
    path = tmp_path / "witnesses.csv"
    code, _ = run_json(capsys, "search", "--n", "3", "--witnesses", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "code,pairs"
    assert len(lines) == 1 + 32  # the n=3 sweep has 32 maximizers


def test_witness_csv_rows_spell_out_each_code(capsys, tmp_path):
    path = tmp_path / "witnesses.csv"
    main(["search", "--n", "4", "--witnesses", str(path)])
    _, *rows = path.read_text().splitlines()
    _, codes = classical.exhaustive_best(GameConfig(4))
    want = []
    for c in codes.tolist():
        pairs = DeterministicStrategy.from_code(4, c).outputs
        want.append(f"{c}," + " ".join(f"{a}{b}" for a, b in pairs))
    assert rows == want


def test_quantum_command(capsys):
    code, report = run_json(
        capsys, "quantum", "--n", "6", "--trials", "20", "--seed", "7", "--dense-check"
    )
    assert code == 0
    analytic = report["records"][0]
    assert analytic["win_rate"] == 1.0
    dense = report["records"][1]
    assert dense["consistent"] is True
    assert "first_mismatch" not in dense


def test_dense_check_names_the_first_mismatch(capsys, monkeypatch):
    # a wrong sign rule puts every question of weight 2 mod 4 on the wrong class
    monkeypatch.setattr(quantum, "apply_inputs_analytic", lambda q: +1)
    code, report = run_json(capsys, "quantum", "--n", "6", "--trials", "1", "--dense-check")
    assert code == 2
    first = next(q for q in legitimate_bits(6).tolist() if q.bit_count() % 4 == 2)
    dense = report["records"][1]
    assert (dense["consistent"], dense["first_mismatch"]) == (False, format(first, "06b"))
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["dense_matches_analytic"]


def test_quantum_large_n_sampled(capsys):
    code, report = run_json(capsys, "quantum", "--n", "24", "--trials", "500")
    assert code == 0
    rec = report["records"][0]
    assert rec["coverage"] == "sampled-questions"
    assert rec["win_rate"] == 1.0


def test_noise_command(capsys):
    code, report = run_json(
        capsys, "noise", "--n", "3..4", "--p", "0.85:0.95:0.05", "--trials", "2000"
    )
    assert code == 0
    kinds = {r.get("kind") for r in report["records"]}
    assert kinds == {"threshold", "bitflip", "monte-carlo"}
    assert all(c["ok"] for c in report["checks"])


def test_noise_rejects_bad_grid(capsys):
    assert main(["noise", "--n", "3", "--p", "0.3:0.4:0.05"]) == 1
    assert main(["noise", "--n", "3", "--p", "nonsense"]) == 1


def test_detect_command(capsys, tmp_path):
    csv_path = tmp_path / "grid.csv"
    code, report = run_json(
        capsys, "detect", "--n", "3..4", "--eta", "0.6:0.9:0.1", "--csv", str(csv_path)
    )
    assert code == 0
    errorfree = [r for r in report["records"] if r.get("kind") == "errorfree"]
    assert [r["max_winnable"] for r in errorfree] == [2, 2]
    assert csv_path.read_text().startswith("classical")


def test_detect_refuses_beyond_extended_limit(capsys):
    assert main(["detect", "--n", "3..6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set GAME_EXTENDED_LIMIT to raise it" in captured.err


@pytest.mark.parametrize(
    "env,argv",
    [
        ("GAME_EXHAUSTIVE_LIMIT", ["search", "--n", "3"]),
        ("GAME_EXTENDED_LIMIT", ["detect", "--n", "3"]),
        ("GAME_DENSE_LIMIT", ["quantum", "--n", "3", "--trials", "1", "--dense-check"]),
    ],
)
def test_non_integer_limit_is_a_usage_error(capsys, monkeypatch, env, argv):
    monkeypatch.setenv(env, "9.5")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {env} must be an integer, got '9.5'\n"


def test_config_value_of_wrong_type_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": "7"}))
    assert main(["quantum", "--n", "4", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config key 'trials' needs a JSON int, got '7'\n"


def test_config_file_cannot_name_another(capsys, tmp_path):
    cfg = config_file(tmp_path, {"n": 3, "config": str(tmp_path / "other.json")})
    assert main(["bound", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: config key 'config' does not match any flag\n"


def test_out_into_missing_directory_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["bound", "--n", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_config_file_mirrors_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5}))
    code, report = run_json(capsys, "bound", "--n", "3", "--config", str(cfg))
    # explicit flag wins over the config file
    assert report["records"][0]["n"] == 3
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"trials": 7}))
    code, report = run_json(capsys, "quantum", "--n", "4", "--config", str(cfg2))
    assert code == 0
    assert report["config"]["trials"] == 7
    # ... in any spelling argparse accepts
    code, report = run_json(capsys, "bound", "--n=3", "--config", str(cfg))
    assert report["records"][0]["n"] == 3
    cfg3 = tmp_path / "cfg3.json"
    cfg3.write_text(json.dumps({"trials": 3}))
    code, report = run_json(capsys, "quantum", "--n", "3", "--tri", "7", "--config", str(cfg3))
    assert report["config"]["trials"] == 7
    assert report["records"][0]["rounds"] == 4 * 7


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 10**5, None], ids=["not-utf8", "nested-too-deep", "missing"]
)
def test_unreadable_config_file_ends_in_one_line(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    assert main(["bound", "--n", "3", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot read config file {str(cfg)!r}: ")


#: each command that takes --n, with a value for it as the config file holds it:
#: a JSON int where the flag is an int, a string where it is a player range
CONFIG_N = [("bound", 4), ("search", 4), ("quantum", 4), ("noise", "3..4"), ("detect", "3..4")]


@pytest.mark.parametrize("command,n", CONFIG_N)
def test_config_file_alone_supplies_n(capsys, tmp_path, command, n):
    code, report = run_json(capsys, command, "--config", config_file(tmp_path, {"n": n}))
    assert code == 0
    assert report["config"]["n"] == n


@pytest.mark.parametrize("command,n", CONFIG_N)
def test_n_on_the_command_line_beats_the_config_file(capsys, tmp_path, command, n):
    code, report = run_json(capsys, command, "--n=3", "--config", config_file(tmp_path, {"n": n}))
    assert code == 0
    assert report["config"]["n"] == (3 if isinstance(n, int) else "3")


@pytest.mark.parametrize(
    "argv",
    [["quantum", "--n", "3"], ["noise", "--n", "3", "--p", "0.9"]],
    ids=["quantum", "noise"],
)
def test_an_abbreviated_flag_beats_the_config_file(capsys, tmp_path, argv):
    cfg = config_file(tmp_path, {"trials": 3})
    code, report = run_json(capsys, *argv, "--tri", "7", "--config", cfg)
    assert code == 0
    assert report["config"]["trials"] == 7


@pytest.mark.parametrize(
    "argv,config,key,want",
    [
        (["quantum", "--n", "3"], {"dense-check": True}, "dense_check", True),
        (["report", "--mc-trials", "1000"], {"quantum-trials": 7}, "quantum_trials", 7),
    ],
    ids=["dense-check", "quantum-trials"],
)
def test_config_keys_may_be_dashed(capsys, tmp_path, argv, config, key, want):
    code, report = run_json(capsys, *argv, "--config", config_file(tmp_path, config))
    assert code == 0
    assert report["config"][key] == want


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bound", "--n", "3", "--config"], "argument --config: expected one argument"),
        (["bound", "--n", "3", "--out", "--config"], "argument --out: expected one argument"),
        # no file of that name exists: it is never read as a config file
        (["noise", "--n", "3", "--c", "f.json"], "ambiguous option: --c could match --config, --csv"),
    ],
    ids=["config-without-value", "out-without-value", "ambiguous-c"],
)
def test_a_bad_config_flag_is_refused_by_argparse(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_wins_over_the_config_file(capsys, tmp_path):
    with pytest.raises(SystemExit) as plain:
        main(["bound", "-h"])
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as configured:
        main(["bound", "-h", "--config", str(tmp_path / "missing.json")])
    assert plain.value.code == configured.value.code == 0
    assert capsys.readouterr().out == want


def test_cli_reads_no_private_attribute():
    # argparse's `_actions` or `_SubParsersAction` may change under any release
    tree = ast.parse(Path(ghzgame.cli.__file__).read_text())
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
    }
    assert private == set()


def test_report_round_trips_every_number(capsys):
    code, report = run_json(
        capsys, "report", "--quantum-trials", "5", "--mc-trials", "20000"
    )
    assert code == 0
    assert all(c["ok"] for c in report["checks"])
    sections = {r.get("section") for r in report["records"]}
    assert sections == {"bound", "search", "quantum", "bitflip", "detection"}
    # every record carries a derivation tag
    assert all(r["derivation"] in ("closed-form", "exhaustive", "monte-carlo") for r in report["records"])


def test_report_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["report", "--seed", "42", "--quantum-trials", "5", "--mc-trials", "5000", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_injected_fault_trips_exit_code(capsys, monkeypatch):
    # corrupt the simple-strategy table: the confirmation check must fail loudly
    broken = dict(classical.SIMPLE_OPTIMAL_TABLE)
    broken[3] = ("00", "11")
    monkeypatch.setattr(classical, "SIMPLE_OPTIMAL_TABLE", broken)
    code = main(["search", "--n", "3"])
    assert code == 2


# seeds whose n = 3 estimate lies beyond 4 estimated standard errors of the
# closed form, within 5 exact standard deviations of 189/250
@pytest.mark.parametrize("seed", [3243, 5786, 48116, 50843])
def test_report_monte_carlo_check_passes_on_former_false_alarms(capsys, seed):
    code, report = run_json(capsys, "report", "--seed", str(seed))
    assert code == 0
    (check,) = [c for c in report["checks"] if c["name"] == "bitflip_monte_carlo_n3"]
    assert check["ok"]


def test_report_monte_carlo_check_catches_a_biased_estimate(capsys, monkeypatch):
    # p = 0.89 wins with probability 0.737, against 0.756 at the reported p = 0.9
    unbiased = noise.bitflip_monte_carlo

    def biased(n, p, trials, rng):
        return unbiased(n, 0.89, trials, rng)

    monkeypatch.setattr(noise, "bitflip_monte_carlo", biased)
    code, report = run_json(capsys, "report")
    assert code == 2
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["bitflip_monte_carlo_n3"]


def test_report_closed_form_checks_catch_a_shifted_threshold(capsys, monkeypatch):
    # each n = 3 threshold moves by twice its check's tolerance
    def shifted(true, shift):
        return lambda n: true(n) + shift * (n == 3)

    monkeypatch.setattr(noise, "bitflip_threshold", shifted(noise.bitflip_threshold, 0.002))
    monkeypatch.setattr(noise, "detection_threshold", shifted(noise.detection_threshold, 0.0002))
    argv = ["report", "--quantum-trials", "5", "--mc-trials", "5000", "--format", "text"]
    code, out = run(capsys, *argv)
    assert code == 2
    failed = [line.strip() for line in out.splitlines() if "[FAIL]" in line]
    assert failed == ["[FAIL] bitflip_threshold_n3", "[FAIL] detection_threshold_n3"]


@pytest.mark.parametrize(
    "env,value,message",
    [
        ("GAME_EXHAUSTIVE_LIMIT", "4", "n=6 exceeds the exhaustive limit 4"),
        ("GAME_DENSE_LIMIT", "6", "n=8 exceeds the dense limit 6"),
        ("GAME_EXTENDED_LIMIT", "3", "n=4 exceeds the no-output sweep limit 3"),
    ],
)
def test_report_refuses_a_lowered_limit(capsys, monkeypatch, env, value, message):
    monkeypatch.setenv(env, value)
    assert main(["report"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {message} (set {env} to raise it); refusing to sample silently\n"
    )


def csv_writer_witnesses(path, codes, n):
    """The witness CSV written row by row with csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "pairs"])
        for code in codes.tolist():
            bits = format(code, f"0{2 * n}b")
            writer.writerow([code, " ".join(bits[i : i + 2] for i in range(0, 2 * n, 2))])


@pytest.mark.parametrize("n", [5, 6])
def test_witness_csv_matches_csv_writer_oracle(capsys, monkeypatch, tmp_path, n):
    monkeypatch.setattr("ghzgame.cli.WITNESS_BLOCK", 100)  # rows span several writes
    path, want = tmp_path / "witnesses.csv", tmp_path / "oracle.csv"
    assert main(["search", "--n", str(n), "--witnesses", str(path)]) == 0
    csv_writer_witnesses(want, classical.exhaustive_best(GameConfig(n))[1], n)
    assert path.read_bytes() == want.read_bytes()
    assert path.read_bytes().count(b"\r\n") == 1 + {5: 512, 6: 1024}[n]


# SHA-256 of seeded JSON reports: any change to the RNG stream or the report
# layout shows up here and has to be declared.  The Monte Carlo numbers of the
# report and noise runs are checked against the per-round oracle in test_noise.
PINNED_REPORTS = [
    pytest.param(
        ["quantum", "--n", "13", "--trials", "3", "--dense-check", "--seed", "5"],
        "b20f77e97003400437cf201f135859240a91c4c5778df5869a1a350cd6bc525e",
        id="quantum",
    ),
    pytest.param(
        ["report", "--quantum-trials", "5", "--mc-trials", "1000"],
        "75d22f2d6690a41831dd6f0dbb77fd773fc289c323d7e36d17ada0464e04fa97",
        id="report",
    ),
    pytest.param(
        ["noise", "--n", "3..5", "--p", "0.8:0.9:0.05", "--trials", "1000", "--seed", "7"],
        "0e05a15b9afc81f0bae8009bcad83ed47eb119c48fa0be2e31baee97ba132085",
        id="noise",
    ),
    pytest.param(
        ["detect", "--n", "3..5", "--eta", "0.5:1.0:0.01"],
        "52574a893bbeab404da088441b0faab24212c71c739c835634202af578564f4d",
        id="detect",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS)
def test_seeded_report_digest_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Text output prints each record's keys in insertion order, which the sorted
# JSON pins above cannot see.
PINNED_TEXT_REPORTS = [
    pytest.param(
        ["report", "--quantum-trials", "5", "--mc-trials", "1000"],
        "00149f45da3ec3e49096536fcbbce21825fc6857a416f95aed97ecc995ca474a",
        id="report",
    ),
    pytest.param(
        ["quantum", "--n", "13", "--trials", "3", "--dense-check", "--seed", "5"],
        "7eb261461cb8d38e73fc974cbceee5fdc67f76580979b76c5ca95aa9294825e6",
        id="quantum",
    ),
    pytest.param(
        ["noise", "--n", "3..5", "--p", "0.8:0.9:0.05", "--trials", "1000", "--seed", "7"],
        "bd17ba05297e1f63dcdb90a9b01870e38a100aa9ec94d151ce86623e9d403e05",
        id="noise",
    ),
    pytest.param(
        ["detect", "--n", "3..5", "--eta", "0.5:1.0:0.01"],
        "9938f4d1f7b6ace76c1fd409c31ea8d3926d057e9977791d2d7f3b236c462c6e",
        id="detect",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_TEXT_REPORTS)
def test_seeded_text_report_digest_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the grid CSVs, which hold the grid records only, in sorted columns.
PINNED_CSVS = [
    pytest.param(
        ["noise", "--n", "3..5", "--p", "0.8:0.9:0.05", "--trials", "1000", "--seed", "7"],
        "3cfc0e867ff79f67c387f5a0d0263f2e6b7ba912983739765b11d8cc3ea2cd0a",
        id="noise",
    ),
    pytest.param(
        ["detect", "--n", "3..5", "--eta", "0.5:1.0:0.01"],
        "4e384c1db3f1b1a59ab37fbc0f80455e2764a40b52a5550293ec2decfabb7360",
        id="detect",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_CSVS)
def test_grid_csv_digest_is_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "grid.csv"
    code, _ = run(capsys, *argv, "--csv", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_grid_steps_are_exact_decimals(capsys):
    # 1e-3 has no decimal point, yet the grid is 0.500, 0.501, ..., 0.510
    code, report = run_json(capsys, "noise", "--n", "3", "--p", "0.5:0.51:1e-3")
    assert code == 0
    points = [r["p"] for r in report["records"] if r["kind"] == "bitflip"]
    assert points == [float(Fraction(500 + k, 1000)) for k in range(11)]


def test_grid_flags_match_exact_oracle(capsys):
    _, report = run_json(capsys, "noise", "--n", "3..12", "--p", "0.80:0.99:0.001")
    _, detect = run_json(capsys, "detect", "--n", "3..5", "--eta", "0.5:1.0:0.001")
    records = [r for r in report["records"] + detect["records"] if "flag" in r]
    assert len(records) == 10 * 191 + 3 * 501
    for rec in records:
        n = rec["n"]
        if rec["kind"] == "bitflip":
            exact = (2 * Fraction(str(rec["p"])) - 1) ** n > Fraction(2, 2 ** math.ceil(n / 2))
        else:
            exact = Fraction(str(rec["eta"])) ** n > Fraction(4, 2**n)
        assert (rec["flag"] == "quantum-wins") == exact


def one_error_line(capsys):
    captured = capsys.readouterr()
    return captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["noise", "--n", "3", "--p", "0.5:1.0:0.0000001"],
        ["noise", "--n", "3..4", "--p", "0.5:1.0:0.00001"],  # 50 001 values, twice
        ["detect", "--n", "3", "--eta", "0:1:1e-999999999"],
        ["noise", "--n", "3..1000000000", "--p", "0.9"],
        ["noise", "--n", "3..300000"],
    ],
)
def test_huge_grid_is_refused_up_front(capsys, argv):
    assert main(argv) == 1
    assert one_error_line(capsys)


@pytest.mark.parametrize("command", ["noise", "detect"])
def test_player_counts_are_bounded_without_a_grid(capsys, monkeypatch, command):
    monkeypatch.setattr("ghzgame.cli.GRID_LIMIT", 3)
    assert main([command, "--n", "3..5"]) == 0
    capsys.readouterr()
    assert main([command, "--n", "3..6"]) == 1
    assert one_error_line(capsys)


def test_grid_limit_counts_points_over_every_n(capsys, monkeypatch):
    monkeypatch.setattr("ghzgame.cli.GRID_LIMIT", 12)
    assert main(["noise", "--n", "3..4", "--p", "0.5:0.55:0.01"]) == 0  # 2 x 6 points
    capsys.readouterr()
    assert main(["noise", "--n", "3..4", "--p", "0.5:0.56:0.01"]) == 1  # 2 x 7 points
    assert one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--quantum-trials", "0"],
        ["report", "--mc-trials", "0"],
        ["noise", "--n", "3", "--p", "0.9", "--trials", "-5"],
        ["noise", "--n", "63", "--p", "0.9", "--trials", "10"],
        ["noise", "--n", "3", "--p", "inf"],
        ["bound", "--n", "28569"],  # 2^14285 has 4301 digits
        ["bound", "--n", "1000000000000"],
        ["quantum", "--n", "3", "--trials", "1", "--seed", "-1"],
        ["noise", "--n", "3", "--p", "0.9", "--trials", "1", "--seed", "-1"],
        ["report", "--seed", "-1"],
        ["quantum", "--n", "3", "--trials", "100000000000000000000"],  # 4 * 10^20 rounds
        ["report", "--quantum-trials", "100000000000000000000"],
        # sampled rounds: one question per trial
        ["quantum", "--n", "20", "--trials", "100000000000000000000"],
        ["noise", "--n", "3", "--p", "0.9", "--trials", "100000000000000000000"],
        ["report", "--mc-trials", "100000000000000000000"],
        # flags argparse rejects: a missing --n, a bad int, an unknown flag
        ["bound"],
        ["quantum", "--n", "x"],
        ["search", "--n", "3", "--bogus"],
        # flags that act on grid points, without a grid
        ["noise", "--n", "3", "--trials", "1000"],
        ["noise", "--n", "3", "--trials", "1000", "--csv", "out.csv"],
        ["noise", "--n", "3", "--csv", "out.csv"],
        ["detect", "--n", "3", "--csv", "out.csv"],
    ],
)
def test_bad_counts_and_values_end_in_one_line(capsys, argv):
    assert main(argv) == 1
    assert one_error_line(capsys)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["search", "--n", "3", "--witnesses", ""], "cannot write ''"),
        (["noise", "--n", "3", "--p", "0.9", "--csv", ""], "cannot write ''"),
        (["detect", "--n", "3", "--eta", "0.9", "--csv", ""], "cannot write ''"),
        (["bound", "--n", "3", "--out", ""], "cannot write ''"),
        (["bound", "--n", "3", "--config", ""], "cannot read config file ''"),
        (["noise", "--n", "3", "--csv", ""], "--csv needs a --p grid"),
    ],
    ids=["search-witnesses", "noise-csv", "detect-csv", "bound-out", "bound-config", "noise-no-grid"],
)
def test_an_empty_path_is_refused(capsys, monkeypatch, tmp_path, argv, message):
    # an empty path names no file: it is refused, not read as "no path given"
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv,stdout",
    [
        (["search", "--n", "3", "--witnesses", "/dev/full"], None),
        (["bound", "--n", "3", "--out", "/dev/full"], None),
        (["detect", "--n", "3", "--eta", "0.5:0.6:0.1", "--csv", "/dev/full"], None),
        (["bound", "--n", "3"], "/dev/full"),
    ],
)
def test_a_failed_write_ends_in_one_line(argv, stdout):
    # a separate process, so that its own stdout can be the full device; block
    # buffered, as stdout to a file is by default, so only the flush can fail
    env = dict(os.environ, PYTHONPATH=str(Path(ghzgame.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    with open(stdout or os.devnull, "w") as out:
        done = subprocess.run(
            [sys.executable, "-m", "ghzgame.cli", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert done.returncode == 1
    target = "<stdout>" if stdout else "/dev/full"
    assert done.stderr == f"error: cannot write {target!r}: No space left on device\n"


def test_bound_prints_up_to_the_digit_limit(capsys):
    code, report = run_json(capsys, "bound", "--n", "28568")
    assert code == 0
    _, denominator = report["records"][0]["bound"].split("/")
    assert len(denominator) == sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("grid,points", [([], 0), (["--p", "0.9"], 1)])
def test_noise_prints_up_to_the_digit_limit(capsys, grid, points):
    code, report = run_json(capsys, "noise", "--n", "28568", *grid)
    assert code == 0
    exact = [r["classical_exact"] for r in report["records"] if r["kind"] == "bitflip"]
    assert [len(e.split("/")[1]) for e in exact] == [4300] * points


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--n", "28569"],
        ["noise", "--n", "28569"],
        ["noise", "--n", "28569", "--p", "0.9", "--format", "json"],
        ["noise", "--n", "3..28569", "--p", "0.9"],
    ],
)
def test_bound_beyond_the_digit_limit_is_refused(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be <= 28568, whose bound has 4300 digits, got 28569\n"


@pytest.mark.parametrize(
    "n,p", [(3, "0.89685026299204987868"), (4, "0.92044820762685726151"), (11, "0.86487002642036155896")]
)
def test_grid_value_within_rounding_of_the_threshold_passes(capsys, n, p):
    # the float threshold cannot order these values; the exact flag still decides them
    code, report = run_json(capsys, "noise", "--n", str(n), "--p", p)
    assert code == 0
    (rec,) = [r for r in report["records"] if r["kind"] == "bitflip"]
    exact = (2 * Fraction(p) - 1) ** n > Fraction(2, 2 ** math.ceil(n / 2))
    assert (rec["flag"] == "quantum-wins") == exact


def test_threshold_flag_check_skips_only_values_within_rounding(capsys, monkeypatch):
    # a float threshold 1e-6 too high misorders a value 4e-7 above the true one;
    # that is far outside rounding, so the consistency check must still run and fail
    true = noise.bitflip_threshold
    shifted = dataclasses.replace(noise.BITFLIP, threshold=lambda n: true(n) * (1 + 1e-6))
    monkeypatch.setattr(noise, "BITFLIP", shifted)
    code, out = run(capsys, "noise", "--n", "3", "--p", f"{true(3) * (1 + 4e-7):.12f}")
    assert code == 2
    assert "[FAIL] threshold_flags_consistent_n3" in out
