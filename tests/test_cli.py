"""Command-line behavior: exit codes, file outputs, schemas, goldens."""

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import exactce
import helpers
from exactce import (
    SparseCE,
    compute_exact_ce,
    load_game,
    load_game_file,
    random_game,
    solver,
    verify_ce,
)
from exactce.cli import (
    BENCH_COLUMNS,
    _bench_configs,
    _config_from,
    build_parser,
    main,
)
from exactce.solver import SolveConfig

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv, cwd=None, timeout=None):
    """`python -m exactce argv` in a child process that imports this package."""
    package_root = str(Path(exactce.__file__).resolve().parent.parent)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, child_env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "exactce", *argv], capture_output=True,
                          text=True, env=child_env, cwd=cwd, timeout=timeout)


def gen_game(tmp_path, seed=0, players=2, actions=2, family="nfg"):
    path = tmp_path / f"game_{family}_{players}x{actions}_{seed}.json"
    rc = run_cli("gen", "--family", family, "--players", str(players),
                 "--actions", str(actions), "--seed", str(seed),
                 "--output", str(path))
    assert rc == 0
    return path


class TestGen:
    def test_deterministic(self, tmp_path):
        a = gen_game(tmp_path, seed=5)
        b_path = tmp_path / "again.json"
        run_cli("gen", "--seed", "5", "--output", str(b_path))
        assert a.read_text() == b_path.read_text()

    def test_document_loads(self, tmp_path):
        path = gen_game(tmp_path, seed=3, family="polymatrix", players=3)
        game = load_game_file(str(path))
        assert game.family == "polymatrix" and game.players == 3

    def test_stdout(self, capsys):
        assert run_cli("gen", "--seed", "1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "nfg"

    def test_bad_family_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("gen", "--family", "extensive")


class TestSolveVerify:
    def test_round_trip_exit_codes(self, tmp_path):
        game = gen_game(tmp_path, seed=4, players=3)
        report = tmp_path / "report.json"
        ce = tmp_path / "ce.json"
        assert run_cli("solve", "--input", str(game), "--output", str(report),
                       "--ce-output", str(ce)) == 0
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 0
        doc = json.loads(report.read_text())
        assert doc["verified"] is True and doc["exact_epsilon"] == "0"

    def test_report_matches_golden(self, tmp_path):
        game = gen_game(tmp_path, seed=0)
        report = tmp_path / "report.json"
        assert run_cli("solve", "--input", str(game), "--output", str(report)) == 0
        doc = json.loads(report.read_text())
        doc["wall_ms"] = 0.0
        expected = json.loads((GOLDEN / "report_nfg_2x2_seed0.json").read_text())
        assert doc == expected

    def test_product_report_matches_golden(self, tmp_path):
        # criterion 10's caps for 18 rows; every probe fails, so the mixture
        # (6 components, epsilon > 0) comes from min_violation_mixture
        game = gen_game(tmp_path, seed=7, players=2, actions=3, family="polymatrix")
        report = tmp_path / "report.json"
        assert run_cli("solve", "--input", str(game), "--output", str(report),
                       "--oracle", "product", "--precision", "96",
                       "--max-iters", "48", "--probe-stride", "4") == 0
        doc = json.loads(report.read_text())
        doc["wall_ms"] = 0.0
        expected = json.loads(
            (GOLDEN / "report_product_polymatrix_2x3_seed7.json").read_text())
        assert doc["mixture"]["epsilon"] != "0" and doc["support"] == 6
        assert doc == expected

    def test_certificate_matches_golden(self):
        game = random_game("nfg", 3, 2, u_max=10, seed=20)
        result = compute_exact_ce(game)
        expected = json.loads(
            (GOLDEN / "certificate_nfg_3x2_seed20.json").read_text())
        assert result.certificate.to_json() == expected
        assert verify_ce(game, SparseCE.from_json(expected)).verdict

    @pytest.mark.parametrize("family, players, actions, seed, tie_break", [
        pytest.param("nfg", 3, 3, 39, "first", id="nfg-3-3-39"),
        pytest.param("polymatrix", 3, 3, 33, "first", id="polymatrix-3-3-33"),
        pytest.param("polymatrix", 4, 3, 95, "first", id="polymatrix-4-3-95"),
        ("polymatrix", 3, 3, 33, "welfare"), ("polymatrix", 3, 3, 33, "max-value")])
    def test_transcript_matches_golden(self, tmp_path, family, players, actions, seed,
                                       tie_break):
        # pins the purified cut sequence, so a change to the ellipsoid
        # arithmetic or to a tie break's branch scores that moves any center
        # shows here
        game = gen_game(tmp_path, seed=seed, players=players, actions=actions,
                        family=family)
        transcript = tmp_path / "cuts.jsonl"
        assert run_cli("solve", "--input", str(game),
                       "--output", str(tmp_path / "r.json"),
                       "--tie-break", tie_break,
                       "--transcript", str(transcript)) == 0
        suffix = "" if tie_break == "first" else f"_{tie_break}"
        name = f"transcript_{family}_{players}x{actions}_seed{seed}{suffix}.jsonl"
        assert transcript.read_bytes() == (GOLDEN / name).read_bytes()

    def test_transcript_written(self, tmp_path):
        game = gen_game(tmp_path, seed=4, players=3)
        transcript = tmp_path / "cuts.jsonl"
        assert run_cli("solve", "--input", str(game),
                       "--output", str(tmp_path / "r.json"),
                       "--transcript", str(transcript)) == 0
        lines = transcript.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["iter"] == 1 and "kind" in first

    def test_tampered_mass_fails_verify(self, tmp_path, capsys):
        game = gen_game(tmp_path, seed=4)
        ce = tmp_path / "ce.json"
        run_cli("solve", "--input", str(game), "--output", str(tmp_path / "r.json"),
                "--ce-output", str(ce))
        doc = json.loads(ce.read_text())
        doc["atoms"][0]["prob"] = "1/2"
        ce.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 1
        assert "not a distribution" in capsys.readouterr().err

    def test_non_equilibrium_fails_verify(self, tmp_path, capsys):
        game = tmp_path / "dominant.json"
        game.write_text(json.dumps({
            "type": "nfg", "players": 2, "actions": [2, 2],
            "payoffs": [[1, 5, 0, 3], [1, 0, 5, 3]],
        }))
        ce = tmp_path / "bad_ce.json"
        ce.write_text(json.dumps(
            {"atoms": [{"profile": [1, 1], "prob": "1"}]}))
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 1
        assert "violated" in capsys.readouterr().err

    def test_wrong_profile_length_is_error(self, tmp_path):
        game = gen_game(tmp_path, seed=4)
        ce = tmp_path / "ce.json"
        ce.write_text(json.dumps(
            {"atoms": [{"profile": [0, 0, 0], "prob": "1"}]}))
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 2

    def test_bad_json_is_error(self, tmp_path):
        game = gen_game(tmp_path, seed=4)
        ce = tmp_path / "ce.json"
        ce.write_text("{not json")
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 2

    def test_missing_files_are_errors(self, tmp_path):
        assert run_cli("solve", "--input", str(tmp_path / "nope.json")) == 2
        game = gen_game(tmp_path, seed=4)
        assert run_cli("verify", "--input", str(game),
                       "--ce", str(tmp_path / "nope.json")) == 2

    def test_capped_solve_exits_0_with_transcript(self, tmp_path):
        # past the cap the probe program prices on; the transcript keeps the
        # ellipsoid's two iterations only
        game = gen_game(tmp_path, seed=7, players=4)
        transcript, ce = tmp_path / "cuts.jsonl", tmp_path / "ce.json"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "2",
                     "--transcript", str(transcript), "--ce-output", str(ce))
        assert rc == 0
        assert len(transcript.read_text().splitlines()) == 2
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 0

    def test_capped_solve_reports_the_pricing(self, tmp_path):
        # the profiles priced after the cap count in distinct_cuts only
        game = gen_game(tmp_path, seed=7, players=4)
        report = tmp_path / "r.json"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "2",
                     "--output", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["used_fallback"] is True and doc["verified"] is True
        assert doc["iterations"] == 2 and doc["distinct_cuts"] > 2

    def test_failed_solve_exits_2_with_transcript(self, tmp_path, capsys, monkeypatch):
        # an oracle that repeats a profile at the probe program's dual fails
        # the solve after the ellipsoid's two iterations, which are written
        monkeypatch.setattr(solver, "purified_separation", helpers.repeating_separation(2))
        game = gen_game(tmp_path, seed=7, players=4)
        transcript = tmp_path / "cuts.jsonl"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "2",
                     "--transcript", str(transcript))
        assert rc == 2
        assert "repeated profile" in capsys.readouterr().err
        assert len(transcript.read_text().splitlines()) == 2

    @pytest.mark.parametrize("family", ["polymatrix", "nfg"])
    def test_colgen_finishes_past_the_brute_force_cap(self, tmp_path, family):
        # 2^13 profiles: pricing takes a few of them, whatever the count
        game = gen_game(tmp_path, players=13, family=family)
        report, ce = tmp_path / "r.json", tmp_path / "ce.json"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "10",
                     "--output", str(report), "--ce-output", str(ce))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["used_fallback"] is True and doc["iterations"] == 10
        assert doc["support"] <= doc["distinct_cuts"]
        assert run_cli("verify", "--input", str(game), "--ce", str(ce)) == 0

    def test_product_oracle_reports_epsilon(self, tmp_path):
        game = gen_game(tmp_path, seed=1)
        report = tmp_path / "r.json"
        rc = run_cli("solve", "--input", str(game), "--oracle", "product",
                     "--max-iters", "40", "--precision", "96",
                     "--output", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["certificate"] is None
        assert Fraction(doc["mixture"]["epsilon"]) >= 0


class TestBench:
    def test_two_oracles_schema(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        rc = run_cli("bench", "--family", "nfg", "--sizes", "2x2",
                     "--seeds", "0:2", "--oracles", "purified,product",
                     "--max-iters", "60", "--precision", "96",
                     "--csv", str(csv_path))
        assert rc == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4  # 2 seeds x 2 oracles
        assert list(rows[0]) == BENCH_COLUMNS
        for row in rows:
            if row["oracle"] == "purified":
                assert row["exact_epsilon"] == "0"
            else:
                assert Fraction(row["exact_epsilon"]) >= 0
            assert row["actions"] == "2x2"
            float(row["wall_ms"])

    def test_oracle_ignoring_tie_breaks_runs_once(self, tmp_path):
        # the product oracle has no tie break, so it must not repeat per name
        csv_path = tmp_path / "bench.csv"
        rc = run_cli("bench", "--family", "nfg", "--sizes", "2x2",
                     "--seeds", "0:1", "--oracles", "product,purified",
                     "--tie-breaks", "first,welfare", "--max-iters", "20",
                     "--csv", str(csv_path))
        assert rc == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["oracle"] for r in rows] == ["product", "purified", "purified"]

    def test_seed_list_and_stdout(self, capsys):
        rc = run_cli("bench", "--family", "nfg", "--sizes", "2x2",
                     "--seeds", "3,5", "--csv", "-")
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["seed"] for r in rows] == ["3", "5"]

    def test_failed_game_is_error_and_rest_still_written(self, tmp_path, capsys):
        # 2x2 solves; the 5x3 product epsilon at 200 iterations has more
        # digits than a report can print
        csv_path = tmp_path / "bench.csv"
        rc = run_cli("bench", "--family", "polymatrix", "--sizes", "2x2,5x3",
                     "--seeds", "0:1", "--oracles", "product", "--max-iters", "200",
                     "--csv", str(csv_path))
        assert rc == 2
        err = capsys.readouterr().err
        failures = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(failures) == 1
        assert "players=5 actions=3 seed=0 " in failures[0] and "digits" in failures[0]
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["n"], r["actions"]) for r in rows] == [("2", "2x2")]

    def test_bad_sizes_is_error(self, capsys):
        assert run_cli("bench", "--sizes", "twoxtwo") == 2
        assert "bad --sizes" in capsys.readouterr().err


class TestSettings:
    """The CLI's defaults and checks are SolveConfig's."""

    def test_solve_defaults_are_solve_configs(self):
        args = build_parser().parse_args(["solve", "--input", "x"])
        assert _config_from(args) == SolveConfig()

    def test_environment_sets_nothing(self, monkeypatch):
        monkeypatch.setenv("EXACTCE_PRECISION", "128")
        args = build_parser().parse_args(["solve", "--input", "x"])
        assert _config_from(args) == SolveConfig()

    def test_bench_configs_carry_solve_config_settings(self):
        args = build_parser().parse_args([
            "bench", "--oracles", "purified,product",
            "--tie-breaks", "first,welfare,max-value"])
        configs = _bench_configs(args)
        # the product oracle reads no tie break, so it runs once
        assert [(c.oracle, c.tie_break) for c in configs] == [
            ("purified", "first"), ("purified", "welfare"), ("purified", "max-value"),
            ("product", "first")]
        default = SolveConfig()
        for config in configs:
            assert config.max_iters == default.max_iters
            assert config.probe_stride == default.probe_stride
            assert config.precision_bits == default.precision_bits

    @pytest.mark.parametrize("names, field", [
        (["--oracles", "bogus"], "oracle"),
        # checked even though the product oracle never reads it
        (["--oracles", "product", "--tie-breaks", "bogus"], "tie_break"),
    ], ids=["oracle", "product-tie-break"])
    def test_bogus_bench_name_exits_2_with_solve_configs_message(self, capsys, names,
                                                                 field):
        with pytest.raises(ValueError) as refused:
            SolveConfig(**{field: "bogus"})
        assert run_cli("bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                       *names) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {refused.value}"]


BAD_SETTINGS = [
    pytest.param(["solve", "--precision", "8"], id="solve-precision-8"),
    # a precision past the ceiling is refused before the starting ball's
    # precision-bit pivot is built, which would not fit in memory
    pytest.param(["solve", "--precision", "99999999999"], id="solve-precision-huge"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--precision", "99999999999"], id="bench-precision-huge"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--precision", "65537"], id="bench-precision-past-the-ceiling"),
    pytest.param(["bench", "--oracles", "bogus"], id="bench-oracle-bogus"),
    pytest.param(["bench", "--max-iters", "0"], id="bench-max-iters-0"),
    pytest.param(["bench", "--seeds", "3:1"], id="bench-seeds-empty-range"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--oracles", "product", "--tie-breaks", "bogus"],
                 id="bench-product-tie-break-bogus"),
    pytest.param(["solve", "--mode", "theoretical", "--oracle", "product"],
                 id="solve-theoretical-product"),
    pytest.param(["solve", "--output", "missing/x.json"], id="solve-output-missing-dir"),
    pytest.param(["solve", "--output", "r.json", "--ce-output", "missing/x.json"],
                 id="solve-ce-output-missing-dir"),
    pytest.param(["solve", "--output", "r.json", "--transcript", "missing/x.json"],
                 id="solve-transcript-missing-dir"),
    # a directory is refused before the solve, not when it is opened after it
    pytest.param(["solve", "--output", "."], id="solve-output-is-a-dir"),
    pytest.param(["solve", "--output", "r.json", "--transcript", "."],
                 id="solve-transcript-is-a-dir"),
    # two outputs to one destination would leave only the last one written
    pytest.param(["solve", "--output", "r.json", "--transcript", "r.json"],
                 id="solve-output-and-transcript-one-file"),
    pytest.param(["solve", "--output", "r.json", "--ce-output", "./r.json"],
                 id="solve-output-and-ce-output-one-file"),
    pytest.param(["solve", "--transcript", "-"], id="solve-transcript-and-report-on-stdout"),
    pytest.param(["solve", "--output", "-", "--ce-output", "-"],
                 id="solve-ce-output-and-report-on-stdout"),
    pytest.param(["gen", "--output", "missing/x.json"], id="gen-output-missing-dir"),
    pytest.param(["gen", "--players", "2", "--actions", "1024"], id="gen-oversize"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x1024", "--seeds", "0:1"],
                 id="bench-oversize"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--csv", "missing/x.json"], id="bench-csv-missing-dir"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--csv", "."], id="bench-csv-is-a-dir"),
    # every family and size is checked before the first solve
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,40x2", "--seeds", "0:1",
                  "--csv", "r.json"], id="bench-oversize-after-a-solvable-size"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,1x33", "--seeds", "0:1",
                  "--csv", "r.json"], id="bench-row-ceiling-after-a-solvable-size"),
    pytest.param(["bench", "--family", "nfg,foo", "--sizes", "2x2", "--seeds", "0:1",
                  "--csv", "r.json"], id="bench-unknown-family-after-nfg"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,0x2", "--seeds", "0:1",
                  "--csv", "r.json"], id="bench-zero-players-after-a-solvable-size"),
]

NOT_UTF8 = b"\xff\xfe{not text"


class TestExitCodes:
    @pytest.mark.parametrize("argv", BAD_SETTINGS)
    def test_bad_setting_exits_2_without_traceback(self, tmp_path, argv):
        # a setting the solver rejects is "anything else" (2), never the
        # "certificate invalid" code (1) that an escaping exception gives
        if argv[0] == "solve":
            argv = [*argv, "--input", str(gen_game(tmp_path))]
        proc = run_module(*argv, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        # refused before any work: one error, no progress line, no output file
        lines = proc.stderr.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1, proc.stderr
        assert not any(line.startswith(("solving:", "done:", "bench:")) for line in lines)
        assert not (tmp_path / "r.json").exists()

    def test_solve_input_not_utf8(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        game.write_bytes(NOT_UTF8)
        assert run_cli("solve", "--input", str(game)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_solve_boolean_edge_endpoint(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "type": "polymatrix", "players": 2, "actions": [2, 2],
            "edges": [{"p": True, "q": False, "matrix": [[0, 1], [2, 3]]}],
        }))
        assert run_cli("solve", "--input", str(game)) == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error:") for line in err) == 1, err

    def test_solve_past_the_row_ceiling(self, tmp_path, capsys):
        # 33 actions store 33 payoffs but give 33^2 incentive rows
        game = tmp_path / "game.json"
        game.write_text(json.dumps(random_game("nfg", 1, 33, u_max=10, seed=0).to_document()))
        report = tmp_path / "r.json"
        assert run_cli("solve", "--input", str(game), "--output", str(report)) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: 1089 incentive rows exceed the ceiling 1024"]
        assert not report.exists()

    def test_solve_product_refuses_ce_output(self, tmp_path, capsys):
        # the product oracle gives a mixture, never a certificate to write
        report, ce = tmp_path / "r.json", tmp_path / "ce.json"
        assert run_cli("solve", "--input", str(gen_game(tmp_path)), "--oracle", "product",
                       "--output", str(report), "--ce-output", str(ce)) == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error:") for line in err) == 1, err
        assert not any(line.startswith("solving:") for line in err)
        assert not report.exists() and not ce.exists()

    def test_verify_ce_not_utf8(self, tmp_path, capsys):
        ce = tmp_path / "ce.json"
        ce.write_bytes(NOT_UTF8)
        assert run_cli("verify", "--input", str(gen_game(tmp_path)), "--ce", str(ce)) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, deep_flag", [
        ("solve", "--input"), ("verify", "--input"), ("verify", "--ce"),
    ], ids=["solve-input", "verify-input", "verify-ce"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command, deep_flag):
        # the JSON decoder gives up on deep nesting with a RecursionError,
        # which is not a ValueError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        ce = tmp_path / "ce.json"
        ce.write_text(json.dumps({"atoms": [{"profile": [0, 0], "prob": 1}]}))
        paths = {"--input": str(gen_game(tmp_path)), "--ce": str(ce), deep_flag: str(deep)}
        argv = [command, "--input", paths["--input"]]
        if command == "verify":
            argv += ["--ce", paths["--ce"]]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1, lines
        assert "nested too deeply" in lines[-1]

    @pytest.mark.parametrize("command, number", [
        ("verify", "1" + "0" * 4400),  # a JSON int literal past the digit limit
        ("verify", '"1e5000"'),  # fine to build, but its sum cannot be printed
        ("solve", '"1e5000"'),  # solves, but u_max cannot be printed
        ("solve", '"1e10000000"'),  # 30 bytes that take seconds to build
    ], ids=["verify-int-literal", "verify-exponent", "solve-exponent", "solve-huge-exponent"])
    def test_number_past_digit_limit_exits_2(self, tmp_path, command, number):
        # Python prints and parses ints only up to sys.get_int_max_str_digits()
        # digits; such a number is refused up front, never a traceback (1)
        game = gen_game(tmp_path)
        if command == "solve":
            document = json.loads(game.read_text())
            document["payoffs"][0][0] = json.loads(number)
            game.write_text(json.dumps(document))
            argv = ["solve", "--input", str(game)]
        else:
            ce = tmp_path / "ce.json"
            ce.write_text('{"atoms": [{"profile": [0, 0], "prob": %s}]}' % number)
            argv = ["verify", "--input", str(game), "--ce", str(ce)]
        proc = run_module(*argv, timeout=10)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1, proc.stderr[-2000:]
        assert "digit" in proc.stderr

    @pytest.mark.parametrize("document", [
        {"type": "nfg", "players": 2, "actions": [2, 2],
         "payoffs": [["1e3000", "1e-3000", 0, 1], [1, 0, 0, 1]]},
        {"type": "polymatrix", "players": 3, "actions": [2, 2, 2],
         "edges": [{"p": 0, "q": 1, "matrix": [["1e3000", 0], [0, 1]]},
                   {"p": 0, "q": 2, "matrix": [[0, "1e-3000"], [1, 0]]}]},
    ], ids=["nfg", "polymatrix"])
    def test_payoffs_combining_past_digit_limit_exit_2(self, tmp_path, capsys, document):
        # each utility passes the digit check, but scaling by 10**3000 stores
        # 10**6000, which the report's u_max could not print
        game = tmp_path / "game.json"
        game.write_text(json.dumps(document))
        report = tmp_path / "r.json"
        assert run_cli("solve", "--input", str(game), "-o", str(report)) == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("error:") for line in err) == 1, err
        assert "digits" in err[-1]
        assert not report.exists()

    def test_unprintable_product_epsilon_exits_2(self, tmp_path):
        # at 200 iterations the product oracle's exact epsilon on this game
        # has about 5437 decimal digits, past what Python prints: the report
        # cannot be written, which is an error (2), never a traceback (1)
        game = str(gen_game(tmp_path, players=5, actions=3, family="polymatrix"))
        proc = run_module("solve", "--input", game, "--oracle", "product",
                          "--max-iters", "200", "-o", "r.json", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1, lines
        assert "epsilon=a rational of about 5437 decimal digits" in proc.stderr
        assert not (tmp_path / "r.json").exists()

        proc = run_module("bench", "--family", "polymatrix", "--sizes", "5x3",
                          "--seeds", "0:1", "--oracles", "product", "--max-iters", "200",
                          "--csv", "r.csv", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        failures = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(failures) == 1 and "seed=0 " in failures[0], failures
        assert (tmp_path / "r.csv").read_text().splitlines() == [",".join(BENCH_COLUMNS)]

    def test_unprintable_sum_reported_by_size(self, tmp_path, capsys):
        # each probability prints, but their sum's denominator has 4401 digits
        ce = tmp_path / "ce.json"
        ce.write_text(json.dumps({"atoms": [
            {"profile": [0, 0], "prob": f"1/{10**2200 + 1}"},
            {"profile": [1, 1], "prob": f"1/{10**2200 + 3}"}]}))
        assert run_cli("verify", "--input", str(gen_game(tmp_path)), "--ce", str(ce)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["not a distribution: probabilities sum to a rational of about "
                       "4400 decimal digits, not 1"]


FUZZ_BASES = [
    random_game("nfg", 2, 2, u_max=10, seed=0).to_document(),
    random_game("nfg", 3, 2, u_max=10, seed=1).to_document(),
    random_game("polymatrix", 3, 2, u_max=10, seed=2).to_document(),
    {"type": "nfg", "players": 2, "actions": [2, 1],
     "payoffs": [["1/2", "-3/4"], ["0.25", 2]]},
]

JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 40), st.integers(),
        st.floats(), st.text(max_size=6),
        st.sampled_from(["1/2", "-7/3", "1/0", "0.5", "1e3000", "1e-3000", "2e5000",
                         "nan", "-inf", "nfg", "polymatrix"]),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["type", "players", "actions", "payoffs", "edges", "p", "q",
                         "matrix", "x"]), inner, max_size=3),
    max_leaves=8,
)


class Mutations(NamedTuple):
    """What mutated draws for one kind of document."""

    leaf: st.SearchStrategy  # a leaf's replacement, mostly of the same kind
    values: st.SearchStrategy  # any JSON value
    new_keys: list  # keys an added entry gets
    lead_keys: tuple  # keys to descend into first


GAME_MUTATIONS = Mutations(
    leaf=st.one_of(st.integers(-3, 40), st.sampled_from(["3/2", "-1/3", "0.75"]),
                   JSON_VALUES),
    values=JSON_VALUES,
    new_keys=["x", "edges", "payoffs", "p"],
    # hypothesis leans to the first choice: the payoff tables, not the header
    lead_keys=("payoffs", "edges", "matrix"),
)


@st.composite
def mutated(draw, node, how=GAME_MUTATIONS):
    """node with one change somewhere inside it: a value replaced, or a key
    or an element dropped or added."""
    if not isinstance(node, (dict, list)) or not node:
        # mostly a value of the same kind, so that many documents still load
        return draw(how.leaf)
    move = draw(st.sampled_from(["descend"] * 6 + ["replace", "drop", "add"]))
    if move == "replace":
        return draw(how.values)
    if move == "add":
        if isinstance(node, dict):
            node[draw(st.sampled_from(how.new_keys))] = draw(how.values)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(how.values))
        return node
    if isinstance(node, dict):
        keys = sorted(node, key=lambda k: k not in how.lead_keys)
    else:
        keys = range(len(node))
    key = draw(st.sampled_from(keys))
    if move == "drop":
        del node[key]
    else:
        node[key] = draw(mutated(node[key], how))
    return node


@st.composite
def mutated_documents(draw):
    document = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        document = draw(mutated(document))
    return document


CE_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(),
        st.text(max_size=6),
        st.sampled_from(["1/2", "-1/2", "1/3", "2/3", "1/0", "0.5", "-0", "1e3000",
                         "-1e3000", "1e-3000", "2e5000", "-2e5000", "nan"]),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["atoms", "profile", "prob", "x"]), inner, max_size=3),
    max_leaves=8,
)

CE_MUTATIONS = Mutations(
    leaf=st.one_of(st.integers(-1, 3), st.sampled_from(["1/2", "-1/2", "1/3", "3/4"]),
                   CE_VALUES),
    values=CE_VALUES,
    new_keys=["atoms", "profile", "prob", "x"],
    lead_keys=("atoms",),
)


def fuzz_certificate_bases():
    """(game document, certificate document) pairs: solved small games and
    one hand-written certificate that is a distribution but no equilibrium."""
    bases = []
    for family, players, seed in [("nfg", 2, 0), ("polymatrix", 3, 2)]:
        game = random_game(family, players, 2, u_max=10, seed=seed)
        ce = compute_exact_ce(game).certificate
        bases.append((game.to_document(), ce.to_json()))
    game = random_game("nfg", 2, 2, u_max=10, seed=0).to_document()
    bases.append((game, {"atoms": [{"profile": [0, 0], "prob": "1/2"},
                                   {"profile": [1, 1], "prob": "1/2"}]}))
    return bases


FUZZ_CERTIFICATE_BASES = fuzz_certificate_bases()


@st.composite
def mutated_certificates(draw):
    game, document = draw(st.sampled_from(FUZZ_CERTIFICATE_BASES))
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 2))):
        document = draw(mutated(document, CE_MUTATIONS))
    return game, document


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutated_documents(), st.sampled_from(["purified", "product"]))
    def test_mutated_documents_exit_0_or_2(self, document, oracle):
        # the loader refuses a bad document with a ValueError (GameFormatError
        # included), and solve turns every failure into exit 2 with one
        # error line; an escaping exception fails the test with its traceback
        try:
            load_game(copy.deepcopy(document))
            loaded = True
        except ValueError:
            loaded = False
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            game = os.path.join(tmp, "game.json")
            with open(game, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            with contextlib.redirect_stderr(err):
                code = run_cli("solve", "--input", game, "--oracle", oracle,
                               "--max-iters", "20", "--output", os.path.join(tmp, "r.json"))
        assert code in (0, 2)
        assert loaded or code == 2
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error:") for line in lines) == (code == 2), lines

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutated_certificates())
    def test_mutated_certificates_exit_0_1_or_2(self, case):
        # exit 1 says the certificate was read and is no equilibrium, so it
        # needs a document the certificate parser accepts; any other failure
        # is exit 2 with one error line, and an escaping exception fails the
        # test with its traceback
        game, document = case
        try:
            SparseCE.from_json(copy.deepcopy(document))
            parsed = True
        except ValueError:
            parsed = False
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, f"{name}.json") for name in ("game", "ce")}
            for name, content in (("game", game), ("ce", document)):
                with open(paths[name], "w", encoding="utf-8") as handle:
                    json.dump(content, handle)
            with contextlib.redirect_stderr(err):
                code = run_cli("verify", "--input", paths["game"], "--ce", paths["ce"])
        assert code in (0, 1, 2)
        assert parsed or code != 1
        assert "Traceback" not in err.getvalue()
        lines = err.getvalue().splitlines()
        assert sum(line.startswith("error:") for line in lines) == (code == 2), lines


def declared_console_script(name):
    """The ``module:attr`` target that ``[project.scripts]`` declares for name."""
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        scripts = toml.load(handle)["project"].get("scripts", {})
    assert name in scripts, f"{name!r} is not declared in [project.scripts]"
    module, _, attr = scripts[name].partition(":")
    assert module and attr, scripts[name]
    return module, attr


def write_launcher(directory, name, module, attr):
    """Write the launcher an installer puts on PATH for a console script."""
    launcher = directory / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)


def assert_help_lists_subcommands(command, env=None):
    proc = subprocess.run([command, "--help"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: exactce"), proc.stdout
    for sub in ("solve", "verify", "gen", "bench"):
        assert sub in proc.stdout


class TestEntryPoints:
    def test_console_script_help(self, tmp_path):
        # Typing `exactce --help` runs the CLI. The launcher is built from
        # the pyproject.toml declaration, so no install is needed; the
        # launcher imports the same exactce package this test imported.
        module, attr = declared_console_script("exactce")
        write_launcher(tmp_path, "exactce", module, attr)
        package_root = str(Path(exactce.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        assert_help_lists_subcommands("exactce", env)
        if installed := shutil.which("exactce"):
            assert_help_lists_subcommands(installed)

    def test_module_invocation(self, tmp_path):
        game = tmp_path / "g.json"
        proc = subprocess.run(
            [sys.executable, "-m", "exactce", "gen", "--seed", "2",
             "--output", str(game)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        proc = subprocess.run(
            [sys.executable, "-m", "exactce", "solve", "--input", str(game),
             "--output", "-"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verified"] is True

    def test_no_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            run_cli()
