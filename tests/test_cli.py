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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import exactce
from exactce import (
    SparseCE,
    compute_exact_ce,
    load_game,
    load_game_file,
    random_game,
    verify_ce,
)
from exactce.cli import BENCH_COLUMNS, PRECISION_ENV, main

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def run_cli(*argv):
    return main(list(argv))


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

    def test_iteration_cap_exits_2_with_transcript(self, tmp_path, capsys):
        game = gen_game(tmp_path, seed=7, players=4)
        transcript = tmp_path / "cuts.jsonl"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "2",
                     "--transcript", str(transcript))
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert len(transcript.read_text().splitlines()) == 2

    def test_fallback_flag_rescues_cap(self, tmp_path):
        game = gen_game(tmp_path, seed=7, players=4)
        report = tmp_path / "r.json"
        rc = run_cli("solve", "--input", str(game), "--max-iters", "2",
                     "--brute-force-fallback", "--output", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["used_fallback"] is True and doc["verified"] is True

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

    def test_precision_env_honored(self, tmp_path, monkeypatch):
        game = gen_game(tmp_path, seed=0)
        report = tmp_path / "r.json"
        monkeypatch.setenv(PRECISION_ENV, "128")
        assert run_cli("solve", "--input", str(game),
                       "--output", str(report)) == 0
        assert json.loads(report.read_text())["precision_bits"] == 128

    def test_precision_flag_beats_env(self, tmp_path, monkeypatch):
        game = gen_game(tmp_path, seed=0)
        report = tmp_path / "r.json"
        monkeypatch.setenv(PRECISION_ENV, "128")
        assert run_cli("solve", "--input", str(game), "--precision", "192",
                       "--output", str(report)) == 0
        assert json.loads(report.read_text())["precision_bits"] == 192

    def test_garbage_precision_env(self, tmp_path, monkeypatch, capsys):
        game = gen_game(tmp_path, seed=0)
        monkeypatch.setenv(PRECISION_ENV, "lots")
        assert run_cli("solve", "--input", str(game)) == 2
        assert f"error: {PRECISION_ENV} must be an integer" in capsys.readouterr().err


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
        # at one iteration seed 0 solves and seed 1 hits the cap
        csv_path = tmp_path / "bench.csv"
        rc = run_cli("bench", "--family", "nfg", "--sizes", "2x2",
                     "--seeds", "0:2", "--max-iters", "1",
                     "--csv", str(csv_path))
        assert rc == 2
        err = capsys.readouterr().err
        failures = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(failures) == 1
        assert "seed=1 " in failures[0] and "iteration cap 1" in failures[0]
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["seed"] for r in rows] == ["0"]

    def test_bad_sizes_is_error(self, capsys):
        assert run_cli("bench", "--sizes", "twoxtwo") == 2
        assert "bad --sizes" in capsys.readouterr().err


BAD_SETTINGS = [
    pytest.param(["solve", "--precision", "8"], {}, id="solve-precision-8"),
    pytest.param(["solve"], {PRECISION_ENV: "4"}, id="solve-precision-env-4"),
    pytest.param(["solve"], {PRECISION_ENV: "lots"}, id="solve-precision-env-lots"),
    pytest.param(["bench"], {PRECISION_ENV: "lots"}, id="bench-precision-env-lots"),
    pytest.param(["bench", "--oracles", "bogus"], {}, id="bench-oracle-bogus"),
    pytest.param(["bench", "--max-iters", "0"], {}, id="bench-max-iters-0"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--oracles", "product", "--tie-breaks", "bogus"], {},
                 id="bench-product-tie-break-bogus"),
    pytest.param(["solve", "--output", "missing/x.json"], {}, id="solve-output-missing-dir"),
    pytest.param(["solve", "--output", "r.json", "--ce-output", "missing/x.json"], {},
                 id="solve-ce-output-missing-dir"),
    pytest.param(["solve", "--output", "r.json", "--transcript", "missing/x.json"], {},
                 id="solve-transcript-missing-dir"),
    pytest.param(["gen", "--output", "missing/x.json"], {}, id="gen-output-missing-dir"),
    pytest.param(["gen", "--players", "2", "--actions", "1024"], {}, id="gen-oversize"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x1024", "--seeds", "0:1"], {},
                 id="bench-oversize"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2", "--seeds", "0:1",
                  "--csv", "missing/x.json"], {}, id="bench-csv-missing-dir"),
    # every family and size is checked before the first solve
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,40x2", "--seeds", "0:1",
                  "--csv", "r.json"], {}, id="bench-oversize-after-a-solvable-size"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,1x33", "--seeds", "0:1",
                  "--csv", "r.json"], {}, id="bench-row-ceiling-after-a-solvable-size"),
    pytest.param(["bench", "--family", "nfg,foo", "--sizes", "2x2", "--seeds", "0:1",
                  "--csv", "r.json"], {}, id="bench-unknown-family-after-nfg"),
    pytest.param(["bench", "--family", "nfg", "--sizes", "2x2,0x2", "--seeds", "0:1",
                  "--csv", "r.json"], {}, id="bench-zero-players-after-a-solvable-size"),
]

NOT_UTF8 = b"\xff\xfe{not text"


class TestExitCodes:
    @pytest.mark.parametrize("argv, env", BAD_SETTINGS)
    def test_bad_setting_exits_2_without_traceback(self, tmp_path, argv, env):
        # a setting the solver rejects is "anything else" (2), never the
        # "certificate invalid" code (1) that an escaping exception gives
        if argv[0] == "solve":
            argv = [*argv, "--input", str(gen_game(tmp_path))]
        package_root = str(Path(exactce.__file__).resolve().parent.parent)
        child_env = dict(os.environ, **env)
        child_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, child_env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "exactce", *argv],
                              capture_output=True, text=True, env=child_env,
                              cwd=tmp_path)
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

    def test_verify_ce_not_utf8(self, tmp_path, capsys):
        ce = tmp_path / "ce.json"
        ce.write_bytes(NOT_UTF8)
        assert run_cli("verify", "--input", str(gen_game(tmp_path)), "--ce", str(ce)) == 2
        assert capsys.readouterr().err.startswith("error:")

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
        package_root = str(Path(exactce.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "exactce", *argv],
                              capture_output=True, text=True, env=env, timeout=10)
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


@st.composite
def mutated(draw, node):
    """node with one change somewhere inside it: a value replaced, or a key
    or an element dropped or added."""
    if not isinstance(node, (dict, list)) or not node:
        # mostly a value of the same kind, so that many documents still load
        return draw(st.one_of(st.integers(-3, 40), st.sampled_from(["3/2", "-1/3", "0.75"]),
                              JSON_VALUES))
    move = draw(st.sampled_from(["descend"] * 6 + ["replace", "drop", "add"]))
    if move == "replace":
        return draw(JSON_VALUES)
    if move == "add":
        if isinstance(node, dict):
            node[draw(st.sampled_from(["x", "edges", "payoffs", "p"]))] = draw(JSON_VALUES)
        else:
            node.insert(draw(st.integers(0, len(node))), draw(JSON_VALUES))
        return node
    if isinstance(node, dict):
        # hypothesis leans to the first choice: the payoff tables, not the header
        keys = sorted(node, key=lambda k: k not in ("payoffs", "edges", "matrix"))
    else:
        keys = range(len(node))
    key = draw(st.sampled_from(keys))
    if move == "drop":
        del node[key]
    else:
        node[key] = draw(mutated(node[key]))
    return node


@st.composite
def mutated_documents(draw):
    document = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        document = draw(mutated(document))
    return document


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
