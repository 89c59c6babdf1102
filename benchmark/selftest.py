"""Fast self-test of the benchmark harness (a few seconds).

    python3 benchmark/selftest.py

It runs a small slice of the workloads end to end, traced and untraced, and
shows that the harness counts a wrong or non-repeating result as a failed
operation, and that the command refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import speed
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SLICE = workloads.SUITE[:8] + workloads.PRODUCT[:2]


def check_slice_end_to_end():
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(SLICE, seed=3, seconds=0, trace=trace, setup_repeats=2)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] == len(SLICE) * (2 if trace else 1), result
        names = [m["name"] for m in SPEC[listed]]
        assert sorted(result["metrics"]) == sorted(names), (listed, sorted(result["metrics"]))
        for m in SPEC[listed]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            layers = sum(v for k, v in values.items()
                         if k.endswith("_s") and not k.startswith(("trace.", "games.")))
            assert math.isclose(layers, values["trace.solve_s"], rel_tol=1e-3), (layers, values)


def one_round(bench, doc_games, solve, fingerprints=None):
    return run.solve_round(bench, doc_games, {} if fingerprints is None else fingerprints,
                           traced=False, probe=speed.SpeedProbe(), solve=solve)


def check_corruption_is_a_failure():
    specs = (workloads.GameSpec("nfg", 3, 2, 86), workloads.PRODUCT[0])
    bench = run.set_up(specs, seed=5)
    exactce = bench.exactce
    doc_games = [run.checker.DocumentGame(doc) for doc in bench.documents]
    reports = [exactce.compute_exact_ce(g, c) for g, c in zip(bench.games, bench.configs)]
    by_game = {id(g): r for g, r in zip(bench.games, reports)}
    clean = one_round(bench, doc_games, lambda game, config: by_game[id(game)])
    assert clean.failed == 0 and clean.wrong == 0

    def replaced(atoms=None, mixture=None, epsilon=None, iterations=None):
        def solve(game, config):
            report = by_game[id(game)]
            if report.certificate is not None and atoms is not None:
                report = dataclasses.replace(report, certificate=exactce.SparseCE(atoms=atoms))
            if report.mixture is not None and mixture is not None:
                report = dataclasses.replace(report, mixture=mixture)
            if report.mixture is not None and epsilon is not None:
                report = dataclasses.replace(report, exact_epsilon=epsilon)
            if iterations is not None and report.certificate is not None:
                report = dataclasses.replace(report, iterations=iterations)
            return report
        return solve

    atoms = reports[0].certificate.atoms
    assert len(atoms) >= 2, atoms
    # one probability changed
    bumped = ((atoms[0][0], atoms[0][1] + Fraction(1, 7)),) + atoms[1:]
    assert one_round(bench, doc_games, replaced(atoms=bumped)).wrong == 1
    # half of one atom's mass moved to another: the harness must agree with
    # exactce's own verifier on every such move, and at least one must fail
    flagged = 0
    for i in range(len(atoms)):
        for j in range(len(atoms)):
            if i == j:
                continue
            moved = list(atoms)
            half = atoms[i][1] / 2
            moved[i] = (atoms[i][0], atoms[i][1] - half)
            moved[j] = (atoms[j][0], atoms[j][1] + half)
            reference = exactce.verify_ce(bench.games[0], exactce.SparseCE(atoms=tuple(moved)))
            wrong = one_round(bench, doc_games, replaced(atoms=tuple(moved))).wrong
            assert wrong == (0 if reference.verdict else 1), (i, j, reference)
            flagged += wrong
    assert flagged, "no mass move broke an incentive row"

    mixture = reports[1].mixture
    (w0, x0), *rest = mixture.components
    heavier = dataclasses.replace(mixture, components=((w0 + Fraction(1, 9), x0), *rest))
    assert one_round(bench, doc_games, replaced(mixture=heavier)).wrong == 1
    wrong_eps = reports[1].exact_epsilon + Fraction(1, 1000)
    assert one_round(bench, doc_games, replaced(epsilon=wrong_eps)).wrong == 1

    # a repeat that returns another iteration count fails the determinism check
    fingerprints = {}
    assert one_round(bench, doc_games, replaced(), fingerprints).failed == 0
    later = one_round(bench, doc_games, replaced(iterations=reports[0].iterations + 1), fingerprints)
    assert later.failed == 1 and later.wrong == 1

    def raising(game, config):
        raise exactce.SolverError("injected")
    crashed = one_round(bench, doc_games, raising)
    assert crashed.failed == len(specs) and crashed.wrong == 0


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            SPEC["command"] + ["--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0, done
        assert '"correct"' not in done.stdout, done.stdout


def main() -> int:
    for check in (check_slice_end_to_end, check_corruption_is_a_failure,
                  check_refuses_without_sources):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
