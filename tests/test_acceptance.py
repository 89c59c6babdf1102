"""The acceptance gate: ten numbered criteria on seeded suites.

Every derived quantity is recomputed here from definitions (tests/helpers.py)
rather than trusted from the package, so each criterion is an independent
cross-check. One PASS/FAIL line per criterion is printed by conftest at the
end of the run.
"""

import csv
import decimal
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import mean

import pytest

import conftest
import helpers
from exactce import (
    SolveConfig,
    brute_force_ce,
    cli,
    compute_exact_ce,
    load_game,
    random_game,
    verify_ce,
)
from exactce.ellipsoid import iteration_bound
from exactce.incentives import (
    RowIndex,
    incentive_row_values,
    profile_column,
    row_count,
    row_position,
)
from exactce.oracles import purify, stationary_product
from exactce.solver import support_bound

F = Fraction
ZERO = F(0)


@dataclass(frozen=True)
class SuiteRecord:
    family: str
    players: int
    actions: int
    seed: int
    game: object
    report: object
    wall: float


@pytest.fixture(scope="module")
def suite():
    """100 seeded games (both families, 2-4 players, 2-3 actions, payoffs in
    [0, 10]) solved once in purified practical mode with default settings."""
    records = []
    for family, players, actions, u_max, seed in helpers.suite_specs():
        game = random_game(family, players, actions, u_max=u_max, seed=seed)
        start = time.perf_counter()
        report = compute_exact_ce(game, SolveConfig(seed=seed))
        wall = time.perf_counter() - start
        records.append(SuiteRecord(family, players, actions, seed, game, report, wall))
    return records


PAIR_COMBOS = [
    ("nfg", 2, 2),
    ("polymatrix", 2, 2),
    ("nfg", 2, 3),
    ("polymatrix", 3, 2),
    ("nfg", 3, 2),
    ("polymatrix", 2, 3),
    ("nfg", 3, 3),
    ("polymatrix", 3, 3),
]


@pytest.fixture(scope="module")
def pairs():
    """1000 seeded (game, dual vector, stationary product) triples."""
    out = []
    for index in range(1000):
        family, players, actions = PAIR_COMBOS[index % len(PAIR_COMBOS)]
        game = random_game(family, players, actions, u_max=10, seed=index)
        rng = random.Random(9973 * index + 1)
        y = helpers.random_nonneg_dual(rng, row_count(game))
        out.append((game, y, stationary_product(game, y)))
    return out


def test_criterion_01_exact_soundness(suite):
    assert len(suite) == 100
    for rec in suite:
        ce = rec.report.certificate
        assert ce.distribution_problems() == []
        assert verify_ce(rec.game, ce).verdict
        # definitional recount: every incentive row nonnegative in exact
        # rational arithmetic, payoffs re-read by independent indexing
        for row in helpers.all_rows(rec.game):
            total = sum(
                (prob * helpers.row_value_at(rec.game, row, profile)
                 for profile, prob in ce.atoms),
                ZERO,
            )
            assert total >= 0
        assert rec.report.exact_epsilon == 0
        assert rec.wall < 10.0, f"seed {rec.seed} took {rec.wall:.1f}s"


def test_criterion_02_support_bound(suite):
    for rec in suite:
        bound = support_bound(rec.game)
        assert rec.report.certificate.support <= bound
        if rec.game.actions == (2, 2, 2):
            assert bound == 7
    assert any(rec.game.actions == (2, 2, 2) for rec in suite)


def test_criterion_03_purified_rounding_soundness(pairs):
    for game, y, x in pairs:
        profile = purify(game, y, x)
        # final pure profile clears the dual: column(s) . y >= 0, recomputed
        # from raw payoff differences
        final = sum(
            (y[pos] * helpers.row_value_at(game, row, profile)
             for pos, row in enumerate(helpers.all_rows(game))),
            ZERO,
        )
        assert final >= 0
        # intermediates: players are fixed in ascending order, so the chain
        # of partially conditioned distributions is reconstructible
        strategies = [list(block) for block in x.strategies]
        assert helpers.dual_objective(game, strategies, y) >= 0
        for player, action in enumerate(profile):
            strategies[player] = [ZERO] * game.actions[player]
            strategies[player][action] = F(1)
            assert helpers.dual_objective(game, strategies, y) >= 0


def test_criterion_04_stationarity(pairs):
    for game, y, x in pairs:
        # the product zeroes the whole dual objective
        strategies = [list(block) for block in x.strategies]
        assert helpers.dual_objective(game, strategies, y) == 0
        # and satisfies every per-player balance equation exactly
        for p in range(game.players):
            m = game.actions[p]

            def rate(i, j, p=p):
                return y[row_position(game, RowIndex(p, i, j))]

            for j in range(m):
                inflow = sum(
                    (rate(i, j) * x.strategies[p][i] for i in range(m) if i != j),
                    ZERO,
                )
                outflow = x.strategies[p][j] * sum(
                    (rate(j, k) for k in range(m) if k != j), ZERO)
                assert inflow == outflow


def test_criterion_05_brute_force_equivalence(suite):
    checked = 0
    for rec in suite:
        if rec.game.num_profiles > 64:
            continue
        checked += 1
        matrix = helpers.materialize_matrix(rec.game)
        profiles = list(helpers.enum_profiles(rec.game.actions))
        n = row_count(rec.game)
        for idx, s in enumerate(profiles):
            dense = list(profile_column(rec.game, s).dense())
            assert dense == [matrix[r][idx] for r in range(n)]
        rng = random.Random(rec.seed + 777)
        for _ in range(2):
            x = helpers.random_product(rng, rec.game.actions)
            values = incentive_row_values(rec.game, x).fractions()
            probs = [helpers.product_probability(x.strategies, s) for s in profiles]
            expected = [
                sum((p * v for p, v in zip(probs, matrix[r])), ZERO)
                for r in range(n)
            ]
            assert values == expected
        ce = brute_force_ce(rec.game)
        assert verify_ce(rec.game, ce).verdict
    assert checked >= 80  # only the 4-player 3-action games exceed 64 profiles


def test_criterion_06_volume_contraction(suite):
    updates = 0
    for rec in suite:
        n = row_count(rec.game)
        floor = 1.0 / (5 * n) - 2.0 ** (-rec.report.precision_bits / 2)
        for entry in rec.report.transcript.entries:
            if entry.log_volume_drop is None:
                continue  # terminal entry logged without an update
            updates += 1
            assert entry.log_volume_drop >= floor
    assert updates > 100  # the suite genuinely exercises the update path


def _bound_by_decimal(n: int, u: int) -> int:
    """ceil(5n(5n^4 + 7n^5) ln u) at two precisions; both must agree."""
    results = set()
    for digits in (60, 120):
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            value = decimal.Decimal(5 * n * (5 * n**4 + 7 * n**5)) * decimal.Decimal(u).ln()
            results.add(int(value.to_integral_value(rounding=decimal.ROUND_CEILING)))
    assert len(results) == 1
    return results.pop()


def test_criterion_07_iteration_bound():
    points = [
        (1, 2), (1, 10), (2, 2), (2, 3), (2, 10),
        (3, 2), (3, 7), (4, 10), (5, 5), (6, 2),
        (8, 10), (10, 3), (12, 12), (16, 10), (20, 2),
        (25, 100), (32, 10), (50, 50), (64, 2), (100, 10),
    ]
    assert len(points) == 20
    for n, u in points:
        assert iteration_bound(n, u) == _bound_by_decimal(n, u)
    # full certified-parameter runs are only tractable on tiny row spaces;
    # exercise the theoretical path end to end where the row count is <= 2
    two = load_game({"type": "nfg", "players": 2, "actions": [1, 1],
                     "payoffs": [[4], [9]]})
    report = compute_exact_ce(two, SolveConfig(mode="theoretical"))
    assert report.verified
    assert report.iterations <= iteration_bound(row_count(two), two.payoff_ceiling())
    one = load_game({"type": "nfg", "players": 1, "actions": [1], "payoffs": [[3]]})
    report = compute_exact_ce(one, SolveConfig(mode="theoretical"))
    assert report.verified
    assert report.certificate.atoms == (((0,), F(1)),)


def test_criterion_08_cut_pedigree(suite):
    for rec in suite:
        matrix = helpers.materialize_matrix(rec.game)
        index_of = {
            s: i for i, s in enumerate(helpers.enum_profiles(rec.game.actions))
        }
        n = row_count(rec.game)
        for entry in rec.report.transcript.entries:
            cut = entry.cut
            normal = cut.normal()
            if cut.kind == "profile":
                column = [F(matrix[r][index_of[cut.profile]]) for r in range(n)]
                assert normal == column
                assert cut.rhs == F(-1)
            elif cut.kind == "nonneg":
                expected = [ZERO] * n
                expected[cut.position] = F(-1)
                assert normal == expected
                assert cut.rhs == ZERO
            else:
                pytest.fail(f"cut kind {cut.kind!r} is not a dual constraint row")


def test_criterion_09_determinism(suite):
    for rec in suite[::5]:  # 20 of the 100 games
        again = compute_exact_ce(rec.game, SolveConfig(seed=rec.seed))
        assert again.certificate == rec.report.certificate
        assert again.iterations == rec.report.iterations
        assert again.transcript.to_jsonl() == rec.report.transcript.to_jsonl()


def _product_caps(n_rows: int) -> tuple[int, int]:
    """Iteration cap and probe stride scaled to the row space, so the capped
    contrast pass stays inside the time budget on the larger games."""
    if n_rows <= 12:
        return 60, 3
    if n_rows <= 20:
        return 48, 4
    if n_rows <= 30:
        return 32, 6
    return 24, 8


@pytest.fixture(scope="module")
def product_runs(suite):
    runs = []
    for rec in suite:
        iters, stride = _product_caps(row_count(rec.game))
        config = SolveConfig(oracle="product", max_iters=iters,
                             probe_stride=stride, precision_bits=96,
                             seed=rec.seed)
        runs.append(compute_exact_ce(rec.game, config))
    return runs


def test_criterion_10_product_contrast(suite, product_runs, tmp_workdir):
    rows = []
    for rec, prun in zip(suite, product_runs):
        assert isinstance(prun.exact_epsilon, F)
        assert prun.exact_epsilon >= 0
        assert prun.mixture is not None
        assert prun.verified == (prun.exact_epsilon == 0)
        assert rec.report.exact_epsilon == 0
        rows.append(cli.bench_row(rec.report, rec.game, rec.seed))
        rows.append(cli.bench_row(prun, rec.game, rec.seed))

    csv_path = tmp_workdir / "acceptance_bench.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        cli.write_bench_csv(handle, rows)
    with open(csv_path, encoding="utf-8", newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == 200
    assert list(parsed[0]) == cli.BENCH_COLUMNS
    assert {row["oracle"] for row in parsed} == {"purified", "product"}
    for row in parsed:
        if row["oracle"] == "purified":
            assert row["exact_epsilon"] == "0"
        else:
            assert F(row["exact_epsilon"]) >= 0

    # directional comparison: reported, not asserted
    purified_mean = mean(rec.report.iterations for rec in suite)
    product_mean = mean(run.iterations for run in product_runs)
    exact_hits = sum(1 for run in product_runs if run.exact_epsilon == 0)
    conftest.REPORT_LINES.append(
        f"product contrast: purified mean iterations {purified_mean:.1f}; "
        f"product mean iterations {product_mean:.1f} under scaled caps; "
        f"{exact_hits}/100 product runs reached epsilon 0; csv: {csv_path}"
    )
