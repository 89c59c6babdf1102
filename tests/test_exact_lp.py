"""Exact simplex, stationary distributions, cut LPs, mixture programs."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from exactce import (
    SolveConfig,
    compute_exact_ce,
    load_game,
    random_game,
    verify_ce,
)
from exactce import exact_lp
from exactce.exact_lp import (
    CutLP,
    min_violation_mixture,
    mixture_feasible,
    solve_standard_form,
    stationary_distribution,
    try_feasible_bfs,
)
from exactce.incentives import profile_column

F = Fraction


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


class TestSolveStandardForm:
    def test_simple_feasible(self):
        status, x = solve_standard_form(frac_rows([[1, 1]]), [F(1)])
        assert status == "optimal"
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_infeasible_pair(self):
        rows = frac_rows([[1, 1], [1, 1]])
        status, x = solve_standard_form(rows, [F(1), F(3)])
        assert status == "infeasible" and x is None

    def test_zero_row_infeasible(self):
        status, x = solve_standard_form(frac_rows([[0, 0]]), [F(1)])
        assert status == "infeasible" and x is None

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0 lets both grow without bound
        status, x = solve_standard_form(
            frac_rows([[1, -1]]), [F(0)], objective=[F(-1), F(0)])
        assert status == "unbounded" and x is None

    def test_known_optimum(self):
        # min x1 + x2 with x1 + 2 x2 = 4: vertex (0, 2) wins with value 2
        status, x = solve_standard_form(
            frac_rows([[1, 2]]), [F(4)], objective=[F(1), F(1)])
        assert status == "optimal"
        assert x == [F(0), F(2)]

    def test_negative_rhs_normalized(self):
        status, x = solve_standard_form(frac_rows([[-1, -1]]), [F(-1)])
        assert status == "optimal"
        assert sum(x) == 1

    def test_redundant_rows_survive(self):
        rows = frac_rows([[1, 1], [1, 1], [2, 2]])
        status, x = solve_standard_form(rows, [F(1), F(1), F(2)])
        assert status == "optimal"
        assert sum(x) == 1

    def test_beale_degenerate_lp_terminates(self):
        # the classic cycling instance; Bland's rule must reach the optimum
        rows = frac_rows([
            [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
            [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ])
        rhs = [F(0), F(0), F(1)]
        objective = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
        status, x = solve_standard_form(rows, rhs, objective)
        assert status == "optimal"
        value = sum(F(c) * v for c, v in zip(objective, x))
        ref_status, ref_value = helpers.lp_optimum_by_enumeration(rows, rhs, objective)
        assert ref_status == "optimal"
        assert value == ref_value == F(-1, 20)

    def test_random_feasible_systems(self):
        rng = random.Random(23)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(3, 6)
            rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            x0 = [F(rng.randint(0, 3)) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
            status, x = solve_standard_form(rows, rhs)
            assert status == "optimal"
            assert all(v >= 0 for v in x)
            for row, b in zip(rows, rhs):
                assert sum(r * v for r, v in zip(row, x)) == b

    def test_solutions_are_vertices(self):
        rng = random.Random(29)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(3, 6)
            rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            x0 = [F(rng.randint(0, 3)) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
            status, x = solve_standard_form(rows, rhs)
            assert status == "optimal"
            support = [j for j in range(n) if x[j] > 0]
            if support:
                columns = [[rows[i][j] for j in support] for i in range(m)]
                # vertex: the support columns are linearly independent
                transposed = list(map(list, zip(*columns)))
                assert helpers.rational_rank(transposed) == len(support)

    def test_optimum_matches_enumeration(self):
        rng = random.Random(31)
        done = 0
        while done < 15:
            m, n = rng.randint(1, 2), rng.randint(3, 5)
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            if helpers.rational_rank(rows) < m:
                continue
            x0 = [F(rng.randint(0, 2)) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
            objective = [F(rng.randint(-3, 3)) for _ in range(n)]
            ref_status, ref_value = helpers.lp_optimum_by_enumeration(
                rows, rhs, objective)
            status, x = solve_standard_form(rows, rhs, objective)
            assert status == ref_status
            if status == "optimal":
                assert sum(c * v for c, v in zip(objective, x)) == ref_value
            done += 1


BEALE = (
    [[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
     [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
     [0, 0, 1, 0, 0, 0, 1]],
    [0, 0, 1],
    [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0],
)


@st.composite
def standard_programs(draw):
    """(rows, rhs, objective, budget) for solve_standard_form.

    Integer or rational entries; rows that repeat a combination of earlier
    ones; a right-hand side either made from a nonnegative point with zero
    entries (feasible and often degenerate) or drawn freely (negative
    entries, often infeasible); an objective or none; and a pivot budget
    that is either the package's or so small that Bland's rule takes over.
    """
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    else:
        entry = st.integers(-4, 4)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(-2, 2))
        rows.append([a + c * b for a, b in zip(rows[i], rows[k])])
    if draw(st.booleans()):
        point = [draw(st.integers(0, 2)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, point)) for row in rows]
    else:
        rhs = [draw(st.just(0) | entry) for _ in rows]
    objective = draw(st.none() | st.lists(entry, min_size=n, max_size=n))
    budget = draw(st.sampled_from([None, 0, 1, 3]))
    return rows, rhs, objective, budget


class TestAgainstReference:
    """The integer core takes the reference Fraction simplex's pivots, so its
    (status, x) is identical, vertex for vertex, on every program."""

    @settings(max_examples=400, deadline=None)
    @given(standard_programs())
    @example((*BEALE, None))
    @example((*BEALE, 0))
    @example(([[1, 1], [1, 1], [2, 2]], [F(1, 2), F(1, 2), 1], None, None))
    @example(([[-1, F(-1, 3)]], [-1], [F(1, 2), 1], 1))
    # a zero-level artificial leaves by a negative pivot before phase 2
    @example(([[-2, 3, -1], [-2, -2, 0]], [-3, 0], [-4, 0, 4], None))
    # two zero ratios tie; the smaller basis index must leave
    @example(([[2, -2, -4, -2, -1, -3], [3, 1, 1, -2, -3, 3], [3, 3, -2, -3, -3, 1]],
              [-3, 0, 0], None, 1))
    def test_identical_status_and_vertex(self, program):
        rows, rhs, objective, budget = program
        if budget is None:
            expected = helpers.reference_solve_standard_form(rows, rhs, objective)
            got = solve_standard_form(rows, rhs, objective)
        else:
            def small(m, n):
                return budget
            expected = helpers.reference_solve_standard_form(
                rows, rhs, objective, budget=small)
            with mock.patch.object(exact_lp, "_pivot_budget", small):
                got = solve_standard_form(rows, rhs, objective)
        assert got == expected
        assert got[1] is None or all(type(v) is F for v in got[1])


class TestStationaryDistribution:
    def test_single_state(self):
        assert stationary_distribution([[F(0)]]) == (F(1),)

    def test_two_state_closed_form(self):
        r1, r2 = F(3), F(5)
        x = stationary_distribution([[F(0), r1], [r2, F(0)]])
        assert x == (r2 / (r1 + r2), r1 / (r1 + r2))

    def test_symmetric_swap_is_uniform(self):
        x = stationary_distribution([[F(0), F(1)], [F(1), F(0)]])
        assert x == (F(1, 2), F(1, 2))

    def test_one_way_chain_drains(self):
        x = stationary_distribution([[F(0), F(1)], [F(0), F(0)]])
        assert x == (F(0), F(1))

    def test_three_cycle_uniform(self):
        rates = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]]
        assert stationary_distribution(rates) == (F(1, 3),) * 3

    def test_zero_rates_still_distribution(self):
        x = stationary_distribution([[F(0), F(0)], [F(0), F(0)]])
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_balance_property(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(2, 5)
            rates = [[F(0) if i == j else F(rng.randint(0, 6), rng.randint(1, 4))
                      for j in range(m)] for i in range(m)]
            x = stationary_distribution(rates)
            assert sum(x) == 1 and all(v >= 0 for v in x)
            for j in range(m):
                inflow = sum(x[i] * rates[i][j] for i in range(m) if i != j)
                outflow = x[j] * sum(rates[j][k] for k in range(m) if k != j)
                assert inflow == outflow

    def test_deterministic(self):
        rates = [[F(0), F(1), F(2)], [F(0), F(0), F(0)], [F(0), F(3), F(0)]]
        assert stationary_distribution(rates) == stationary_distribution(rates)


class TestCutLP:
    def dominant_game(self):
        return load_game({
            "type": "nfg", "players": 2, "actions": [2, 2],
            "payoffs": [[1, 5, 0, 3], [1, 0, 5, 3]],
        })

    def test_single_equilibrium_column_feasible(self):
        g = self.dominant_game()
        lp = CutLP(columns=(profile_column(g, (0, 0)),))
        ce = try_feasible_bfs(lp)
        assert ce is not None
        assert ce.atoms == (((0, 0), F(1)),)
        assert verify_ce(g, ce).verdict

    def test_dominated_column_infeasible(self):
        g = self.dominant_game()
        # the column of (1, 1) has strictly negative deviation rows, so no
        # distribution over it alone can clear them
        lp = CutLP(columns=(profile_column(g, (1, 1)),))
        assert try_feasible_bfs(lp) is None

    def test_mixed_columns_still_pick_good_vertex(self):
        g = self.dominant_game()
        lp = CutLP(columns=tuple(profile_column(g, s) for s in [(1, 1), (0, 1), (0, 0)]))
        ce = try_feasible_bfs(lp)
        assert ce is not None
        assert verify_ce(g, ce).verdict

    def test_all_columns_feasible_for_any_game(self):
        for family in ("nfg", "polymatrix"):
            g = random_game(family, 2, 3, u_max=9, seed=13)
            lp = CutLP(columns=tuple(profile_column(g, s) for s in g.profiles()))
            ce = try_feasible_bfs(lp)
            assert ce is not None
            assert verify_ce(g, ce).verdict


@st.composite
def column_batches(draw):
    """Batches of dense columns, each batch followed by one verdict.

    Small-int entries, sometimes rational; some rows zero in every column;
    repeats of earlier columns; all-zero columns; batches of several columns,
    as a probe stride above 1 gives.
    """
    if draw(st.booleans()):
        entry = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    else:
        entry = st.integers(-3, 3)
    n_rows = draw(st.integers(1, 6))
    live = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    batches, seen = [], []
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "repeat", "zero"]))
            if kind == "repeat" and seen:
                column = draw(st.sampled_from(seen))
            elif kind == "zero":
                column = [0] * n_rows
            else:
                column = [draw(entry) if on else 0 for on in live]
            seen.append(column)
            batch.append(column)
        batches.append(batch)
    return batches


class TestFeasibilityVerdict:
    """The incremental phase-1 verdict agrees with the cold mixture program."""

    @settings(max_examples=300, deadline=None)
    @given(column_batches())
    @example([[[-1, 0]], [[1, -1]], [[0, 1]]])  # infeasible, then mixed to feasible
    @example([[[1, -1], [-1, 1]]])  # a batch feasible only as a pair
    def test_matches_mixture_feasible(self, batches):
        verdict = exact_lp.FeasibilityVerdict()
        columns = []
        assert verdict.feasible() is False
        for batch in batches:
            for column in batch:
                verdict.add(column)
            columns += batch
            assert verdict.added == len(columns)
            assert verdict.feasible() == (mixture_feasible(columns) is not None)


    @pytest.mark.parametrize("family, players, actions, seed, max_iters, stride", [
        ("nfg", 3, 2, 3, 200, 1),  # its last column makes the roster feasible
        ("nfg", 2, 3, 1, 60, 3),  # criterion 10's caps; never feasible
        ("polymatrix", 3, 2, 2, 60, 3),
    ], ids=["nfg-3x2-3", "nfg-2x3-1", "polymatrix-3x2-2"])
    def test_matches_mixture_feasible_on_product_columns(self, family, players, actions,
                                                         seed, max_iters, stride):
        # product cuts are dense, and their denominators run to hundreds of
        # bits and differ entry by entry
        g = random_game(family, players, actions, u_max=10, seed=seed)
        config = SolveConfig(oracle="product", max_iters=max_iters, probe_stride=stride,
                             precision_bits=96)
        roster = [cut.values for cut in compute_exact_ce(g, config).transcript.roster]
        assert max(v.denominator.bit_length() for column in roster for v in column) > 200
        orders = [roster, roster[::-1]]
        alpha = mixture_feasible(roster)
        if alpha is not None:
            # the mixture's support first: feasible early, then more columns
            orders.append([c for c, w in zip(roster, alpha) if w]
                          + [c for c, w in zip(roster, alpha) if not w])
        for order in orders:
            verdict = exact_lp.FeasibilityVerdict()
            for k, column in enumerate(order, 1):
                verdict.add(column)
                assert verdict.feasible() == (mixture_feasible(order[:k]) is not None)


def min_violation(columns):
    """min_violation_mixture on rational columns, each split as a product
    cut holds it: a coprime integer direction times a positive unit (the
    zero column is the zero direction with unit 1)."""
    directions, units = [], []
    for column in columns:
        scale = math.lcm(*(F(v).denominator for v in column))
        ints = [int(F(v) * scale) for v in column]
        common = math.gcd(*ints) or scale  # a zero column's scale is 1
        directions.append([v // common for v in ints])
        units.append(F(common, scale))
    return min_violation_mixture(directions, units)


class TestMixtures:
    def test_feasible_mixture(self):
        alpha = mixture_feasible([[F(1)], [F(-1)]])
        assert alpha is not None
        assert sum(alpha) == 1
        assert alpha[0] * 1 + alpha[1] * -1 >= 0

    def test_infeasible_mixture(self):
        assert mixture_feasible([[F(-1)], [F(-2)]]) is None

    def test_empty(self):
        assert mixture_feasible([]) is None

    def test_min_violation_zero_when_feasible(self):
        t, alpha = min_violation([[F(1)], [F(-1)]])
        assert t == 0
        assert sum(alpha) == 1

    def test_min_violation_exact_positive(self):
        t, alpha = min_violation([[F(-2)], [F(-1)]])
        assert t == 1
        assert alpha == [F(0), F(1)]

    def test_min_violation_mixes_columns(self):
        # columns (-1, 1) and (1, -1): the even mixture hits zero shortfall
        t, alpha = min_violation([[F(-1), F(1)], [F(1), F(-1)]])
        assert t == 0
        assert alpha == [F(1, 2), F(1, 2)]


def assert_optimal_vertex(columns, t, alpha):
    """alpha is a distribution whose worst shortfall is t, and (alpha, t,
    surpluses) is a vertex of {sum alpha col + t - s = 0, sum alpha = 1}:
    its positive entries have linearly independent columns."""
    expected_t, _ = helpers.reference_min_violation_mixture(columns)
    assert t == expected_t
    assert all(type(v) is F and v >= 0 for v in [t, *alpha])
    assert sum(alpha) == 1
    kept = [r for r in range(len(columns[0])) if any(col[r] for col in columns)]
    levels = [sum((a * col[r] for a, col in zip(alpha, columns)), F(0)) for r in kept]
    assert max([F(0), *(-v for v in levels)]) == t
    support = [[*(col[r] for r in kept), 1] for col, a in zip(columns, alpha) if a]
    if t:
        support.append([1] * len(kept) + [0])
    for i, level in enumerate(levels):
        if level + t:
            support.append([-1 if k == i else 0 for k in range(len(kept))] + [0])
    assert helpers.rational_rank(support) == len(support)


class TestMinViolationMixture:
    """The phase-2-only program against the two-phase reference formulation."""

    def test_random_columns_match_reference(self):
        rng = random.Random(41)
        for _ in range(150):
            n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 7)
            live = [rng.random() < 0.8 for _ in range(n_rows)]
            columns = []
            for _ in range(n_cols):
                if columns and rng.random() < 0.2:
                    columns.append(list(rng.choice(columns)))
                else:
                    columns.append([F(rng.randint(-6, 6), rng.randint(1, 6)) if on else F(0)
                                    for on in live])
            t, alpha = min_violation(columns)
            assert_optimal_vertex(columns, t, alpha)

    @pytest.mark.parametrize("family, players, actions, seed, max_iters, stride", [
        ("nfg", 2, 2, 0, 60, 3),
        ("nfg", 2, 3, 1, 48, 4),
        ("polymatrix", 2, 3, 7, 48, 4),
        ("polymatrix", 3, 2, 8, 60, 3),
    ], ids=["nfg-2x2-0", "nfg-2x3-1", "polymatrix-2x3-7", "polymatrix-3x2-8"])
    def test_identical_to_reference_on_product_columns(self, family, players, actions,
                                                       seed, max_iters, stride):
        # suite games under criterion 10's caps, where every probe fails and
        # the optimal mixture is unique, so any optimal vertex is the reference's
        g = random_game(family, players, actions, u_max=10, seed=seed)
        config = SolveConfig(oracle="product", max_iters=max_iters, probe_stride=stride,
                             precision_bits=96)
        roster = compute_exact_ce(g, config).transcript.roster
        t, alpha = min_violation_mixture([cut.direction for cut in roster],
                                         [cut.unit for cut in roster])
        assert t > 0 and sum(1 for a in alpha if a) >= 2
        values = [cut.values for cut in roster]
        assert (t, alpha) == helpers.reference_min_violation_mixture(values)

    def test_one_column(self):
        assert min_violation([[F(-3), F(1, 2), F(-5, 2)]]) == (F(3), [F(1)])

    def test_all_zero_columns(self):
        # no row is kept: the program is the sum row alone
        assert min_violation([[0, 0], [0, 0], [0, 0]]) == (F(0), [F(1), F(0), F(0)])

    def test_nonnegative_column_needs_no_t(self):
        columns = [[F(-1), F(2)], [F(1, 3), F(0)], [F(1), F(1)]]
        t, alpha = min_violation(columns)
        assert t == 0
        assert_optimal_vertex(columns, t, alpha)
        # the first column with no shortfall, kept as it is
        assert alpha == [F(0), F(1), F(0)]

    def test_duplicated_columns(self):
        # (-1, 1) and (1, -1) mix evenly to zero shortfall; a vertex puts
        # each half on one copy of its column
        columns = [[F(-1), F(1)], [F(1), F(-1)], [F(-1), F(1)], [F(1), F(-1)]]
        t, alpha = min_violation(columns)
        assert_optimal_vertex(columns, t, alpha)
        assert t == 0
        assert (alpha[0] + alpha[2], alpha[1] + alpha[3]) == (F(1, 2), F(1, 2))
