"""Exact simplex, stationary distributions, cut LPs, mixture programs."""

import math
import random
from fractions import Fraction
from operator import mul
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


def solve(rows, rhs):
    """solve_standard_form on a rational program, split into integer columns."""
    return solve_standard_form(*helpers.split_program(rows, rhs))


class TestSolveStandardForm:
    def test_simple_feasible(self):
        x = solve_standard_form([[1, 1]], [1], [1, 1])
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_infeasible_pair(self):
        assert solve_standard_form([[1, 1], [1, 1]], [1, 3], [1, 1]) is None

    def test_zero_row_infeasible(self):
        assert solve_standard_form([[0, 0]], [1], [1, 1]) is None

    def test_column_scale_divides_the_column(self):
        # x1 / 3 + x2 / 2 = 1: x2's reduced cost -1/2 beats x1's -1/3, so x2
        # enters, at 2, not 1
        assert solve_standard_form([[1, 1]], [1], [3, 2]) == [F(0), F(2)]
        # with x1 / 3 = x2 / 2 too, the one solution is (3/2, 1)
        assert solve_standard_form([[1, 1], [1, -1]], [1, 0], [3, 2]) == [F(3, 2), F(1)]

    def test_negative_rhs_normalized(self):
        x = solve_standard_form([[-1, -1]], [-1], [1, 1])
        assert sum(x) == 1

    def test_redundant_rows_survive(self):
        x = solve_standard_form([[1, 1], [1, 1], [2, 2]], [1, 1, 2], [1, 1])
        assert sum(x) == 1

    @pytest.mark.parametrize("rows, rhs", [
        ([[1, 1], [1, 1], [2, 2]], [1, 1, 2]),
        ([[-2, 3, -1], [-2, -2, 0]], [-3, 0]),
    ])
    def test_zero_level_artificial_stays_basic(self, rows, rhs):
        # the solve returns its vertex without driving the artificial out;
        # the reference drives it out and reads the same x
        simplex = exact_lp._simplex
        bases = []

        def recording(tab, *args):
            simplex(tab, *args)
            bases.append(list(tab.basis))

        with mock.patch.object(exact_lp, "_simplex", recording):
            got = solve(rows, rhs)
        assert len(bases) == 1 and max(bases[0]) >= len(rows[0])
        assert got == helpers.reference_solve_standard_form(rows, rhs)[1]

    def test_column_bounding_no_row_raises(self):
        # phase 1 and MinViolation are bounded below, so the ratio test always
        # finds a row; an entering column with no positive entry is refused
        tab = exact_lp._Tableau(rows=[[-1, 0]], basis=[1])
        with pytest.raises(RuntimeError, match="unbounded"):
            exact_lp._simplex(tab, [1], lambda: [-1],
                              lambda j: [row[j] for row in tab.rows], None)

    def test_random_feasible_systems(self):
        rng = random.Random(23)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(3, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(0, 3) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
            x = solve_standard_form(rows, rhs, [1] * n)
            assert all(v >= 0 for v in x)
            for row, b in zip(rows, rhs):
                assert sum(r * v for r, v in zip(row, x)) == b

    def test_solutions_are_vertices(self):
        rng = random.Random(29)
        for _ in range(25):
            m, n = rng.randint(1, 3), rng.randint(3, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(0, 3) for _ in range(n)]
            rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
            x = solve_standard_form(rows, rhs, [1] * n)
            support = [j for j in range(n) if x[j] > 0]
            if support:
                columns = [[F(rows[i][j]) for j in support] for i in range(m)]
                # vertex: the support columns are linearly independent
                transposed = list(map(list, zip(*columns)))
                assert helpers.rational_rank(transposed) == len(support)


# Beale's cycling instance, as a feasibility program
BEALE = (
    [[F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
     [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
     [0, 0, 1, 0, 0, 0, 1]],
    [0, 0, 1],
)


@st.composite
def standard_programs(draw):
    """(rows, rhs, budget) for solve_standard_form.

    Integer or rational entries; rows that repeat a combination of earlier
    ones; a right-hand side either made from a nonnegative point with zero
    entries (feasible and often degenerate) or drawn freely (negative
    entries, often infeasible); and a pivot budget that is either the
    package's or so small that Bland's rule takes over.
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
    budget = draw(st.sampled_from([None, 0, 1, 3]))
    return rows, rhs, budget


class TestAgainstReference:
    """The integer core takes the reference Fraction simplex's phase-1 pivots,
    so its vertex is identical on every program, and it is None exactly
    where the reference finds the program infeasible."""

    @settings(max_examples=400, deadline=None)
    @given(standard_programs())
    @example((*BEALE, None))
    @example((*BEALE, 0))
    @example(([[1, 1], [1, 1], [2, 2]], [F(1, 2), F(1, 2), 1], None))
    @example(([[-1, F(-1, 3)]], [-1], 1))
    # a zero-level artificial stays basic; the reference drives it out by a
    # negative pivot
    @example(([[-2, 3, -1], [-2, -2, 0]], [-3, 0], None))
    # two zero ratios tie; the smaller basis index must leave
    @example(([[2, -2, -4, -2, -1, -3], [3, 1, 1, -2, -3, 3], [3, 3, -2, -3, -3, 1]],
              [-3, 0, 0], 1))
    def test_identical_status_and_vertex(self, program):
        rows, rhs, budget = program
        int_rows, int_rhs, scale = helpers.split_program(rows, rhs)
        # any positive column scale states the same program: stretch some
        stretch = [j % 3 + 1 for j in range(len(scale))]
        stretched = [[v * f for v, f in zip(row, stretch)] for row in int_rows]
        stretched_scale = [s * f for s, f in zip(scale, stretch)]
        if budget is None:
            status, expected = helpers.reference_solve_standard_form(rows, rhs)
            got = solve_standard_form(int_rows, int_rhs, scale)
            again = solve_standard_form(stretched, int_rhs, stretched_scale)
        else:
            def small(m, n):
                return budget
            status, expected = helpers.reference_solve_standard_form(rows, rhs, budget=small)
            with mock.patch.object(exact_lp, "_pivot_budget", small):
                got = solve_standard_form(int_rows, int_rhs, scale)
                again = solve_standard_form(stretched, int_rhs, stretched_scale)
        assert got == again == expected
        assert (got is None) == (status == "infeasible")
        assert got is None or all(type(v) is F for v in got)


class TestStationaryDistribution:
    def test_single_state(self):
        assert stationary_distribution([[0]], 1) == (F(1),)

    def test_two_state_closed_form(self):
        r1, r2 = 3, 5
        x = stationary_distribution([[0, r1], [r2, 0]], 7)
        assert x == (F(r2, r1 + r2), F(r1, r1 + r2))

    def test_symmetric_swap_is_uniform(self):
        x = stationary_distribution([[0, 1], [1, 0]], 1)
        assert x == (F(1, 2), F(1, 2))

    def test_one_way_chain_drains(self):
        x = stationary_distribution([[0, 1], [0, 0]], 1)
        assert x == (F(0), F(1))

    def test_three_cycle_uniform(self):
        rates = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert stationary_distribution(rates, 2) == (F(1, 3),) * 3

    def test_zero_rates_still_distribution(self):
        x = stationary_distribution([[0, 0], [0, 0]], 1)
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_balance_property(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(2, 5)
            rates = [[F(0) if i == j else F(rng.randint(0, 6), rng.randint(1, 4))
                      for j in range(m)] for i in range(m)]
            denominator = math.lcm(*(r.denominator for row in rates for r in row))
            x = stationary_distribution(
                [[int(r * denominator) for r in row] for row in rates], denominator)
            assert sum(x) == 1 and all(v >= 0 for v in x)
            for j in range(m):
                inflow = sum(x[i] * rates[i][j] for i in range(m) if i != j)
                outflow = x[j] * sum(rates[j][k] for k in range(m) if k != j)
                assert inflow == outflow

    def test_deterministic(self):
        rates = [[0, 1, 2], [0, 0, 0], [0, 3, 0]]
        assert stationary_distribution(rates, 5) == stationary_distribution(rates, 5)


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


@st.composite
def split_columns(draw):
    """(directions, units) for mixture_feasible: small integer directions,
    some all zero, with rows that every direction leaves zero, and units
    that are the integer 1 or positive rationals up to 40 bits."""
    n_rows = draw(st.integers(1, 5))
    live = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    unit = st.one_of(st.just(1), st.builds(F, st.integers(1, 2**40), st.integers(1, 2**40)))
    directions, units = [], []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)):
            directions.append([draw(st.integers(-5, 5)) if on else 0 for on in live])
        else:
            directions.append([0] * n_rows)
        units.append(draw(unit))
    return directions, units


split = helpers.split_column


def min_violation(columns):
    """min_violation_mixture on rational columns, each split as a product cut holds it."""
    directions, units = zip(*map(split, columns))
    return min_violation_mixture(directions, units)


def mixture(columns):
    """mixture_feasible on rational columns, each split as a product cut holds it."""
    directions, units = zip(*map(split, columns))
    return mixture_feasible(directions, units)


def assert_same_as_tableau(batches):
    """MinViolation against the full-tableau reference on batches of
    (direction, unit) columns, once with the units and once with every unit
    1: after each batch the same verdict on the same basis, at the end the
    same (t, alpha) vertex."""
    for unit_free in (False, True):
        program, reference = exact_lp.MinViolation(), helpers.TableauMinViolation()
        for batch in batches:
            for direction, unit in batch:
                program.add(direction, 1 if unit_free else unit)
                reference.add(direction, 1 if unit_free else unit)
            assert program.feasible() == reference.feasible()
            assert (program._tab.basis, program._tab.det) == (reference._tab.basis,
                                                              reference._tab.det)
        assert program.mixture() == reference.mixture()


class TestMinViolation:
    """The incremental min-violation program agrees with the cold programs,
    and with the full-tableau program pivot for pivot."""

    @settings(max_examples=300, deadline=None)
    @given(column_batches())
    @example([[[-1, 0]], [[1, -1]], [[0, 1]]])  # infeasible, then mixed to feasible
    @example([[[1, -1], [-1, 1]]])  # a batch feasible only as a pair
    @example([[[F(-1, 2), F(3, 4)], [F(2, 3), F(-1, 3)]], [[F(-1, 3), 0]]])
    def test_matches_mixture_feasible(self, batches):
        program, unit_free = exact_lp.MinViolation(), exact_lp.MinViolation()
        columns = []
        assert program.feasible() is False
        for batch in batches:
            for column in batch:
                direction, unit = split(column)
                program.add(direction, unit)
                unit_free.add(direction)
            columns += batch
            assert program.added == len(columns)
            feasible = program.feasible()
            assert feasible == (mixture(columns) is not None)
            assert unit_free.feasible() == feasible
            expected_t, _ = helpers.reference_min_violation_mixture(columns)
            assert program.mixture()[0] == expected_t
        assert_same_as_tableau([[split(column) for column in batch] for batch in batches])

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
        roster = [helpers.unit_values(cut)
                  for cut in compute_exact_ce(g, config).transcript.roster]
        assert max(v.denominator.bit_length() for column in roster for v in column) > 200
        orders = [roster, roster[::-1]]
        alpha = mixture(roster)
        if alpha is not None:
            # the mixture's support first: feasible early, then more columns
            orders.append([c for c, w in zip(roster, alpha) if w]
                          + [c for c, w in zip(roster, alpha) if not w])
        for order in orders:
            program, unit_free = exact_lp.MinViolation(), exact_lp.MinViolation()
            for k, column in enumerate(order, 1):
                direction, unit = split(column)
                program.add(direction, unit)
                unit_free.add(direction)
                feasible = program.feasible()
                assert feasible == (mixture(order[:k]) is not None)
                assert unit_free.feasible() == feasible
            expected_t, _ = helpers.reference_min_violation_mixture(order)
            assert program.mixture()[0] == expected_t
            assert_same_as_tableau([[split(column)] for column in order])

    @settings(max_examples=300, deadline=None)
    @given(split_columns())
    @example(([[0, 0], [1, -1], [-1, 1]], [1, F(2, 3), 1]))
    def test_same_vertex_as_tableau_on_split_columns(self, columns):
        assert_same_as_tableau([[column] for column in zip(*columns)])

    def test_stored_rows_hold_the_touched_rows_and_two(self):
        # t, one surplus per touched row and the right-hand side, however
        # many weight columns have arrived: no weight column is stored
        rng = random.Random(43)
        program, touched = exact_lp.MinViolation(), set()
        for k in range(40):
            direction = [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(8)]
            program.add(direction, F(rng.randint(1, 9), rng.randint(1, 9)))
            touched.update(r for r, v in enumerate(direction) if v)
            if k % 3 == 0:
                program.feasible()
            assert len(program._tab.rows) == len(touched) + 1
            for row in [*program._tab.rows, program._cost]:
                assert len(row) == len(touched) + 2

    @pytest.mark.parametrize("columns, feasible", [
        ([[F(1), F(-1)], [F(-1), F(1)]], True),
        ([[F(-1), F(0)], [F(0), F(-1, 2)], [F(2), F(-3)]], False),
    ], ids=["feasible", "infeasible"])
    def test_asked_again_pivots_nothing(self, columns, feasible):
        # the product solve asks the probe again after the run and reads its
        # answer from the basis the last probe left
        program = exact_lp.MinViolation()
        for column in columns:
            program.add(*split(column))
        with mock.patch.object(exact_lp, "_pivot_on", wraps=exact_lp._pivot_on) as spy:
            assert program.feasible() is feasible
            pivots = spy.call_count
            assert pivots > 0
            assert program.feasible() is feasible
            t, alpha = program.mixture()
            assert spy.call_count == pivots
        assert (t == 0) is feasible
        assert (t, alpha) == min_violation(columns)

    @settings(max_examples=300, deadline=None)
    @given(column_batches())
    @example([[[-1, 0]], [[1, -1]], [[0, 1]]])  # t > 0, then 0
    @example([[[0, 0, 0]]])  # no row touched: y is 0
    def test_dual_prices_every_column(self, batches):
        # y = numerators / det is an optimal dual of min t: it sits on the
        # touched rows, sums to 1 when t > 0, and unit_k direction_k . y
        # never exceeds -t, which the best column meets; its objective -t
        # then proves it optimal, and a fresh column with a nonnegative
        # price is one no column held has
        program, columns, touched = exact_lp.MinViolation(), [], set()
        for batch in batches:
            for column in batch:
                columns.append(split(column))
                program.add(*columns[-1])
                touched.update(r for r, v in enumerate(column) if v)
            t, _ = program.mixture()
            y, det = program.dual(len(batch[0]))
            assert len(y) == len(batch[0]) and det > 0
            assert min(y) >= 0
            assert all(v == 0 for r, v in enumerate(y) if r not in touched)
            assert sum(y) <= det and (t == 0 or sum(y) == det)
            assert max(unit * sum(map(mul, direction, y))
                       for direction, unit in columns) == -t * det

    def test_no_column(self):
        program = exact_lp.MinViolation()
        with mock.patch.object(exact_lp, "_pivot_on", wraps=exact_lp._pivot_on) as spy:
            assert program.feasible() is False
            assert program.feasible() is False
        assert spy.call_count == 0
        with pytest.raises(ValueError, match="at least one column"):
            program.mixture()


class TestMixtures:
    def test_feasible_mixture(self):
        alpha = mixture_feasible([[1], [-1]], [1, 1])
        assert alpha is not None
        assert sum(alpha) == 1
        assert alpha[0] * 1 + alpha[1] * -1 >= 0

    def test_infeasible_mixture(self):
        assert mixture_feasible([[-1], [-1]], [F(1), F(2)]) is None

    def test_units_weigh_the_columns(self):
        # alpha_0 - alpha_1 / 3 >= 0 and its negation leave one distribution,
        # with three quarters of the weight on the second column
        alpha = mixture_feasible([[1, -1], [-1, 1]], [F(1), F(1, 3)])
        assert alpha == [F(1, 4), F(3, 4)]

    def test_empty(self):
        assert mixture_feasible([], []) is None

    @settings(max_examples=300, deadline=None)
    @given(split_columns())
    @example(([[0, 0], [1, -1], [-1, 1]], [1, F(2, 3), 1]))  # a zero direction
    @example(([[-1, 2], [3, -1]], [1, 1]))  # integer columns, as profiles give
    def test_feasible_matches_reference(self, columns):
        # the integer columns built from (direction, unit) state the rational
        # program the reference Fraction simplex solves, and give its vertex
        directions, units = columns
        values = [[u * v for v in d] for d, u in zip(directions, units)]
        got = mixture_feasible(directions, units)
        assert got == helpers.reference_mixture_feasible(values)
        assert got is None or all(type(v) is F for v in got)

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
        values = [helpers.unit_values(cut) for cut in roster]
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


@st.composite
def wide_columns(draw):
    """(directions, units) as product cuts hold them, with entries of 3 to
    800 bits: coprime directions, some all zero, some repeated, with rows
    that every direction leaves zero, and positive units up to 800 bits."""
    n_rows = draw(st.integers(1, 6))
    live = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    directions, units = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "repeat", "zero"]))
        if kind == "repeat" and directions:
            direction = draw(st.sampled_from(directions))
        elif kind == "zero":
            direction = [0] * n_rows
        else:
            bound = 1 << draw(st.integers(3, 800))
            direction = [draw(st.integers(-bound, bound)) if on else 0 for on in live]
            common = math.gcd(*direction) or 1
            direction = [v // common for v in direction]
        directions.append(direction)
        units.append(F(draw(st.integers(1, 1 << draw(st.integers(1, 800)))),
                       draw(st.integers(1, 1 << draw(st.integers(1, 800))))))
    return directions, units


def cold_mixture(directions, units, program=exact_lp.MinViolation):
    """(t, alpha) of a fresh exact program over the columns, never rounded."""
    program = program()
    for direction, unit in zip(directions, units):
        program.add(direction, unit)
    return program.mixture()


def traced_mixture(directions, units):
    """min_violation_mixture, with each certification's result and every
    MinViolation it made: the rounded guesses first, one per certification,
    then any cold program."""
    certified, programs = [], []
    certify = exact_lp._certified

    def record(*args):
        certified.append(certify(*args))
        return certified[-1]

    class Recorded(exact_lp.MinViolation):
        def __init__(self):
            super().__init__()
            programs.append(self)

    with mock.patch.object(exact_lp, "_certified", record), \
            mock.patch.object(exact_lp, "MinViolation", Recorded):
        result = min_violation_mixture(directions, units)
    return result, certified, programs


EPS = F(1, 2**30)
REFUSALS = ("moved", "face")


def assert_falls_back(directions, units):
    """Certification refuses, the last time on a zero reduced cost, the cold
    program runs, and the answer is its."""
    got, certified, programs = traced_mixture(directions, units)
    assert all(c in REFUSALS for c in certified) and certified[-1] == "face"
    assert len(programs) == len(certified) + 1
    assert got == cold_mixture(directions, units)
    assert got == cold_mixture(directions, units, helpers.TableauMinViolation)


class TestGuessAndCertify:
    """min_violation_mixture solves the program rounded to 24 fractional
    bits and certifies that basis on the exact columns. When the rounding
    moved the optimum, it guesses again at each wider width of GUESS_LADDER;
    when no guess is certified, or one has a zero reduced cost, it falls back
    to the cold exact program. Either way its (t, alpha) is the cold
    program's, rational for rational."""

    @settings(max_examples=200, deadline=None)
    @given(wide_columns())
    @example(([[1, -1], [-1, 1]], [F(1, 3), F(1, 5)]))
    @example(([[3, 0], [0, -7]], [F(1, 2**700), F(5, 3)]))
    def test_matches_cold_and_tableau(self, columns):
        directions, units = columns
        got, certified, programs = traced_mixture(directions, units)
        assert got == cold_mixture(directions, units)
        assert got == cold_mixture(directions, units, helpers.TableauMinViolation)
        # the cold program runs exactly when every certification refused
        assert len(programs) == len(certified) + (certified[-1] in REFUSALS)

    @pytest.mark.parametrize("family, players, actions, seed, max_iters, stride", [
        ("nfg", 3, 2, 3, 200, 1),
        ("nfg", 2, 3, 1, 60, 3),
        ("polymatrix", 3, 2, 2, 60, 3),
    ], ids=["nfg-3x2-3", "nfg-2x3-1", "polymatrix-3x2-2"])
    def test_matches_cold_and_tableau_on_product_columns(self, family, players, actions,
                                                         seed, max_iters, stride):
        g = random_game(family, players, actions, u_max=10, seed=seed)
        config = SolveConfig(oracle="product", max_iters=max_iters, probe_stride=stride,
                             precision_bits=96)
        roster = compute_exact_ce(g, config).transcript.roster
        directions, units = [cut.direction for cut in roster], [cut.unit for cut in roster]
        got, certified, programs = traced_mixture(directions, units)
        assert got == cold_mixture(directions, units)
        assert got == cold_mixture(directions, units, helpers.TableauMinViolation)
        if got[0] > 0:
            # the optimal mixture is unique here, and the first guess finds its basis
            assert certified[0] not in REFUSALS and len(programs) == 1

    @pytest.mark.parametrize("directions, units", [
        # a duplicated column: its copy prices at zero
        ([[-1, 0], [0, -1], [-1, 0]], [1, 1, 1]),
        # every mixture leaves t = 1, so both columns price at zero
        ([[-1, 0], [-1, -1]], [1, 1]),
        # parallel columns under other units; the rounded program's basis,
        # taken with reduced costs >= 0, gives another optimal vertex
        ([[3, -2], [-2, -1], [-3, 2], [-3, 2], [3, -2]],
         [F(17, 18), F(5, 26), F(5, 2), F(27, 17), F(17, 54)]),
        # a binding row whose surplus prices at zero; taken anyway, it gives
        # another optimal vertex
        ([[3, -2, 2], [0, 0, -2], [3, -3, 1], [-3, 2, 0]],
         [F(14, 25), F(25, 3), F(27), F(20, 13)]),
    ], ids=["duplicate", "same-t", "parallel", "zero-dual-surplus"])
    def test_dual_degenerate_falls_back(self, directions, units):
        assert_falls_back(directions, units)

    @pytest.mark.parametrize("columns", [
        # the rounded optimum's basis gives the first column a negative weight
        [[-2 - 2 * EPS, 2 - 3 * EPS, F(-2)], [F(0), -1 + 3 * EPS, -1 + 2 * EPS]],
        # the rounded optimum's basis leaves a non-binding row short of t
        [[-1 + 3 * EPS, -1 - 2 * EPS, -EPS], [-2 + 2 * EPS, 2 + 3 * EPS, 2 - EPS]],
    ], ids=["negative-weight", "short-row"])
    def test_moved_optimum_certifies_wider(self, columns):
        # offsets of a few 2^-30 vanish in the 24-bit rounding, so that
        # program's optimum sits at another basis, one that is not even
        # feasible on the exact columns; a wider rounding keeps them
        directions, units = zip(*map(split, columns))
        got, certified, programs = traced_mixture(directions, units)
        assert certified[0] == "moved"
        assert certified[-1] not in REFUSALS
        assert len(programs) == len(certified)  # no cold program
        assert got == cold_mixture(directions, units)
        assert got == cold_mixture(directions, units, helpers.TableauMinViolation)

    def test_rounding_keeps_every_touched_row(self):
        # a unit of 2^-3000 puts every entry of its column far below 2^-24,
        # yet each rounds to its sign, not to zero
        tiny = F(1, 2**3000)
        assert exact_lp._rounded([3, -1, 0, 2**10], tiny, 24) == [1, -1, 0, 1]
        assert exact_lp._rounded([1, -1], F(1, 3), 24) == [5592405, -5592405]
        assert exact_lp._rounded([1, -1], F(1, 3), 96) == [2**96 // 3, -(2**96 // 3)]
        # rows 0 and 1 only the tiny column touches; the optimum is unique
        # and its basis holds that column
        directions = [[0, 0, 1, -1], [0, 0, 0, -3], [3, -3, 0, 0]]
        units = [F(2, 5), F(1, 3), tiny]
        got, certified, programs = traced_mixture(directions, units)
        assert programs[0]._rows == [0, 1, 2, 3]
        assert certified[0] not in REFUSALS and len(programs) == 1
        assert got[1][2] > 0
        assert got == cold_mixture(directions, units)
        assert got == cold_mixture(directions, units, helpers.TableauMinViolation)
