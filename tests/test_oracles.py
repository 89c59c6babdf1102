"""Separation oracles: cut shapes, stationary construction, purification."""

import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from exactce import SolverError, random_game, row_count
from exactce import oracles
from exactce.exact_lp import _gauss_jordan, stationary_distribution
from exactce.games import ProductDistribution
from exactce.incentives import RowIndex, incentive_row_values, profile_column, row_at
from exactce.oracles import (
    TIE_BREAKS,
    IntegerPoint,
    NonnegativityCut,
    ProductCut,
    ProfileCut,
    _rate_blocks,
    _stationary_blocks,
    _stationary_x,
    _tree_weights,
    integer_point,
    product_separation,
    purified_separation,
    purify,
    stationary_block,
)
from helpers import DualValue, cut_violation, stationary_product

F = Fraction


def seeded_pair(family, players, actions, seed, density=0.6):
    g = random_game(family, players, actions, u_max=9, seed=seed)
    rng = random.Random(seed + 10**6)
    y = helpers.random_nonneg_dual(rng, row_count(g), density=density)
    return g, y


class TestCutShapes:
    def test_nonnegativity_cut(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        cut = NonnegativityCut(row=row_at(g, 3), position=3, n_rows=8)
        normal = cut.normal()
        assert normal[3] == -1 and sum(normal) == -1
        assert cut.rhs == 0
        assert cut.roster_key() is None
        assert cut.describe() == {"kind": "nonneg", "row": [0, 1, 1]}

    def test_profile_cut(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=1)
        cut = ProfileCut(column=profile_column(g, (1, 0)))
        assert cut.profile == (1, 0)
        assert cut.normal() == [F(v) for v in profile_column(g, (1, 0)).dense()]
        assert cut.rhs == -1
        assert cut.roster_key() == ("profile", (1, 0))
        assert cut.describe() == {"kind": "profile", "profile": [1, 0]}

    def test_product_cut(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=2)
        x = helpers.uniform_product(g.actions)
        pairs = ((2, (1, 1)), (2, (1, 1)))
        direction, unit = incentive_row_values(g, pairs)
        cut = ProductCut(stationary=pairs, direction=direction, unit=unit)
        assert cut.x == x
        assert cut.normal() == direction
        assert helpers.unit_values(cut) == helpers.fraction_row_values(g, x.strategies)
        assert cut.rhs == -1
        assert cut.roster_key() == ("product", pairs)
        assert cut.describe()["kind"] == "product"
        assert cut.describe()["x"] == [["1/2", "1/2"], ["1/2", "1/2"]]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("nfg", 3, 2), ("polymatrix", 3, 2), ("nfg", 2, 3),
                            ("polymatrix", 2, 3)]),
           st.integers(0, 3), st.integers(0, 3), st.integers(1, 3),
           st.sampled_from([0.0, 0.3, 0.6]))
    def test_product_roster_key_is_the_distribution(self, shape, seed, other, scale,
                                                    density):
        # equal seeds give equal points, a positive scale leaves the
        # stationary product alone, and density 0 gives every point the
        # uniform product, so equal keys come up as well as unequal ones
        g, y = seeded_pair(*shape, seed, density)
        _, z = seeded_pair(*shape, other, density)
        a = product_separation(g, y)
        b = product_separation(g, [scale * v for v in z])
        assert (a.roster_key() == b.roster_key()) == (a.x.strategies == b.x.strategies)
        for cut in (a, b):
            assert cut.x == _stationary_x(cut.stationary)

    @pytest.mark.parametrize("family, players, actions", [
        ("nfg", 3, 2), ("polymatrix", 3, 2), ("nfg", 2, 3), ("polymatrix", 2, 3),
    ])
    def test_product_cut_splits_its_row_values(self, family, players, actions):
        for seed in range(20):
            g, y = seeded_pair(family, players, actions, seed)
            cut = product_separation(g, y)
            assert all(type(v) is int for v in cut.direction)
            assert math.gcd(*cut.direction) == 1
            assert type(cut.unit) is F and cut.unit > 0
            assert helpers.unit_values(cut) == helpers.fraction_row_values(g, cut.x.strategies)
            assert cut_violation(cut, y) == 1

    def test_product_cut_of_a_constant_game(self):
        # every row value is zero: the zero direction, with unit 1
        g = random_game("nfg", 2, 2, u_max=0, seed=0)
        cut = product_separation(g, [F(1)] * 8)
        assert cut.direction == (0,) * 8 and cut.unit == 1
        assert cut_violation(cut, [F(1)] * 8) == 1

    def test_violation_sign_convention(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=3)
        cut = NonnegativityCut(row=row_at(g, 2), position=2, n_rows=8)
        y = [F(0)] * 8
        y[2] = F(-3)
        # -y[2] <= 0 is broken by 3
        assert cut_violation(cut, y) == 3
        y[2] = F(5)
        assert cut_violation(cut, y) == -5


class TestStationaryProduct:
    def test_validation(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        with pytest.raises(ValueError):
            stationary_product(g, [F(0)] * 7)
        bad = [F(0)] * 8
        bad[1] = F(-1)
        with pytest.raises(ValueError):
            stationary_product(g, bad)

    def test_uniform_when_dual_is_zero(self):
        g = random_game("nfg", 2, 3, u_max=5, seed=0)
        x = stationary_product(g, [F(0)] * row_count(g))
        assert x == helpers.uniform_product(g.actions)

    def test_balance_equations_hold(self):
        for seed in range(20):
            g, y = seeded_pair("nfg" if seed % 2 else "polymatrix", 2, 3, seed)
            x = stationary_product(g, y)
            for p in range(g.players):
                m = g.actions[p]
                block = x.strategies[p]
                for j in range(m):
                    inflow = sum(
                        block[i] * y[helpers.row_position(g, RowIndex(p, i, j))]
                        for i in range(m) if i != j)
                    outflow = block[j] * sum(
                        y[helpers.row_position(g, RowIndex(p, j, k))]
                        for k in range(m) if k != j)
                    assert inflow == outflow

    def test_dual_objective_is_zero(self):
        for seed in range(20):
            g, y = seeded_pair("polymatrix" if seed % 2 else "nfg", 3, 2, seed)
            x = stationary_product(g, y)
            assert helpers.dual_objective(g, x.strategies, y) == 0


@st.composite
def rate_blocks(draw):
    """Integer rate blocks, m = 1..5, zero diagonal; about half the rates are
    zero, so blocks with several closed classes are drawn too. From m = 4 on,
    stationary_block reads the tree weights off Laplacian minors."""
    m = draw(st.integers(1, 5))
    rate = st.one_of(st.just(0), st.integers(1, 30))
    return [[0 if i == j else draw(rate) for j in range(m)] for i in range(m)]


def laplacian_minors(rates):
    """The determinant of the rate Laplacian with row and column i deleted,
    for each i, by permutation expansion."""
    laplacian = [[sum(row) if i == j else -r for j, r in enumerate(row)]
                 for i, row in enumerate(rates)]
    return [helpers.permutation_determinant(
                [row[:i] + row[i + 1:] for k, row in enumerate(laplacian) if k != i])
            for i in range(len(rates))]


def block_fractions(rates, denominator):
    """stationary_block's (T, W) as the distribution W / T, after checking
    that one gcd reduced the pair."""
    total, weights = stationary_block(rates, denominator)
    assert total > 0 and math.gcd(total, *weights) == 1
    return tuple(F(w, total) for w in weights)


class TestStationaryBlock:
    @settings(max_examples=300, deadline=None)
    @given(rate_blocks(), st.sampled_from([1, 2, 3, 12, 2**40]))
    @example([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 2**40)  # every state closed
    def test_equals_the_simplex_vertex(self, rates, denominator):
        # the simplex builds its integer columns over the rates' denominator
        # and returns the reference Fraction simplex's vertex
        got = block_fractions(rates, denominator)
        assert got == stationary_distribution(rates, denominator)
        assert got == helpers.reference_stationary_distribution(rates, denominator)

    @pytest.mark.parametrize("rates", [
        # {0, 1} and {2, 3} are closed cycles
        [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]],
        # 0 drains into the absorbing states 1 and 2
        [[0, 1, 1], [0, 0, 0], [0, 0, 0]],
    ])
    def test_several_closed_classes_fall_back(self, rates):
        with patch.object(oracles, "stationary_distribution",
                          wraps=stationary_distribution) as simplex:
            got = block_fractions(rates, 3)
        simplex.assert_called_once_with(rates, 3)
        assert got == helpers.reference_stationary_distribution(rates, 3)

    def test_one_closed_class_skips_the_simplex(self):
        # 0 drains into 1, and {1, 2} is the one closed class
        rates = [[0, 4, 0], [0, 0, 1], [0, 2, 0]]
        with patch.object(oracles, "stationary_distribution") as simplex:
            got = stationary_block(rates, 1)
        simplex.assert_not_called()
        assert got == (3, (0, 2, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.just(0), st.integers(1, 2**300)),
                             min_size=3, max_size=3), min_size=3, max_size=3),
           st.sets(st.integers(0, 2), max_size=3))
    @example([[0, 1, 2], [3, 0, 4], [5, 6, 0]], {1})  # a state with no outflow
    @example([[0, 1, 0], [1, 0, 0], [0, 0, 0]], set())  # two closed classes
    def test_three_state_trees_equal_laplacian_minors(self, rows, zero_rows):
        rates = [[0 if i == j or i in zero_rows else r for j, r in enumerate(row)]
                 for i, row in enumerate(rows)]
        assert _tree_weights(rates) == laplacian_minors(rates)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, 5).flatmap(lambda m: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(1, 2**40)), min_size=m, max_size=m),
        min_size=m, max_size=m)))
    @example([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]])  # two closed classes
    def test_general_trees_equal_laplacian_minors(self, rows):
        # four or more actions take the minors from _gauss_jordan
        rates = [[0 if i == j else r for j, r in enumerate(row)] for i, row in enumerate(rows)]
        assert _tree_weights(rates) == laplacian_minors(rates)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([[0, 1], [1, 0]])  # the first column needs a later pivot row
    @example([[1, 2], [2, 4]])  # singular with no zero entry
    def test_gauss_jordan_by_permutations(self, matrix):
        want = helpers.permutation_determinant(matrix)
        tab = _gauss_jordan([list(row) for row in matrix], len(matrix))
        assert (tab is None) == (want == 0)
        if tab is not None:
            assert tab.det == abs(want)
            # each row is det times a unit row of the identity
            for var, row in zip(tab.basis, tab.rows):
                assert row == [tab.det * (j == var) for j in range(len(matrix))]


@st.composite
def integer_points(draw):
    """(game, point): nfg up to 3x3 and 4x2 or polymatrix up to 4x3, and a
    point y = Y / L >= 0 with some all-zero player blocks and some zero rows
    (actions with no outflow, so some blocks have several closed classes)."""
    family = draw(st.sampled_from(["nfg", "polymatrix"]))
    players = draw(st.integers(1, 4))
    most = 2 if family == "nfg" and players == 4 else 3
    actions = tuple(draw(st.integers(1, most)) for _ in range(players))
    g = random_game(family, players, actions, u_max=9, seed=draw(st.integers(0, 2**16)))
    numerators = []
    for m in actions:
        zero_block = draw(st.integers(0, 3)) == 0
        for _ in range(m):
            zero_row = zero_block or draw(st.integers(0, 3)) == 0
            numerators.extend(0 if zero_row else draw(st.integers(0, 30)) for _ in range(m))
    return g, IntegerPoint(tuple(numerators), draw(st.sampled_from([1, 3, 2**20])))


def stationary_pairs(g, point):
    """_stationary_blocks' (T, W) per player at the point."""
    return _stationary_blocks(_rate_blocks(g, point), point.denominator)


# player 0's actions {0, 1} form one closed class and action 2, which has no
# outflow, another; player 1's block is all zero
SEVERAL_CLOSED_CLASSES = (
    random_game("nfg", 2, 3, u_max=9, seed=7),
    IntegerPoint((0, 1, 0, 2, 0, 0, 0, 0, 0) + (0,) * 9, 4),
)


# every player's stationary (T, W) a corner case: player 0 moves 0 -> 1 and
# 1 has no outflow (a point mass, T = 1), player 1's block is all zero
# (uniform), player 2 has one closed class, and player 3's action 0 has no
# outflow and draws the others in (a point mass again)
CORNER_BLOCKS = (
    random_game("nfg", 4, 2, u_max=9, seed=3),
    IntegerPoint((0, 2, 0, 0) + (0,) * 4 + (0, 1, 3, 0) + (0, 0, 5, 0), 6),
)
# player 0's actions {0, 1} and {2} are two closed classes, player 1's block
# is all zero, players 2 and 3 are point masses (T = 1) behind zero rows
POLYMATRIX_CORNERS = (
    random_game("polymatrix", 4, 3, u_max=9, seed=5),
    IntegerPoint((0, 1, 0, 2, 0, 0, 0, 0, 0) + (0,) * 9
                 + (0, 1, 0, 0, 0, 0, 1, 0, 0) + (0, 0, 0, 1, 0, 2, 3, 1, 0), 6),
)


class TestStationaryWeights:
    @settings(max_examples=200, deadline=None)
    @given(integer_points())
    @example(SEVERAL_CLOSED_CLASSES)
    def test_equal_the_product_integer_weights(self, case):
        # the stationary pairs are the integer form of their own Fractions
        g, point = case
        stationary = stationary_pairs(g, point)
        assert _stationary_x(stationary).pairs() == tuple(stationary)

    def test_several_closed_classes_take_the_simplex(self):
        g, point = SEVERAL_CLOSED_CLASSES
        with patch.object(oracles, "stationary_distribution",
                          wraps=stationary_distribution) as simplex:
            (total, weights), uniform = stationary_pairs(g, point)
        simplex.assert_called_once()
        assert helpers.reference_stationary_distribution(
            [[0, 1, 0], [2, 0, 0], [0, 0, 0]], 4) == tuple(F(w, total) for w in weights)
        assert uniform == (3, (1, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(integer_points())
    @example(SEVERAL_CLOSED_CLASSES)
    @example(CORNER_BLOCKS)
    @example(POLYMATRIX_CORNERS)
    @example((random_game("polymatrix", 4, 3, u_max=9, seed=6),
              IntegerPoint((0,) * 36, 1)))  # every block all zero
    def test_purified_separation_matches_reference(self, case):
        g, point = case
        y = [F(v, point.denominator) for v in point.numerators]
        x = stationary_product(g, y)
        for tb in TIE_BREAKS:
            cut = purified_separation(g, y, tb)
            assert cut.profile == helpers.purify_reference(g, y, x, tb), tb


def jacobian_requests(g, run):
    """Call run() and return the (player, other) of every
    conditional_payoff_jacobian request it makes on g's class."""
    requests = []
    original = type(g).conditional_payoff_jacobian

    def recording(game, player, other, weights):
        requests.append((player, other))
        return original(game, player, other, weights)

    with patch.object(type(g), "conditional_payoff_jacobian", recording):
        run()
    return requests


class TestLazyKernels:
    @settings(max_examples=100, deadline=None)
    @given(integer_points())
    @example(SEVERAL_CLOSED_CLASSES)
    def test_stationary_start_reads_no_open_jacobian(self, case):
        # every flow is zero at a stationary start, and only a fixed player's
        # point mass moves them off zero
        g, point = case
        for tb in ("first", "max-value"):
            requests = jacobian_requests(g, lambda tb=tb: purified_separation(g, point, tb))
            assert all(q < p for q, p in requests), (tb, requests)

    @settings(max_examples=30, deadline=None)
    @given(integer_points())
    def test_welfare_reads_every_jacobian(self, case):
        # k(a) reads X_q M_qp for every q != p
        g, point = case
        requests = jacobian_requests(g, lambda: purified_separation(g, point, "welfare"))
        assert requests == [(q, p) for p in range(g.players)
                            for q in range(g.players) if q != p]


class TestIntegerPoint:
    def test_rational_sequence_over_its_lcm(self):
        point = integer_point([F(1, 2), F(0), 3, F(-5, 6)])
        assert point.denominator == 6
        assert point.numerators == (3, 0, 18, -5)
        assert integer_point(point) is point

    def test_oracles_ignore_the_denominator(self):
        for seed in range(10):
            g, y = seeded_pair("nfg" if seed % 2 else "polymatrix", 3, 2, seed)
            point = integer_point(y)
            scaled = IntegerPoint(tuple(7 * v for v in point.numerators), 7 * point.denominator)
            for tb in TIE_BREAKS:
                assert purified_separation(g, scaled, tb) == purified_separation(g, y, tb)
            assert product_separation(g, scaled) == product_separation(g, y)
            assert stationary_product(g, scaled) == stationary_product(g, y)


class TestPurify:
    def test_matches_reference_all_policies(self):
        for seed in range(30):
            family = "polymatrix" if seed % 2 else "nfg"
            g, y = seeded_pair(family, 2, 3, seed, density=0.5)
            x = stationary_product(g, y)
            for tb in ("first", "max-value", "welfare"):
                got = purify(g, y, tb)
                want = helpers.purify_reference(g, y, x, tb)
                assert got == want, (seed, tb)

    def test_policies_can_disagree(self):
        g, y = seeded_pair("nfg", 2, 3, 0, density=0.5)
        outcomes = {tb: purify(g, y, tb) for tb in ("first", "max-value", "welfare")}
        assert len(set(outcomes.values())) == 3

    def test_output_profile_clears_dual(self):
        for seed in range(30):
            g, y = seeded_pair("nfg", 3, 2, seed)
            s = purify(g, y)
            assert profile_column(g, s).dot(y) >= 0

    def test_intermediate_values_stay_nonnegative(self):
        for seed in range(15):
            g, y = seeded_pair("nfg", 3, 2, seed)
            x = stationary_product(g, y)
            s = purify(g, y)
            strategies = [list(b) for b in x.strategies]
            for p in range(g.players):
                strategies[p] = [
                    F(1) if a == s[p] else F(0) for a in range(g.actions[p])]
                assert helpers.dual_objective(g, strategies, y) >= 0

    def test_rejects_bad_tie_break(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        with pytest.raises(ValueError, match="tie break"):
            purify(g, [F(0)] * 8, "random")

    def test_rejects_a_negative_dual(self):
        # the rounding's guarantee needs y >= 0; this point would round to
        # a profile whose column does not clear it
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        y = [F(0), F(3), F(-1), F(0), F(0), F(1), F(1), F(0)]
        with pytest.raises(ValueError, match="must be nonnegative"):
            purify(g, y)
        with pytest.raises(ValueError, match="length"):
            purify(g, [F(0)] * 7)


class TestSeparationOracles:
    def test_negative_coordinate_reported_first(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        y = [F(0)] * 8
        y[5] = F(-1)
        y[2] = F(-2)
        cut = purified_separation(g, y)
        assert isinstance(cut, NonnegativityCut)
        assert cut.position == 2
        assert cut.row == row_at(g, 2)
        assert cut_violation(cut, y) == 2

    def test_profile_cut_is_violated_dual_row(self):
        for seed in range(20):
            g, y = seeded_pair("nfg" if seed % 3 else "polymatrix", 2, 3, seed)
            cut = purified_separation(g, y)
            assert isinstance(cut, ProfileCut)
            # the profile's column clears y, so as a <= -1 constraint it is
            # violated by at least 1
            assert cut_violation(cut, y) >= 1

    def test_tie_break_passed_through(self):
        g, y = seeded_pair("nfg", 2, 3, 0, density=0.5)
        cuts = {tb: purified_separation(g, y, tb)
                for tb in ("first", "max-value", "welfare")}
        assert len({c.profile for c in cuts.values()}) == 3
        x = stationary_product(g, y)
        for tb, cut in cuts.items():
            assert cut.profile == helpers.purify_reference(g, y, x, tb)

    def test_product_cut_zeroes_the_dual(self):
        for seed in range(20):
            g, y = seeded_pair("polymatrix" if seed % 2 else "nfg", 3, 2, seed)
            cut = product_separation(g, y)
            assert isinstance(cut, ProductCut)
            values = helpers.unit_values(cut)
            assert values == helpers.unit_values(incentive_row_values(g, cut.x.pairs()))
            assert sum(v * w for v, w in zip(values, y)) == 0
            assert cut_violation(cut, y) == 1

    @pytest.mark.parametrize("family", ["nfg", "polymatrix"])
    def test_non_stationary_weights_fail_the_exactness_check(self, family):
        # player 0 moves 0 -> 1 at rate 1 and 1 -> 0 at rate 3, so its
        # stationary weights are (3, 1) / 4; uniform weights leave its
        # flows at (-2, 2), which the flow check must refuse before any
        # branch is scored
        g = random_game(family, 3, 2, u_max=9, seed=4)
        point = IntegerPoint((0, 1, 3, 0) + (0, 2, 1, 0) + (0, 0, 0, 0), 1)
        stationary = stationary_pairs(g, point)
        assert stationary[0] == (4, (3, 1))

        def skewed(rates, denominator):
            return [(2, (1, 1))] + _stationary_blocks(rates, denominator)[1:]

        with patch.object(oracles, "_stationary_blocks", skewed):
            for tb in TIE_BREAKS:
                with pytest.raises(SolverError, match=oracles._STATIONARY_FAILED):
                    purified_separation(g, point, tb)
            with pytest.raises(SolverError, match=oracles._STATIONARY_FAILED):
                product_separation(g, point)

    def test_product_oracle_also_screens_negatives(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        y = [F(0)] * 8
        y[7] = F(-4)
        cut = product_separation(g, y)
        assert isinstance(cut, NonnegativityCut)
        assert cut.position == 7


# non-dyadic entries, so the lcm L of y's denominators is not a power of two
dual_entries = st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3, 5, 6, 7, 9]))
probabilities = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 5, 7]))


def record_branches(run):
    """Call run() and return the (values, welfare) that purify scores at each
    step, in the order of the players it fixes."""
    calls = []
    original = oracles._choose

    def recording(tie_break, values, welfare):
        calls.append((values, welfare))
        return original(tie_break, values, welfare)

    with patch.object(oracles, "_choose", recording):
        run()
    return calls


def same_positive_multiple(got, exact):
    """Whether got = s * exact entry by entry for one s > 0, as Fractions."""
    ratios = {F(g) / e for g, e in zip(got, exact) if e}
    return (all((g == 0) == (e == 0) for g, e in zip(got, exact))
            and len(ratios) <= 1 and all(r > 0 for r in ratios))


@st.composite
def dual_cases(draw):
    """(game, y): nfg up to 3x3 or polymatrix up to 4x3, y >= 0 with some
    all-zero player blocks."""
    family = draw(st.sampled_from(["nfg", "polymatrix"]))
    players = draw(st.integers(1, 3 if family == "nfg" else 4))
    actions = tuple(draw(st.integers(1, 3)) for _ in range(players))
    g = random_game(family, players, actions, u_max=draw(st.integers(0, 9)),
                    seed=draw(st.integers(0, 2**16)))
    y = []
    for m in actions:
        zero_block = draw(st.integers(0, 3)) == 0
        y.extend(F(0) if zero_block else draw(dual_entries) for _ in range(m * m))
    return g, y


@st.composite
def value_cases(draw):
    """(game, y, x): a dual case and x uniform, rational, partly pure or
    stationary."""
    g, y = draw(dual_cases())
    actions = g.actions
    kind = draw(st.sampled_from(["uniform", "rational", "partly pure", "stationary"]))
    if kind == "uniform":
        return g, y, helpers.uniform_product(actions)
    if kind == "stationary":
        return g, y, stationary_product(g, y)
    strategies = []
    for m in actions:
        if kind == "partly pure" and draw(st.booleans()):
            a = draw(st.integers(0, m - 1))
            strategies.append(tuple(F(int(k == a)) for k in range(m)))
        else:
            weights = [draw(probabilities) for _ in range(m)]
            strategies.append(tuple(w / sum(weights) for w in weights))
    return g, y, ProductDistribution(tuple(strategies))


class TestIntegerValue:
    @settings(max_examples=150, deadline=None)
    @given(value_cases())
    def test_value_and_welfare_on_their_scales(self, case):
        g, y, x = case
        value = DualValue(g, y, x)
        exact = helpers.dual_objective(g, x.strategies, y)
        v, welfare = value.scores(value.start)
        assert value.scale > 0
        assert (v > 0) - (v < 0) == (exact > 0) - (exact < 0)
        assert F(v, value.scale) == exact
        welfare_scale = value.d * helpers.conditional_scale(g, value.d)
        assert F(welfare, welfare_scale) == sum(
            helpers.enum_expected_utility(g, x.strategies, q) for q in range(g.players))
        # every branch purify scores: one player fixed to one action, same scale
        p = g.players - 1
        for a in range(g.actions[p]):
            weights = list(value.start)
            weights[p] = value.point_mass(p, a)
            forced = [list(block) for block in x.strategies]
            forced[p] = [F(int(k == a)) for k in range(g.actions[p])]
            assert F(value.scores(weights)[0], value.scale) == helpers.dual_objective(
                g, forced, y)

    @settings(max_examples=150, deadline=None)
    @given(value_cases(), st.data())
    def test_jacobian_moves_kernel_exactly(self, case, data):
        g, _, x = case
        _, start = helpers.integer_weights(x)
        p = data.draw(st.integers(0, g.players - 1))
        before, after = list(start), list(start)
        before[p] = data.draw(st.lists(st.integers(0, 40), min_size=g.actions[p],
                                       max_size=g.actions[p]))
        after[p] = data.draw(st.lists(st.integers(0, 40), min_size=g.actions[p],
                                      max_size=g.actions[p]))
        delta = [b - a for a, b in zip(before[p], after[p])]
        for q in range(g.players):
            if q == p:
                continue
            jacobian = g.conditional_payoff_jacobian(q, p, start)
            moved = [
                b - a for a, b in zip(g.conditional_payoff_ints(q, before),
                                      g.conditional_payoff_ints(q, after))
            ]
            assert moved == [sum(v * d for v, d in zip(row, delta)) for row in jacobian]

    def test_jacobian_needs_two_players(self):
        for family in ("nfg", "polymatrix"):
            g = random_game(family, 2, 2, u_max=5, seed=0)
            with pytest.raises(ValueError, match="two distinct players"):
                g.conditional_payoff_jacobian(1, 1, [(1, 1), (1, 1)])

    @settings(max_examples=100, deadline=None)
    @given(dual_cases())
    def test_purify_branches_match_scores(self, case):
        g, y = case
        value = DualValue(g, y, stationary_product(g, y))
        for tb in ("first", "max-value", "welfare"):
            profile = []
            calls = record_branches(lambda tb=tb: profile.extend(purify(g, y, tb)))
            assert len(calls) == g.players
            for p, (values, welfare) in enumerate(calls):
                # branch a: the players before p fixed as purify fixed them,
                # p fixed to a, the rest still at the stationary product
                weights = list(value.start)
                for q in range(p):
                    weights[q] = value.point_mass(q, profile[q])
                exact = []
                for a in range(g.actions[p]):
                    weights[p] = value.point_mass(p, a)
                    exact.append(value.scores(weights))
                # each step scores over its own positive scale
                assert same_positive_multiple(values, [v for v, _ in exact]), (tb, p)
                # the welfare is scored only under the tie break that reads
                # it, over a positive scale of its own plus a term equal for
                # every branch of the step
                if tb != "welfare":
                    assert welfare is None
                    continue
                assert same_positive_multiple([w - welfare[0] for w in welfare],
                                              [w - exact[0][1] for _, w in exact]), (tb, p)

    @settings(max_examples=100, deadline=None)
    @given(value_cases())
    def test_pairs_round_trip(self, case):
        _, _, x = case
        assert _stationary_x(x.pairs()) == x

    @settings(max_examples=150, deadline=None)
    @given(value_cases())
    def test_row_values_match_fraction_formula(self, case):
        g, _, x = case
        assert (helpers.unit_values(incentive_row_values(g, x.pairs()))
                == helpers.fraction_row_values(g, x.strategies))

    @settings(max_examples=100, deadline=None)
    @given(dual_cases())
    def test_purify_matches_reference(self, case):
        g, y = case
        x = stationary_product(g, y)
        for tb in ("first", "max-value", "welfare"):
            assert purify(g, y, tb) == helpers.purify_reference(g, y, x, tb), tb
