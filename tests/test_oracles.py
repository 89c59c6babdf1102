"""Separation oracles: cut shapes, stationary construction, purification."""

import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from exactce import random_game, row_count
from exactce import oracles
from exactce.exact_lp import stationary_distribution
from exactce.games import ProductDistribution
from exactce.incentives import incentive_row_values, iter_rows, profile_column, row_at
from exactce.oracles import (
    TIE_BREAKS,
    DualValue,
    IntegerPoint,
    NonnegativityCut,
    ProductCut,
    ProfileCut,
    Rounding,
    _determinant,
    _rate_blocks,
    _stationary_blocks,
    _stationary_x,
    _tree_weights,
    cut_violation,
    integer_point,
    product_separation,
    purified_separation,
    purify,
    stationary_block,
    stationary_weights,
)
from helpers import stationary_product

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
        x = ProductDistribution.uniform(g.actions)
        direction, unit = incentive_row_values(g, x)
        cut = ProductCut(x=x, direction=direction, unit=unit)
        assert cut.normal() == direction
        assert helpers.unit_values(cut) == helpers.fraction_row_values(g, x.strategies)
        assert cut.rhs == -1
        assert cut.roster_key() == ("product", x.strategies)
        assert cut.describe()["kind"] == "product"
        assert cut.describe()["x"] == [["1/2", "1/2"], ["1/2", "1/2"]]

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
        assert x == ProductDistribution.uniform(g.actions)

    def test_balance_equations_hold(self):
        from exactce.incentives import RowIndex, row_position

        for seed in range(20):
            g, y = seeded_pair("nfg" if seed % 2 else "polymatrix", 2, 3, seed)
            x = stationary_product(g, y)
            for p in range(g.players):
                m = g.actions[p]
                block = x.strategies[p]
                for j in range(m):
                    inflow = sum(
                        block[i] * y[row_position(g, RowIndex(p, i, j))]
                        for i in range(m) if i != j)
                    outflow = block[j] * sum(
                        y[row_position(g, RowIndex(p, j, k))]
                        for k in range(m) if k != j)
                    assert inflow == outflow

    def test_dual_objective_is_zero(self):
        for seed in range(20):
            g, y = seeded_pair("polymatrix" if seed % 2 else "nfg", 3, 2, seed)
            x = stationary_product(g, y)
            assert helpers.dual_objective(g, x.strategies, y) == 0


@st.composite
def rate_blocks(draw):
    """Integer rate blocks, m = 1..4, zero diagonal; about half the rates are
    zero, so blocks with several closed classes are drawn too."""
    m = draw(st.integers(1, 4))
    rate = st.one_of(st.just(0), st.integers(1, 30))
    return [[0 if i == j else draw(rate) for j in range(m)] for i in range(m)]


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
        laplacian = [[sum(row) if i == j else -r for j, r in enumerate(row)]
                     for i, row in enumerate(rates)]
        minors = [_determinant([row[:i] + row[i + 1:]
                                for k, row in enumerate(laplacian) if k != i])
                  for i in range(3)]
        assert _tree_weights(rates) == minors

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_determinant_by_permutations(self, matrix):
        n = len(matrix)
        want = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            want += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
        assert _determinant(matrix) == want


@st.composite
def integer_points(draw):
    """(game, point): nfg up to 3x3 or polymatrix up to 4x3, and a point
    y = Y / L >= 0 with some all-zero player blocks and some zero rows
    (actions with no outflow, so some blocks have several closed classes)."""
    family = draw(st.sampled_from(["nfg", "polymatrix"]))
    players = draw(st.integers(1, 3 if family == "nfg" else 4))
    actions = tuple(draw(st.integers(1, 3)) for _ in range(players))
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


class TestStationaryWeights:
    @settings(max_examples=200, deadline=None)
    @given(integer_points())
    @example(SEVERAL_CLOSED_CLASSES)
    def test_equal_the_product_integer_weights(self, case):
        g, point = case
        stationary = stationary_pairs(g, point)
        assert (stationary_weights(stationary).integer_weights()
                == _stationary_x(stationary).integer_weights())

    def test_several_closed_classes_take_the_simplex(self):
        g, point = SEVERAL_CLOSED_CLASSES
        with patch.object(oracles, "stationary_distribution",
                          wraps=stationary_distribution) as simplex:
            d, weights = stationary_weights(stationary_pairs(g, point)).integer_weights()
        simplex.assert_called_once()
        assert helpers.reference_stationary_distribution(
            [[0, 1, 0], [2, 0, 0], [0, 0, 0]], 4) == tuple(F(w, d) for w in weights[0])
        assert weights[1] == (d // 3,) * 3

    @settings(max_examples=60, deadline=None)
    @given(integer_points())
    @example(SEVERAL_CLOSED_CLASSES)
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
                got = purify(g, y, x, tb)
                want = helpers.purify_reference(g, y, x, tb)
                assert got == want, (seed, tb)

    def test_policies_can_disagree(self):
        g, y = seeded_pair("nfg", 2, 3, 0, density=0.5)
        x = stationary_product(g, y)
        outcomes = {tb: purify(g, y, x, tb) for tb in ("first", "max-value", "welfare")}
        assert len(set(outcomes.values())) == 3

    def test_output_profile_clears_dual(self):
        for seed in range(30):
            g, y = seeded_pair("nfg", 3, 2, seed)
            x = stationary_product(g, y)
            s = purify(g, y, x)
            assert profile_column(g, s).dot(y) >= 0

    def test_intermediate_values_stay_nonnegative(self):
        for seed in range(15):
            g, y = seeded_pair("nfg", 3, 2, seed)
            x = stationary_product(g, y)
            s = purify(g, y, x)
            strategies = [list(b) for b in x.strategies]
            for p in range(g.players):
                strategies[p] = [
                    F(1) if a == s[p] else F(0) for a in range(g.actions[p])]
                assert helpers.dual_objective(g, strategies, y) >= 0

    def test_starts_from_any_nonnegative_product(self):
        # uniform start: value can be positive, the invariant still holds
        rng = random.Random(99)
        for seed in range(10):
            g = random_game("nfg", 2, 3, u_max=9, seed=seed)
            y = helpers.random_nonneg_dual(rng, row_count(g), density=0.4)
            x = ProductDistribution.uniform(g.actions)
            if helpers.dual_objective(g, x.strategies, y) < 0:
                continue
            s = purify(g, y, x)
            assert profile_column(g, s).dot(y) >= 0

    def test_rejects_negative_start(self):
        # seed 1 draws payoffs (2, 9): a point mass on action 0 with weight
        # on the (0, 0->1) row has chain value 2 - 9 < 0
        g = random_game("nfg", 1, 2, u_max=9, seed=1)
        assert g.tables[0] == (2, 9)
        from exactce.incentives import RowIndex, row_position
        y = [F(0)] * 4
        y[row_position(g, RowIndex(0, 0, 1))] = F(1)
        x = ProductDistribution.point_mass(g.actions, (0,))
        with pytest.raises(ValueError, match="nonnegative starting value"):
            purify(g, y, x)

    def test_rejects_bad_tie_break(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        x = ProductDistribution.uniform(g.actions)
        with pytest.raises(ValueError, match="tie break"):
            purify(g, [F(0)] * 8, x, "random")


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
            assert values == helpers.unit_values(incentive_row_values(g, cut.x))
            assert sum(v * w for v, w in zip(values, y)) == 0
            assert cut_violation(cut, y) == 1

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
    """Call run() and return (player, weights, (value, welfare), branches) for
    every Rounding.step it makes, with the state as it was before the step."""
    calls = []
    original = Rounding.step

    def recording(state, player, choose):
        before = (player, list(state.weights), (state.value, state.welfare))

        def spy(branches):
            calls.append((*before, branches))
            return choose(branches)

        return original(state, player, spy)

    with patch.object(Rounding, "step", recording):
        run()
    return calls


@st.composite
def value_cases(draw):
    """(game, y, x): nfg up to 3x3 or polymatrix up to 4x3, y >= 0 with some
    all-zero player blocks, x uniform, rational, partly pure or stationary."""
    family = draw(st.sampled_from(["nfg", "polymatrix"]))
    players = draw(st.integers(1, 3 if family == "nfg" else 4))
    actions = tuple(draw(st.integers(1, 3)) for _ in range(players))
    g = random_game(family, players, actions, u_max=draw(st.integers(0, 9)),
                    seed=draw(st.integers(0, 2**16)))
    y = []
    for m in actions:
        zero_block = draw(st.integers(0, 3)) == 0
        y.extend(F(0) if zero_block else draw(dual_entries) for _ in range(m * m))
    kind = draw(st.sampled_from(["uniform", "rational", "partly pure", "stationary"]))
    if kind == "uniform":
        return g, y, ProductDistribution.uniform(actions)
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
        welfare_scale = value.d * g.conditional_scale(value.d)
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
        _, start = x.integer_weights()
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
    @given(value_cases())
    def test_purify_branches_match_scores(self, case):
        g, y, x = case
        if helpers.dual_objective(g, x.strategies, y) < 0:
            return
        value = DualValue(g, y, x)
        for tb in ("first", "max-value", "welfare"):
            # the welfare is scored only under the tie break that reads it
            def scored(pair, tb=tb):
                return pair if tb == "welfare" else (pair[0], None)

            calls = record_branches(lambda: purify(g, y, x, tb))
            assert [p for p, _, _, _ in calls] == list(range(g.players))
            for p, weights, before, branches in calls:
                # the state carried to this player equals a fresh evaluation
                assert before == scored(value.scores(weights))
                for a, branch in enumerate(branches):
                    forced = list(weights)
                    forced[p] = value.point_mass(p, a)
                    assert branch == scored(value.scores(forced)), (tb, p, a)

    @settings(max_examples=150, deadline=None)
    @given(value_cases())
    def test_row_values_match_fraction_formula(self, case):
        g, _, x = case
        assert (helpers.unit_values(incentive_row_values(g, x))
                == helpers.fraction_row_values(g, x.strategies))

    @settings(max_examples=100, deadline=None)
    @given(value_cases())
    def test_purify_matches_reference(self, case):
        g, y, x = case
        if helpers.dual_objective(g, x.strategies, y) < 0:
            with pytest.raises(ValueError, match="nonnegative starting value"):
                purify(g, y, x)
            return
        for tb in ("first", "max-value", "welfare"):
            assert purify(g, y, x, tb) == helpers.purify_reference(g, y, x, tb), tb
