"""Incentive matrix columns, row indexing, certificates, exact verification."""

import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from exactce import (
    CertificateError,
    CertificateMismatchError,
    SparseCE,
    load_game,
    random_game,
    row_count,
    verify_ce,
)
from exactce.games import NormalFormGame
from exactce.incentives import (
    RowIndex,
    incentive_row_values,
    profile_column,
    row_at,
    row_offsets,
)

F = Fraction

# distinct primes, so any choice of totals is pairwise coprime and their
# product is far wider than any one of them
PRIMES = (998_244_353, 1_000_000_007, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1)


@st.composite
def games_with_pairs(draw):
    """A game of 1-4 players with 1-3 actions each, and a product as
    (T_p, W_p) pairs over large pairwise coprime totals (1 for a player with
    one action, whose only reduced pair is (1, (1,)))."""
    family = draw(st.sampled_from(["nfg", "polymatrix"]))
    actions = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    game = random_game(family, len(actions), actions, u_max=draw(st.integers(0, 50)),
                       seed=draw(st.integers(0, 2**16)))
    pairs = []
    for m, total in zip(actions, draw(st.permutations(PRIMES))):
        if m == 1:
            pairs.append((1, (1,)))
            continue
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
        pairs.append((total, tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))))
    return game, tuple(pairs)


class TestRowIndexing:
    def test_row_count(self):
        g = random_game("nfg", 3, (2, 3, 2), u_max=1, seed=0)
        assert row_count(g) == 4 + 9 + 4

    def test_offsets(self):
        g = random_game("nfg", 3, (2, 3, 2), u_max=1, seed=0)
        assert row_offsets(g) == (0, 4, 13)

    def test_iter_matches_reference_order(self):
        g = random_game("polymatrix", 2, (2, 3), u_max=1, seed=0)
        assert [tuple(row_at(g, k)) for k in range(row_count(g))] == list(helpers.all_rows(g))

    def test_position_round_trip(self):
        g = random_game("nfg", 3, (2, 3, 2), u_max=1, seed=0)
        for k, row in enumerate(helpers.all_rows(g)):
            assert helpers.row_position(g, row) == k
            assert row_at(g, k) == row

    def test_row_at_bounds(self):
        g = random_game("nfg", 2, 2, u_max=1, seed=0)
        with pytest.raises(ValueError):
            row_at(g, 8)
        with pytest.raises(ValueError):
            row_at(g, -1)


class TestProfileColumn:
    def test_matches_materialized_matrix(self):
        # the kernel sweep is player-generic: mixed action counts, 2-4 players
        shapes = [(2, 3), (3, (2, 3, 2)), (3, (3, 2, 2)), (4, 2)]
        for family, (players, actions) in itertools.product(("nfg", "polymatrix"), shapes):
            for seed in range(6):
                g = random_game(family, players, actions, u_max=9, seed=seed)
                matrix = helpers.materialize_matrix(g)
                for k, s in enumerate(g.profiles()):
                    dense = profile_column(g, s).dense()
                    assert dense == [matrix[r][k] for r in range(row_count(g))]

    def test_diagonal_rows_are_zero(self):
        g = random_game("nfg", 2, 2, u_max=9, seed=1)
        for s in g.profiles():
            dense = profile_column(g, s).dense()
            for p in range(g.players):
                for i in range(2):
                    assert dense[helpers.row_position(g, RowIndex(p, i, i))] == 0

    def test_entries_are_sparse(self):
        # rows for actions the profile does not play never appear
        g = random_game("nfg", 3, 3, u_max=9, seed=2)
        s = (1, 0, 2)
        col = profile_column(g, s)
        for pos, value in col.entries:
            row = row_at(g, pos)
            assert value != 0
            assert row.action == s[row.player]
            assert row.deviation != row.action

    def test_constant_game_columns_vanish(self):
        g = load_game({"type": "nfg", "players": 2, "actions": [2, 2],
                       "payoffs": [[4, 4, 4, 4], [1, 1, 1, 1]]})
        for s in g.profiles():
            assert profile_column(g, s).entries == ()

    def test_dot_equals_dense_dot(self):
        rng = random.Random(3)
        g = random_game("polymatrix", 3, 2, u_max=7, seed=5)
        y = helpers.random_nonneg_dual(rng, row_count(g))
        for s in g.profiles():
            col = profile_column(g, s)
            expected = sum(F(v) * w for v, w in zip(col.dense(), y))
            assert col.dot(y) == expected
            assert helpers.column_dual_value(g, s, y) == expected


class TestRowValues:
    def test_matches_enumeration(self):
        rng = random.Random(17)
        for family in ("nfg", "polymatrix"):
            for seed in range(5):
                g = random_game(family, 3, 2, u_max=8, seed=seed)
                x = helpers.random_product(rng, g.actions)
                values = helpers.unit_values(incentive_row_values(g, helpers.product_pairs(x)))
                for position, row in enumerate(helpers.all_rows(g)):
                    assert values[position] == helpers.enum_row_expectation(
                        g, x.strategies, tuple(row))

    def test_point_mass_recovers_column(self):
        g = random_game("nfg", 2, 3, u_max=9, seed=8)
        s = (2, 0)
        x = helpers.point_mass(g.actions, s)
        assert helpers.unit_values(incentive_row_values(g, helpers.product_pairs(x))) == [
            F(v) for v in profile_column(g, s).dense()]

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(games_with_pairs())
    def test_same_split_as_the_lcm_scale_and_enumeration(self, case):
        # the split is unique, so each game type's own weights and scale give
        # bit for bit the values of one common D and of plain enumeration
        g, pairs = case
        values = incentive_row_values(g, pairs)
        assert values == helpers.lcm_row_values(g, pairs)
        strategies = [[F(w, total) for w in mix] for total, mix in pairs]
        direction, unit = helpers.split_column(helpers.fraction_row_values(g, strategies))
        assert values == (tuple(direction), unit)
        assert unit > 0 and math.gcd(*direction) in (0, 1)

    def test_normal_form_kernels_read_the_players_own_weights(self):
        # a common D = lcm(T) would widen player p's weights by D / T_p, about
        # the other two totals' bits; the own weights W_p are never wider
        g = random_game("nfg", 3, (2, 3, 2), u_max=9, seed=3)
        pairs = ((2**61 - 1, (2**60, 2**60 - 1)),
                 (1_000_000_007, (1, 500_000_000, 500_000_006)),
                 (998_244_353, (998_244_350, 3)))
        widest = max(w.bit_length() for _, mix in pairs for w in mix)
        seen = []
        kernel = NormalFormGame.conditional_payoff_ints

        def recording(game, player, weights):
            seen.extend(w for mix in weights for w in mix)
            return kernel(game, player, weights)

        with patch.object(NormalFormGame, "conditional_payoff_ints", recording):
            values = incentive_row_values(g, pairs)
        assert seen and max(w.bit_length() for w in seen) <= widest
        assert values == helpers.lcm_row_values(g, pairs)


class TestSparseCE:
    def test_atoms_canonically_sorted(self):
        ce = SparseCE(atoms=(((1, 1), F(1, 2)), ((0, 0), F(1, 2))))
        assert [a[0] for a in ce.atoms] == [(0, 0), (1, 1)]

    def test_support_and_probability(self):
        ce = SparseCE(atoms=(((0, 0), F(1, 4)), ((1, 1), F(3, 4))))
        assert ce.support == 2
        assert helpers.ce_probability(ce, (1, 1)) == F(3, 4)
        assert helpers.ce_probability(ce, (0, 1)) == 0

    def test_distribution_problems(self):
        assert SparseCE(atoms=(((0,), F(1)),)).distribution_problems() == []
        dup = SparseCE(atoms=(((0,), F(1, 2)), ((0,), F(1, 2))))
        assert any("more than once" in p for p in dup.distribution_problems())
        neg = SparseCE(atoms=(((0,), F(3, 2)), ((1,), F(-1, 2))))
        assert any("negative" in p for p in neg.distribution_problems())
        short = SparseCE(atoms=(((0,), F(1, 2)),))
        assert any("sum" in p for p in short.distribution_problems())

    def test_check_profiles(self):
        g = random_game("nfg", 2, 2, u_max=1, seed=0)
        SparseCE(atoms=(((1, 0), F(1)),)).check_profiles(g)
        with pytest.raises(CertificateMismatchError):
            SparseCE(atoms=(((1,), F(1)),)).check_profiles(g)
        with pytest.raises(CertificateMismatchError):
            SparseCE(atoms=(((2, 0), F(1)),)).check_profiles(g)

    def test_json_round_trip(self):
        ce = SparseCE(atoms=(((0, 1), F(1, 3)), ((1, 0), F(2, 3))))
        again = SparseCE.from_json(ce.to_json())
        assert again == ce

    def test_json_probabilities_are_strings(self):
        ce = SparseCE(atoms=(((0, 1), F(1, 3)), ((1, 0), F(2, 3))))
        doc = ce.to_json()
        assert doc["atoms"][0]["prob"] == "1/3"

    def test_from_json_rejects_floats(self):
        with pytest.raises(CertificateError):
            SparseCE.from_json({"atoms": [{"profile": [0], "prob": 0.5}]})

    def test_from_json_rejects_shapes(self):
        with pytest.raises(CertificateError):
            SparseCE.from_json({"atoms": "nope"})
        with pytest.raises(CertificateError):
            SparseCE.from_json({"atoms": [{"profile": "x", "prob": "1"}]})
        with pytest.raises(CertificateError):
            SparseCE.from_json({"atoms": [{"profile": [0], "prob": "1/0"}]})

    def test_max_probability_bits(self):
        ce = SparseCE(atoms=(((0,), F(3, 4)), ((1,), F(1, 4))))
        # 3/4 has 2-bit numerator and 3-bit denominator
        assert ce.max_probability_bits() == 5


class TestVerifyCE:
    def dominant_game(self):
        # action 0 strictly dominates for both players
        return load_game({
            "type": "nfg", "players": 2, "actions": [2, 2],
            "payoffs": [[1, 5, 0, 3], [1, 0, 5, 3]],
        })

    def test_dominant_point_mass_verifies(self):
        g = self.dominant_game()
        result = verify_ce(g, SparseCE(atoms=(((0, 0), F(1)),)))
        assert result.verdict is True
        assert result.worst_value >= 0

    def test_dominated_point_mass_fails_with_row(self):
        g = self.dominant_game()
        result = verify_ce(g, SparseCE(atoms=(((1, 1), F(1)),)))
        assert result.verdict is False
        # playing 1, switching to 0 gains 2 for either player; worst row
        # carries the exact shortfall
        assert result.worst_value == -2
        assert result.worst_row in (RowIndex(0, 1, 0), RowIndex(1, 1, 0))

    def test_uniform_matching_pennies(self):
        g = load_game({
            "type": "nfg", "players": 2, "actions": [2, 2],
            "payoffs": [[1, 0, 0, 1], [0, 1, 1, 0]],
        })
        uniform = SparseCE(atoms=tuple(
            (s, F(1, 4)) for s in g.profiles()))
        # every incentive row nets zero, checked against the materialized matrix
        matrix = helpers.materialize_matrix(g)
        for r in range(row_count(g)):
            assert sum(matrix[r]) == 0
        result = verify_ce(g, uniform)
        assert result.verdict is True
        assert result.worst_value == 0

    def test_verify_totals_match_materialized_matrix(self):
        for seed in range(4):
            g = random_game("polymatrix", 2, 3, u_max=9, seed=seed)
            atoms = []
            profiles = list(g.profiles())
            weights = [F(k + 1) for k in range(len(profiles))]
            total = sum(weights)
            for s, w in zip(profiles, weights):
                atoms.append((s, w / total))
            ce = SparseCE(atoms=tuple(atoms))
            matrix = helpers.materialize_matrix(g)
            totals = [
                sum(matrix[r][k] * helpers.ce_probability(ce, s)
                    for k, s in enumerate(profiles))
                for r in range(row_count(g))
            ]
            result = verify_ce(g, ce)
            assert result.worst_value == min(totals)
            assert result.verdict == (min(totals) >= 0)
            assert result.worst_row == row_at(g, totals.index(min(totals)))

    def test_bad_distribution_raises(self):
        g = random_game("nfg", 2, 2, u_max=1, seed=0)
        with pytest.raises(CertificateError, match="sum"):
            verify_ce(g, SparseCE(atoms=(((0, 0), F(1, 2)),)))

    def test_profile_mismatch_raises(self):
        g = random_game("nfg", 2, 2, u_max=1, seed=0)
        with pytest.raises(CertificateMismatchError):
            verify_ce(g, SparseCE(atoms=(((0, 0, 0), F(1)),)))
        with pytest.raises(CertificateMismatchError):
            verify_ce(g, SparseCE(atoms=(((True, False), F(1)),)))
