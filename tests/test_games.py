"""Game model: parsing, integerization, payoff queries, generation."""

import json
import math
import random
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from exactce import (
    GameFormatError,
    load_game,
    load_game_file,
    random_game,
)
from exactce import games
from exactce.games import NormalFormGame, PolymatrixGame, ProductDistribution

F = Fraction


def assert_kernel_matches_enumeration(g, x):
    """sum_a X_p(a) kernel[a] is D conditional_scale(D) times p's expected
    payoff under x, where X = D x and kernel is conditional_payoff_ints on X."""
    d, weights = helpers.integer_weights(x)
    for p in range(g.players):
        kernel = g.conditional_payoff_ints(p, weights)
        total = sum(w * k for w, k in zip(weights[p], kernel))
        assert total == d * helpers.conditional_scale(g, d) * helpers.enum_expected_utility(
            g, x.strategies, p)


def nfg_doc(players, actions, payoffs):
    return {"type": "nfg", "players": players, "actions": actions, "payoffs": payoffs}


def assert_deviation_payoffs_are_the_point_mass_kernel(g):
    """deviation_payoffs(p, s) is conditional_payoff_ints on s's 0/1 masses."""
    for s in g.profiles():
        masses = [[int(k == a) for k in range(m)] for m, a in zip(g.actions, s)]
        for p in range(g.players):
            assert g.deviation_payoffs(p, s) == g.conditional_payoff_ints(p, masses)


class TestHeaderValidation:
    def test_unknown_type(self):
        with pytest.raises(GameFormatError, match="unknown game type"):
            load_game({"type": "extensive"})

    def test_not_an_object(self):
        with pytest.raises(GameFormatError):
            load_game("[1, 2]")

    def test_bad_json_text(self):
        with pytest.raises(GameFormatError, match="not valid JSON"):
            load_game("{nope")

    def test_players_action_mismatch(self):
        with pytest.raises(GameFormatError):
            load_game(nfg_doc(2, [2], [[0, 0], [0, 0]]))

    def test_zero_actions(self):
        with pytest.raises(GameFormatError):
            load_game(nfg_doc(1, [0], [[]]))

    def test_float_utility_rejected(self):
        with pytest.raises(GameFormatError, match="float"):
            load_game(nfg_doc(1, [2], [[0.5, 1]]))

    def test_bool_utility_rejected(self):
        with pytest.raises(GameFormatError, match="boolean"):
            load_game(nfg_doc(1, [2], [[True, 1]]))

    def test_bad_rational_string(self):
        with pytest.raises(GameFormatError, match="bad rational"):
            load_game(nfg_doc(1, [2], [["one half", 1]]))

    @pytest.mark.parametrize("text, value", [
        ("1e3", 1000), ("1.5e3", 1500), ("25e-1", Fraction(5, 2)), ("-2E+2", -200),
        ("1e4299", 10**4299), ("1e-4299", Fraction(1, 10**4299)),
        ("1e4300", None), ("1e-4300", None), ("12.5e4299", None), ("1e10000000", None),
    ])
    def test_exponent_within_digit_limit(self, text, value):
        # numerator and denominator must stay printable: at most
        # sys.get_int_max_str_digits() = 4300 decimal digits
        doc = nfg_doc(1, [2], [[text, 0]])
        if value is None:
            with pytest.raises(GameFormatError, match="4300 decimal digits"):
                load_game(doc)
        else:
            g = load_game(doc)
            # the scale is the lcm of the denominators, here the value's own
            assert g.payoff(0, (0,)) - g.payoff(0, (1,)) == value * F(value).denominator

    def test_table_length_checked(self):
        with pytest.raises(GameFormatError, match="exactly 4"):
            load_game(nfg_doc(2, [2, 2], [[1, 2, 3], [1, 2, 3, 4]]))


class TestNormalForm:
    def test_payoff_layout_player0_outermost(self):
        # profile (i, j) lives at flat index i * 3 + j for 2x3
        g = load_game(nfg_doc(2, [2, 3], [list(range(6)), [0] * 6]))
        for i in range(2):
            for j in range(3):
                assert g.payoff(0, (i, j)) == i * 3 + j

    def test_payoff_matches_direct_indexing(self):
        for seed in range(8):
            g = random_game("nfg", 3, (2, 3, 2), u_max=9, seed=seed)
            for s in g.profiles():
                for p in range(3):
                    assert g.payoff(p, s) == helpers.payoff_direct(g, s, p)

    def test_rational_utilities_integerized(self):
        # scaled by lcm(2, 3) = 6, and not shifted
        g = load_game(nfg_doc(1, [2], [["1/2", "1/3"]]))
        assert g.tables[0] == (3, 2)

    def test_negative_utilities_shifted(self):
        # not scaled, and shifted by 2
        g = load_game(nfg_doc(1, [3], [[-2, 0, 5]]))
        assert g.tables[0] == (0, 2, 7)

    def test_adjustment_is_affine_per_player(self):
        raw = [["-1/2", "3/4", 2, 0], [5, "1/5", "-7/5", 1]]
        g = load_game(nfg_doc(2, [2, 2], raw))
        # player 0 is scaled by lcm(2, 4) = 4 to -2, 3, 8, 0 and shifted by 2;
        # player 1 by 5 to 25, 1, -7, 5 and shifted by 7
        for p, scale, shift in [(0, 4, 2), (1, 5, 7)]:
            for k, s in enumerate(g.profiles()):
                assert g.payoff(p, s) == scale * F(raw[p][k]) + shift

    def test_u_max_and_ceiling(self):
        g = load_game(nfg_doc(2, [2, 2], [[1, 7, 3, 2], [0, 1, 2, 3]]))
        assert g.u_max == 7
        assert g.payoff_ceiling() == 7

    def test_profiles_lexicographic(self):
        g = random_game("nfg", 2, (2, 3), u_max=1, seed=0)
        assert list(g.profiles()) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert g.num_profiles == 6

    def test_check_profile(self):
        g = random_game("nfg", 2, 2, u_max=1, seed=0)
        assert g.check_profile([1, 0]) == (1, 0)
        with pytest.raises(ValueError):
            g.check_profile((1,))
        with pytest.raises(ValueError):
            g.check_profile((2, 0))
        # a bool is an int to isinstance, but a certificate holding one
        # would write [true, false], which SparseCE.from_json refuses
        with pytest.raises(ValueError, match="True"):
            g.check_profile((True, False))

    def test_expected_utility_matches_enumeration(self):
        rng = random.Random(11)
        for seed in range(10):
            g = random_game("nfg", 3, 2, u_max=8, seed=seed)
            assert_kernel_matches_enumeration(g, helpers.random_product(rng, g.actions))

    def test_expected_utility_at_point_mass(self):
        g = random_game("nfg", 2, 3, u_max=9, seed=4)
        d, weights = helpers.integer_weights(helpers.point_mass(g.actions, (2, 1)))
        kernel = g.conditional_payoff_ints(0, weights)
        assert kernel[2] == helpers.conditional_scale(g, d) * g.payoff(0, (2, 1))

    def test_deviation_payoffs(self):
        for seed in range(4):
            assert_deviation_payoffs_are_the_point_mass_kernel(
                random_game("nfg", 3, (2, 3, 2), u_max=9, seed=seed))

    def test_document_round_trip(self):
        g = random_game("nfg", 2, (2, 3), u_max=9, seed=3)
        again = load_game(g.to_document())
        assert isinstance(again, NormalFormGame)
        assert again.tables == g.tables
        assert again.actions == g.actions

    def test_document_is_json_serializable(self):
        g = random_game("nfg", 2, 2, u_max=5, seed=0)
        json.dumps(g.to_document())


class TestPolymatrix:
    def doc(self, actions, edges):
        return {
            "type": "polymatrix",
            "players": len(actions),
            "actions": actions,
            "edges": edges,
        }

    def test_payoff_is_sum_of_blocks(self):
        for seed in range(8):
            g = random_game("polymatrix", 3, (2, 2, 3), u_max=7, seed=seed)
            for s in g.profiles():
                for p in range(3):
                    assert g.payoff(p, s) == helpers.payoff_direct(g, s, p)

    def test_missing_edges_are_zero(self):
        g = load_game(self.doc([2, 2], [
            {"p": 0, "q": 1, "matrix": [[1, 2], [3, 4]]},
        ]))
        assert g.blocks[1][0] == ((0, 0), (0, 0))
        assert g.payoff(1, (0, 0)) == 0
        assert g.payoff(0, (1, 1)) == 4

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GameFormatError, match="duplicate"):
            load_game(self.doc([2, 2], [
                {"p": 0, "q": 1, "matrix": [[0, 0], [0, 0]]},
                {"p": 0, "q": 1, "matrix": [[1, 1], [1, 1]]},
            ]))

    def test_self_edge_rejected(self):
        with pytest.raises(GameFormatError, match="self edge"):
            load_game(self.doc([2, 2], [{"p": 1, "q": 1, "matrix": [[0, 0], [0, 0]]}]))

    @pytest.mark.parametrize("p, q", [(True, False), (0, True), (False, 1)])
    def test_boolean_endpoints_rejected(self, p, q):
        # JSON true/false are Python ints, but not player indices
        with pytest.raises(GameFormatError, match="bad player pair"):
            load_game(self.doc([2, 2], [{"p": p, "q": q, "matrix": [[0, 1], [2, 3]]}]))

    def test_block_shape_checked(self):
        with pytest.raises(GameFormatError, match="rows"):
            load_game(self.doc([2, 3], [{"p": 0, "q": 1, "matrix": [[0, 0, 0]]}]))

    def test_per_edge_shift_recorded(self):
        g = load_game(self.doc([2, 2], [
            {"p": 0, "q": 1, "matrix": [[-1, 0], [2, 3]]},
            {"p": 1, "q": 0, "matrix": [["-1/2", 0], [0, 0]]},
        ]))
        # player 0: integer block shifted by 1; player 1: scaled by 2, shifted by 1
        assert g.blocks[0][1] == ((0, 1), (3, 4))
        assert g.blocks[1][0] == ((0, 1), (1, 1))

    def test_shift_preserves_deviation_differences(self):
        raw_edges = [
            {"p": 0, "q": 1, "matrix": [[-3, 1], [0, -2]]},
            {"p": 1, "q": 0, "matrix": [[4, -1], [-5, 2]]},
        ]
        g = load_game(self.doc([2, 2], raw_edges))

        def raw_payoff(p, s):
            mat = raw_edges[p]["matrix"] if p == 0 else raw_edges[1]["matrix"]
            return mat[s[p]][s[1 - p]]

        for s in g.profiles():
            for p in range(2):
                for j in range(2):
                    dev = list(s)
                    dev[p] = j
                    got = g.payoff(p, s) - g.payoff(p, tuple(dev))
                    # integer utilities: the scale is 1
                    want = raw_payoff(p, s) - raw_payoff(p, tuple(dev))
                    assert got == want

    def test_expected_utility_matches_enumeration(self):
        rng = random.Random(5)
        for seed in range(10):
            g = random_game("polymatrix", 3, (2, 3, 2), u_max=6, seed=seed)
            assert_kernel_matches_enumeration(g, helpers.random_product(rng, g.actions))

    def test_deviation_payoffs(self):
        for seed in range(4):
            assert_deviation_payoffs_are_the_point_mass_kernel(
                random_game("polymatrix", 3, (2, 3, 2), u_max=9, seed=seed))

    def test_ceiling_equals_best_profile_payoff(self):
        for seed in range(6):
            g = random_game("polymatrix", 3, 3, u_max=9, seed=seed)
            best = max(
                helpers.payoff_direct(g, s, p)
                for s in g.profiles()
                for p in range(g.players)
            )
            assert g.payoff_ceiling() == best
            assert g.u_max <= g.payoff_ceiling()

    def test_document_round_trip(self):
        g = random_game("polymatrix", 3, (2, 2, 3), u_max=9, seed=1)
        again = load_game(g.to_document())
        assert isinstance(again, PolymatrixGame)
        assert again.blocks == g.blocks

    def test_expand_to_normal_form(self):
        g = random_game("polymatrix", 3, 2, u_max=5, seed=2)
        flat = helpers.expand_to_normal_form(g)
        assert isinstance(flat, NormalFormGame)
        assert flat.actions == g.actions
        for s in g.profiles():
            for p in range(g.players):
                assert flat.payoff(p, s) == g.payoff(p, s)

    def test_one_player_polymatrix_is_constant_zero(self):
        g = random_game("polymatrix", 1, 3, u_max=9, seed=0)
        assert all(g.payoff(0, s) == 0 for s in g.profiles())


class TestRandomGame:
    def test_deterministic(self):
        a = random_game("nfg", 3, 2, u_max=10, seed=42)
        b = random_game("nfg", 3, 2, u_max=10, seed=42)
        assert a.to_document() == b.to_document()
        c = random_game("polymatrix", 3, 2, u_max=10, seed=42)
        d = random_game("polymatrix", 3, 2, u_max=10, seed=42)
        assert c.to_document() == d.to_document()

    def test_seed_changes_game(self):
        a = random_game("nfg", 3, 2, u_max=10, seed=0)
        b = random_game("nfg", 3, 2, u_max=10, seed=1)
        assert a.to_document() != b.to_document()

    def test_range_respected(self):
        g = random_game("nfg", 2, 3, u_max=4, seed=9)
        assert all(0 <= v <= 4 for table in g.tables for v in table)

    def test_per_player_action_counts(self):
        g = random_game("nfg", 3, (2, 3, 4), u_max=3, seed=0)
        assert g.actions == (2, 3, 4)
        with pytest.raises(GameFormatError):
            random_game("nfg", 3, (2, 3), u_max=3, seed=0)

    def test_unknown_family(self):
        with pytest.raises(GameFormatError, match="family is one of nfg, polymatrix$"):
            random_game("graphical", 2, 2, u_max=3, seed=0)

    @pytest.mark.parametrize("family", sorted(games.FAMILIES))
    def test_family_owns_its_document_type(self, family):
        cls = games.FAMILIES[family]
        g = random_game(family, 3, (2, 3, 2), u_max=9, seed=4)
        assert type(g) is cls and g.family == family
        document = g.to_document()
        assert document["type"] == family
        assert load_game(document) == g
        assert load_game(json.dumps(document)) == g

    @pytest.mark.parametrize("unknown", ["graphical", "NFG", None, ["nfg"]])
    def test_unknown_document_type_names_the_families(self, unknown):
        with pytest.raises(GameFormatError,
                           match="^unknown game type .*: a family is one of nfg, polymatrix$"):
            load_game({"type": unknown, "players": 1, "actions": [1]})

    @pytest.mark.parametrize("players, actions, u_max", [
        (True, 2, 5), (2, True, 5), (2, (2, True), 5), (2, 2, True), (2, 2, False),
    ])
    def test_bool_setting_refused(self, players, actions, u_max):
        # isinstance(True, int) holds, but a document whose action counts
        # are JSON booleans does not load
        with pytest.raises(GameFormatError):
            random_game("nfg", players, actions, u_max=u_max, seed=0)

    def test_bool_action_count_refused(self):
        with pytest.raises(GameFormatError, match="positive action count"):
            NormalFormGame(actions=(True, 2), tables=((0, 0),) * 2)

    @pytest.mark.parametrize("bad", [-1, 1.0, Fraction(1), "1", None])
    def test_stored_payoff_refused(self, bad):
        ok = (3, 0, True, False)  # a bool is an int, and is stored as given
        NormalFormGame(actions=(2, 2), tables=(ok, ok))
        with pytest.raises(GameFormatError,
                           match=r"^player 1: stored payoffs must be nonnegative integers$"):
            NormalFormGame(actions=(2, 2), tables=(ok, (0, 5, bad, 2)))
        good = ((3, True), (False, 0))
        PolymatrixGame(actions=(2, 2), blocks=((None, good), (good, None)))
        with pytest.raises(GameFormatError,
                           match=r"^block \(1,0\): stored payoffs must be nonnegative integers$"):
            PolymatrixGame(actions=(2, 2), blocks=((None, good), (((0, 1), (bad, 2)), None)))

    def test_load_game_file(self, tmp_path):
        g = random_game("nfg", 2, 2, u_max=5, seed=7)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(g.to_document()))
        again = load_game_file(path)
        assert again.tables == g.tables


class TestSizeCeiling:
    """Games storing more than 2^20 payoffs are refused before allocation.

    Every oversize input here stays cheap to build, so a missing check shows
    as a failed assertion, not a hang."""

    @pytest.mark.parametrize("family, actions, refused", [
        ("nfg", [1024, 512], False),  # 2 * 2^19 payoffs
        ("nfg", [1024, 513], True),
        ("nfg", [1 << 20], False),
        ("nfg", [2] * 17, True),  # 17 * 2^17
        ("polymatrix", [1] * 1024, False),  # 1024 * 1023 ordered pairs
        ("polymatrix", [1] * 1025, True),
        ("polymatrix", [724, 724], False),  # 2 * 724^2
        ("polymatrix", [725, 725], True),
    ])
    def test_stored_payoff_count(self, family, actions, refused):
        cls = games.FAMILIES[family]
        assert (cls.stored_payoffs(actions) > games.MAX_STORED_PAYOFFS) == refused
        if refused:
            with pytest.raises(GameFormatError, match="stores more than"):
                games._check_counts(cls, len(actions), actions)
        else:
            assert games._check_counts(cls, len(actions), actions) == tuple(actions)

    def test_nfg_document_refused(self):
        with pytest.raises(GameFormatError, match="stores more than 1048576 payoffs"):
            load_game(nfg_doc(2, [1024, 1024], [[], []]))

    def test_polymatrix_document_refused(self):
        doc = {"type": "polymatrix", "players": 2, "actions": [725, 725], "edges": []}
        with pytest.raises(GameFormatError, match="stores more than"):
            load_game(doc)

    @pytest.mark.parametrize("family, players, actions", [
        ("nfg", 1, (1 << 20) + 1),
        ("polymatrix", 2, 725),
        ("nfg", (1 << 20) + 1, 1),
        ("polymatrix", (1 << 20) + 1, 1),
    ])
    def test_random_game_refused(self, family, players, actions):
        with pytest.raises(GameFormatError, match="stores more than"):
            random_game(family, players, actions, u_max=1, seed=0)


UTILITIES = st.one_of(
    st.integers(0, 40),
    st.integers(-40, -1),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-40, 40), st.integers(1, 12)),
    st.sampled_from(["0.25", "-1.5e1", "3e-2", "7", "-7/9"]),
)


@st.composite
def payoff_documents(draw):
    """nfg and polymatrix documents whose utilities mix nonnegative ints,
    negative ints and rational strings, within one table too."""
    players = draw(st.integers(1, 3))
    actions = draw(st.lists(st.integers(1, 3), min_size=players, max_size=players))
    if draw(st.booleans()):
        m = math.prod(actions)
        payoffs = [draw(st.lists(UTILITIES, min_size=m, max_size=m)) for _ in actions]
        return nfg_doc(players, actions, payoffs)
    edges = [
        {"p": p, "q": q, "matrix": [draw(st.lists(UTILITIES, min_size=actions[q],
                                                  max_size=actions[q]))
                                    for _ in range(actions[p])]}
        for p in range(players) for q in range(players)
        if p != q and draw(st.booleans())
    ]
    return {"type": "polymatrix", "players": players, "actions": actions, "edges": edges}


class TestIntegerization:
    @settings(max_examples=300, deadline=None)
    @given(payoff_documents())
    def test_matches_the_fraction_integerizer(self, doc):
        g = load_game(doc)
        assert (g.tables if g.family == "nfg" else g.blocks) == helpers.reference_load(doc)

    @settings(max_examples=100, deadline=None)
    @given(payoff_documents())
    def test_reloaded_document_gives_an_equal_game(self, doc):
        # a game holds only its stored payoffs, so the integerized document
        # of a rational one loads to the same game
        g = load_game(doc)
        assert load_game(g.to_document()) == g

    @pytest.mark.parametrize("family, players, actions", [("nfg", 3, 3), ("polymatrix", 4, 3)])
    def test_int_documents_build_no_fraction_per_payoff(self, family, players, actions):
        doc = random_game(family, players, actions, u_max=10, seed=1).to_document()
        if family == "nfg":
            doc["payoffs"][1] = [v - 20 for v in doc["payoffs"][1]]
        else:
            doc["edges"][1]["matrix"] = [[v - 20 for v in row] for row in doc["edges"][1]["matrix"]]
        made = []

        def counting(*args):
            made.append(args)
            return F(*args)

        with mock.patch.object(games, "Fraction", counting):
            g = load_game(doc)
        assert made == []
        # the negative table or block is stored shifted to a minimum of 0
        if family == "nfg":
            raw, got = [doc["payoffs"][1]], (g.tables[1],)
        else:
            edge = doc["edges"][1]
            raw, got = edge["matrix"], g.blocks[edge["p"]][edge["q"]]
        low = min(map(min, raw))
        assert low < 0 and got == tuple(tuple(v - low for v in row) for row in raw)
        assert (g.tables if family == "nfg" else g.blocks) == helpers.reference_load(doc)

    @pytest.mark.parametrize("family", ["nfg", "polymatrix"])
    @pytest.mark.parametrize("value, problem", [
        (True, "boolean"), (1.5, "float"), (10**4399, "4300 decimal digits"),
    ], ids=["bool", "float", "4400-digit-int"])
    def test_refusals_on_int_documents(self, family, value, problem):
        doc = random_game(family, 2, 2, u_max=10, seed=0).to_document()
        if family == "nfg":
            doc["payoffs"][1][2] = value
        else:
            doc["edges"][1]["matrix"][1][0] = value
        with pytest.raises(GameFormatError, match=problem):
            load_game(doc)


class TestProductDistribution:
    def test_uniform(self):
        x = helpers.uniform_product((2, 4))
        assert x.strategies == ((F(1, 2), F(1, 2)),) + ((F(1, 4),) * 4,)

    def test_point_mass_and_profile(self):
        x = helpers.point_mass((2, 3), (1, 2))
        assert x.strategies == ((F(0), F(1)), (F(0), F(0), F(1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductDistribution(strategies=((F(1, 2), F(1, 3)),))
        with pytest.raises(ValueError):
            ProductDistribution(strategies=((F(3, 2), F(-1, 2)),))

    def test_pairs(self):
        # each player over the lcm of its own denominators
        x = ProductDistribution(((F(1, 3), F(2, 3)), (F(1, 2), F(1, 4), F(1, 4))))
        assert helpers.product_pairs(x) == ((3, (1, 2)), (4, (2, 1, 1)))
        assert helpers.product_pairs(helpers.point_mass((2, 3), (1, 2))) == (
            (1, (0, 1)), (1, (0, 0, 1)))

    @pytest.mark.parametrize("family", ["nfg", "polymatrix"])
    def test_kernel_weights_carry_one_scale(self, family):
        # sum_a X_p(a) K_p(a) is S times p's expected payoff, with normal form
        # on each player's own weights over prod T and polymatrix over lcm(T)^2
        rng = random.Random(5)
        for seed in range(6):
            g = random_game(family, 3, (2, 3, 2), u_max=9, seed=seed)
            x = helpers.random_product(rng, g.actions)
            pairs = helpers.product_pairs(x)
            weights, scale = g.kernel_weights(pairs)
            totals = [total for total, _ in pairs]
            if family == "nfg":
                assert [tuple(w) for w in weights] == [mix for _, mix in pairs]
                assert scale == math.prod(totals)
            else:
                assert scale == math.lcm(*totals) ** 2
            for p in range(g.players):
                kernel = g.conditional_payoff_ints(p, weights)
                assert F(sum(map(mul, weights[p], kernel)), scale) == (
                    helpers.enum_expected_utility(g, x.strategies, p))
