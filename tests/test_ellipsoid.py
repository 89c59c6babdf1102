"""Central-cut engine: exact snapshots, contraction, the run loop."""

import math
from dataclasses import dataclass
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactce import (
    PrecisionError,
    SolveConfig,
    SolverError,
    compute_exact_ce,
    random_game,
    row_count,
)
from exactce import solver
from exactce.ellipsoid import (
    EllipsoidParams,
    EllipsoidState,
    Outcome,
    iteration_bound,
    run,
    update,
)
from exactce.incentives import profile_column
from exactce.oracles import TIE_BREAKS, ProfileCut, cut_violation, purified_separation

F = Fraction


@dataclass(frozen=True)
class FakeCut:
    """Minimal stand-in satisfying the cut surface the run loop touches."""

    vector: tuple
    rhs: Fraction
    kind: str = "profile"
    key: object = None
    unit: Fraction = Fraction(1)

    def normal(self):
        return list(self.vector)

    def roster_key(self):
        return self.key

    def describe(self):
        return {"kind": self.kind}


def expected_drop(n: int) -> float:
    if n == 1:
        return math.log(2.0)
    return -0.5 * (n * math.log(n * n / (n * n - 1.0))
                   + math.log((n - 1.0) / (n + 1.0)))


class TestConversions:
    def test_snapshot_is_exact_dyadic(self):
        state = EllipsoidState.initial_ball(3, 4.0, 128)
        snap = state.snapshot()
        assert snap == (F(0), F(0), F(0))
        assert all(row[i] == F(2) ** 8 for i, row in enumerate(state.shape_matrix()))
        after = update(state, [F(1), F(2, 3), F(-1)])
        for value, (man, exp) in zip(after.snapshot(), after.center):
            assert value == man * F(2) ** exp
            assert value.denominator & (value.denominator - 1) == 0
            assert abs(man).bit_length() <= 128


class TestInitialBall:
    def test_geometry(self):
        state = EllipsoidState.initial_ball(2, 10.0, 256)
        assert state.dimension == 2
        assert state.iteration == 0
        assert state.shape_matrix() == ((F(2) ** 20, F(0)), (F(0), F(2) ** 20))
        assert all(man.bit_length() == 256 for man, _ in state.pivots)
        assert EllipsoidState.initial_ball(1, 0.5, 64).shape_matrix() == ((F(2),),)
        # a radius whose square is not a power of two is refused
        with pytest.raises(ValueError, match="log2_radius"):
            EllipsoidState.initial_ball(2, 0.3, 64)

    def test_log_volume_of_unit_ball(self):
        state = EllipsoidState.initial_ball(2, 0.0, 256)
        assert state.log_volume() == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_log_det_diagonal(self):
        state = EllipsoidState.initial_ball(3, 2.0, 256)
        assert state.log_det() == pytest.approx(3 * math.log(16.0), abs=1e-12)


class TestUpdate:
    def test_one_dimensional_halving_is_exact(self):
        state = EllipsoidState.initial_ball(1, 3.0, 128)
        after = update(state, [F(1)])
        assert after.snapshot() == (F(-4),)  # center moves by r/2 = 4
        assert after.shape_matrix() == ((F(16),),)  # (r/2)^2
        assert after.iteration == 1

    def test_two_dimensional_hand_values(self):
        state = EllipsoidState.initial_ball(2, 0.0, 256)
        after = update(state, [F(1), F(0)])
        tol = F(1, 2**200)
        center = after.snapshot()
        assert abs(center[0] + F(1, 3)) <= tol and center[1] == 0
        shape = after.shape_matrix()
        assert abs(shape[0][0] - F(4, 9)) <= tol
        assert abs(shape[1][1] - F(4, 3)) <= tol
        assert shape[0][1] == 0 and shape[1][0] == 0

    def test_rejects_bad_normals(self):
        state = EllipsoidState.initial_ball(2, 0.0, 128)
        with pytest.raises(ValueError):
            update(state, [F(1)])
        with pytest.raises(ValueError):
            update(state, [F(0), F(0)])

    def test_volume_drop_matches_closed_form(self):
        for n in range(1, 7):
            state = EllipsoidState.initial_ball(n, 0.0, 256)
            normal = [F(0)] * n
            normal[0] = F(1)
            after = update(state, normal)
            drop = (state.log_det() - after.log_det()) / 2.0
            assert drop == pytest.approx(expected_drop(n), abs=1e-9)
            assert drop >= 1.0 / (5 * n)

    def test_scale_equivariance_for_power_of_two_radii(self):
        # doubling the radius scales every iterate exactly: centers by 2,
        # shape entries by 4; fixed-point rounding commutes with the shift
        cuts = [[F(1), F(0)], [F(0), F(1)], [F(-1), F(2)], [F(3), F(1)]]
        small = EllipsoidState.initial_ball(2, 5.0, 192)
        large = EllipsoidState.initial_ball(2, 6.0, 192)
        for normal in cuts:
            small = update(small, normal)
            large = update(large, normal)
            assert tuple(2 * c for c in small.snapshot()) == large.snapshot()
            small_shape = small.shape_matrix()
            large_shape = large.shape_matrix()
            for i in range(2):
                for j in range(2):
                    assert 4 * small_shape[i][j] == large_shape[i][j]

    def test_non_positive_definite_shape_raises(self):
        state = EllipsoidState.initial_ball(2, 0.0, 128)
        for pivot in ((0, 0), (-(2**127), -127)):
            broken = EllipsoidState(
                center=state.center,
                columns=state.columns,
                pivots=(state.pivots[0], pivot),
                precision_bits=128,
                iteration=0,
            )
            with pytest.raises(PrecisionError):
                broken.log_det()

    def test_exact_test_decides_what_floats_cannot(self):
        # [[1, 1], [1, 1 + d]] with d = +-2**-80: machine floats round 1 + d
        # to 1 and see a zero pivot, while the stored pivots 1 and d are
        # exact, and their signs decide
        one = 1 << (80 + 16)
        for sign in (1, -1):
            state = EllipsoidState(
                center=((0, 0), (0, 0)), columns=((one,), ()),
                pivots=((1, 0), (sign, -80)), precision_bits=80)
            corner = state.shape_matrix()[1][1]
            assert corner == 1 + sign * F(1, 2**80) and float(corner) == 1.0
            if sign > 0:
                assert state.log_det() == pytest.approx(-80 * math.log(2.0), abs=1e-9)
            else:
                with pytest.raises(PrecisionError):
                    state.log_det()


def exact_central_cut(shape, center, normal, bits):
    """The central-cut update in exact rationals, with sqrt(gamma) to far more
    than `bits` bits."""
    n = len(center)
    pa = [sum((shape[i][k] * normal[k] for k in range(n)), F(0)) for i in range(n)]
    gamma = sum((a * v for a, v in zip(normal, pa)), F(0))
    extra = 2 ** (2 * bits + 64)
    root = F(math.isqrt(gamma.numerator * gamma.denominator * extra * extra),
             gamma.denominator * extra)
    new_center = [c - v / ((n + 1) * root) for c, v in zip(center, pa)]
    if n == 1:
        return [[shape[0][0] / 4]], new_center
    factor = F(n * n, n * n - 1)
    twice = F(2, n + 1)
    new_shape = [[factor * (shape[i][j] - twice * pa[i] * pa[j] / gamma)
                  for j in range(n)] for i in range(n)]
    return new_shape, new_center


def leading_pivots(matrix):
    """Pivots of exact elimination without row exchanges, up to the first
    one that is not positive. All n are positive exactly when every leading
    principal minor is, and their product is then the determinant."""
    m = [list(row) for row in matrix]
    n = len(m)
    pivots = []
    for k in range(n):
        pivots.append(m[k][k])
        if m[k][k] <= 0:
            break
        for i in range(k + 1, n):
            ratio = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= ratio * m[k][j]
    return pivots


def is_positive_definite(matrix):
    pivots = leading_pivots(matrix)
    return len(pivots) == len(matrix) and pivots[-1] > 0


@st.composite
def update_chains(draw):
    n = draw(st.integers(1, 8))
    bits = draw(st.sampled_from([16, 53, 96, 256]))
    # axis exponents both below and above the step's fractional bits, up to
    # the certified radius of a small game, so the center is aligned both ways
    log2_radius = draw(st.one_of(
        st.integers(-12, 24).map(lambda k: k / 2),
        st.integers(2 * bits, 2 * bits + 128).map(lambda k: k / 2),
        st.sampled_from([999.5, 1063.0]),
    ))
    sparse = st.integers(0, n - 1).map(
        lambda i: [F(-1) if j == i else F(0) for j in range(n)])
    entries = st.one_of(
        st.integers(-20, 20).map(F),
        st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
        st.integers(-(2**400), 2**400).map(F),  # a . P a far wider than the step
    )
    dense = st.lists(entries, min_size=n, max_size=n).filter(any)
    # a central cut multiplies the condition number by at most
    # (n + 1) / (n - 1) <= 3, so short chains keep it far below 2**bits
    cuts = draw(st.lists(st.one_of(sparse, dense), min_size=1,
                         max_size=4 if bits == 16 else 12))
    return n, bits, log2_radius, cuts


def checked_update(state, normal):
    """update(), asserted against the exact central cut of the stored state."""
    n, bits = state.dimension, state.precision_bits
    tol = F(1, 2 ** (bits - 8))
    shape, center = state.shape_matrix(), state.snapshot()
    want_shape, want_center = exact_central_cut(shape, center, normal, bits)
    state = update(state, normal)
    got_shape, got_center = state.shape_matrix(), state.snapshot()
    scale = max(want_shape[i][i] for i in range(n))
    for i in range(n):
        for j in range(n):
            assert abs(got_shape[i][j] - want_shape[i][j]) <= tol * scale
    # a coordinate near zero is accurate to the step's size, which is
    # at most the square root of the largest diagonal entry
    step_scale = max(shape[i][i] for i in range(n))
    for got, want in zip(got_center, want_center):
        assert (got - want) ** 2 <= tol * tol * max(want * want, step_scale)
    assert all(man.bit_length() == bits for man, _ in state.pivots)
    assert is_positive_definite(got_shape)
    return state


class TestFixedPointUpdate:
    @settings(max_examples=80, deadline=None)
    @given(update_chains())
    def test_tracks_exact_central_cut(self, chain):
        n, bits, log2_radius, cuts = chain
        state = EllipsoidState.initial_ball(n, log2_radius, bits)
        for normal in cuts:
            state = checked_update(state, normal)

    @settings(max_examples=30, deadline=None)
    @given(update_chains())
    def test_log_det_reads_the_exact_determinant(self, chain):
        n, bits, log2_radius, cuts = chain
        state = EllipsoidState.initial_ball(n, log2_radius, bits)
        for normal in cuts:
            state = update(state, normal)
            shape = state.shape_matrix()
            assert is_positive_definite(shape)
            det = math.prod(leading_pivots(shape))
            exact = math.log(det.numerator) - math.log(det.denominator)
            assert state.log_det() == pytest.approx(exact, rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_nonnegativity_cut_keeps_later_columns(self, n):
        # u = L^T (-e_k) vanishes past k, so no column after k is rewritten
        state = EllipsoidState.initial_ball(n, 10.0, 96)
        for normal in ([F(j + 1, 3) for j in range(n)], [F(1)] * (n - 1) + [F(-2)]):
            state = update(state, normal)
        assert all(any(col) for col in state.columns[:-1])
        for k in range(n):
            after = update(state, [F(-1) if j == k else F(0) for j in range(n)])
            assert after.columns[k + 1:] == state.columns[k + 1:]

    @pytest.mark.parametrize("n, log2_radius, bits", [(2, 40.0, 16), (3, 1063.0, 256)])
    def test_radius_beyond_the_step_fraction(self, n, log2_radius, bits):
        # the initial center is all zeros and the axis exponents exceed the
        # step's fractional bits, so the step is shifted left onto them
        for first in ([F(j + 1, 3) for j in range(n)], [F(-1)] + [F(0)] * (n - 1)):
            state = EllipsoidState.initial_ball(n, log2_radius, bits)
            for normal in (first, [F(0)] * (n - 1) + [F(-1)], [F(2)] * n):
                state = checked_update(state, normal)


class TestIntegerCenter:
    @settings(max_examples=60, deadline=None)
    @given(update_chains())
    def test_equals_the_snapshot(self, chain):
        n, bits, log2_radius, cuts = chain
        state = EllipsoidState.initial_ball(n, log2_radius, bits)
        for normal in [None, *cuts]:
            if normal is not None:
                state = update(state, normal)
            point = state.integer_center()
            d = point.denominator
            assert d > 0 and d & (d - 1) == 0
            assert all(isinstance(v, int) for v in point.numerators)
            assert tuple(F(v, d) for v in point.numerators) == state.snapshot()

    def test_zero_coordinates_at_a_large_radius(self):
        # every exponent is positive, so the denominator is 1, and the
        # coordinates the sparse cuts leave alone stay exactly zero
        state = EllipsoidState.initial_ball(3, 1063.0, 64)
        for k in (0, 2):
            state = update(state, [F(-1) if j == k else F(0) for j in range(3)])
        assert all(exp > 0 for man, exp in state.center if man)
        point = state.integer_center()
        assert point.denominator == 1
        assert point.numerators[1] == 0 and all(point.numerators[::2])
        assert point.numerators == state.snapshot()


class TestIterationBound:
    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_bound(0, 2)
        with pytest.raises(ValueError):
            iteration_bound(2, -1)

    def test_low_u_substitution(self):
        assert iteration_bound(3, 0) == iteration_bound(3, 2)
        assert iteration_bound(3, 1) == iteration_bound(3, 2)

    def test_monotone(self):
        values_n = [iteration_bound(n, 10) for n in range(1, 8)]
        assert values_n == sorted(values_n)
        values_u = [iteration_bound(4, u) for u in range(2, 30)]
        assert values_u == sorted(values_u)

    def test_returns_int(self):
        assert isinstance(iteration_bound(2, 10), int)

    @pytest.mark.parametrize("n, u, bound", [
        (1, 2, 42),
        (8, 10, 23012589),
        (36, 10, 178908642403),
        (72, 10, 11338770301340),
        (108, 100, 257465547695790),
        (1000, 2**64 + 1, 1553758719943173405592),
    ])
    def test_pinned_values(self, n, u, bound):
        # the values of the same ceiling taken with 256-bit mpmath
        assert iteration_bound(n, u) == bound


class TestParams:
    def test_practical_defaults(self):
        params = EllipsoidParams.practical()
        assert params.log2_radius == 10.0
        assert params.stop_log_volume is None
        assert params.max_iters == 2000

    def test_certified_shapes(self):
        n, u = 2, 10
        params = EllipsoidParams.certified(n, u)
        assert params.log2_radius == float(math.ceil(5 * n**3 * math.log2(u)))
        assert params.max_iters == iteration_bound(n, u)
        assert params.stop_log_volume is not None
        assert params.stop_log_volume < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EllipsoidParams(10.0, None, 0, 256)
        with pytest.raises(ValueError):
            EllipsoidParams(10.0, None, 10, 8)


class TestRunLoop:
    def test_unviolated_cut_is_rejected(self):
        # a constraint satisfied at the query point means the oracle lied
        oracle = lambda y: FakeCut((F(1), F(0)), rhs=F(1))
        with pytest.raises(SolverError) as info:
            run(2, EllipsoidParams.practical(2.0, 10, 128), oracle)
        assert info.value.transcript is not None

    def test_zero_normal_certifies_infeasibility(self):
        g = random_game("nfg", 2, 2, u_max=0, seed=0)  # constant game
        column = profile_column(g, (0, 0))
        assert column.entries == ()
        oracle = lambda y: ProfileCut(column=column)
        result = run(row_count(g), EllipsoidParams.practical(4.0, 50, 128), oracle)
        assert result.outcome is Outcome.INFEASIBLE_OR_SHALLOW
        assert len(result.transcript.entries) == 1
        assert result.transcript.entries[0].log_volume_drop is None

    def test_iteration_cap(self):
        flip = {}

        def oracle(y):
            flip["sign"] = -flip.get("sign", -1)
            return FakeCut((F(flip["sign"]), F(0)), rhs=F(-1))

        result = run(2, EllipsoidParams.practical(0.0, 7, 128), oracle)
        assert result.outcome is Outcome.ITERATION_CAP_REACHED
        assert len(result.transcript.entries) == 7
        assert all(e.log_volume_drop is not None for e in result.transcript.entries)

    def test_volume_floor_stops_run(self):
        state = EllipsoidState.initial_ball(2, 2.0, 128)
        floor = state.log_volume() - 3.0
        params = EllipsoidParams(2.0, floor, 500, 128)
        flip = {}

        def oracle(y):
            flip["sign"] = -flip.get("sign", -1)
            return FakeCut((F(flip["sign"]), F(0)), rhs=F(-1))

        result = run(2, params, oracle)
        assert result.outcome is Outcome.INFEASIBLE_OR_SHALLOW
        assert 2 <= len(result.transcript.entries) < 500
        assert result.state.log_volume() < floor

    def test_on_new_cut_early_stop(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        stops = []

        def probe(cut, roster):
            if len(roster) >= 2:
                stops.append(len(roster))
                return True
            return False

        result = run(
            row_count(g),
            EllipsoidParams.practical(10.0, 500, 256),
            lambda y: purified_separation(g, y),
            probe,
        )
        assert result.outcome is Outcome.INFEASIBLE_OR_SHALLOW
        assert stops == [2]
        assert len(result.transcript.roster) == 2

    def test_every_drop_clears_the_floor(self):
        g = random_game("polymatrix", 3, 2, u_max=10, seed=11)
        n = row_count(g)
        result = run(
            n,
            EllipsoidParams.practical(10.0, 60, 256),
            lambda y: purified_separation(g, y),
        )
        checked = 0
        for entry in result.transcript.entries:
            if entry.log_volume_drop is not None:
                assert entry.log_volume_drop >= 1.0 / (5 * n) - 2.0**-128
                checked += 1
        assert checked > 0

    def test_certified_radius_contracts(self):
        # the certified radius of a 2x2 game is about 2**8000; the state has
        # no exponent limit, so the first updates run like any other
        g = random_game("nfg", 2, 2, u_max=10, seed=1)
        n = row_count(g)
        certified = EllipsoidParams.certified(n, g.payoff_ceiling())
        assert certified.log2_radius > 8000
        result = run(
            n,
            EllipsoidParams(certified.log2_radius, certified.stop_log_volume, 60),
            lambda y: purified_separation(g, y),
        )
        assert result.outcome is Outcome.ITERATION_CAP_REACHED
        assert all(e.log_volume_drop >= 1.0 / (5 * n) - 2.0**-128
                   for e in result.transcript.entries)
        # the same iterations at radius 2**10 are the certified run scaled
        # down exactly, which is what lets theoretical mode run small
        small = run(
            n,
            EllipsoidParams.practical(10.0, 60),
            lambda y: purified_separation(g, y),
        )
        big, little = result.transcript.entries, small.transcript.entries
        assert [e.cut.describe() for e in big] == [e.cut.describe() for e in little]
        scale = F(2) ** int(certified.log2_radius - 10)
        for b, s in zip(big, little):
            assert b.center == tuple(scale * c for c in s.center)

    def test_transcript_jsonl_format(self):
        import json

        g = random_game("nfg", 2, 2, u_max=9, seed=1)
        result = run(
            row_count(g),
            EllipsoidParams.practical(10.0, 5, 256),
            lambda y: purified_separation(g, y),
        )
        lines = result.transcript.to_jsonl().strip().splitlines()
        assert len(lines) == len(result.transcript.entries)
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in ("profile", "nonneg", "product")
            assert isinstance(record["iter"], int)
            float(record["violation"])  # decimal-formatted, parseable

    def test_determinism(self):
        g = random_game("nfg", 3, 2, u_max=10, seed=5)

        def once():
            return run(
                row_count(g),
                EllipsoidParams.practical(10.0, 40, 256),
                lambda y: purified_separation(g, y),
            )

        a, b = once(), once()
        assert a.outcome == b.outcome
        assert [e.center for e in a.transcript.entries] == [
            e.center for e in b.transcript.entries]
        assert [e.violation for e in a.transcript.entries] == [
            e.violation for e in b.transcript.entries]
        assert a.state.snapshot() == b.state.snapshot()

    def test_lower_precision_still_contracts(self):
        g = random_game("nfg", 2, 3, u_max=10, seed=3)
        result = run(
            row_count(g),
            EllipsoidParams.practical(10.0, 30, 64),
            lambda y: purified_separation(g, y),
        )
        assert result.outcome in (
            Outcome.ITERATION_CAP_REACHED, Outcome.INFEASIBLE_OR_SHALLOW)


CONFIGS = [
    *[pytest.param("polymatrix", 3, 3, 33, "purified_separation", SolveConfig(tie_break=tb),
                   id=f"polymatrix-3x3-33-{tb}") for tb in TIE_BREAKS],
    pytest.param("nfg", 2, 2, 0, "product_separation",
                 SolveConfig(oracle="product", max_iters=60, probe_stride=3, precision_bits=96),
                 id="nfg-2x2-0-product"),
]


@pytest.mark.parametrize("family, players, actions, seed, name, config", CONFIGS)
def test_integer_point_matches_snapshot_every_iteration(family, players, actions, seed,
                                                        name, config):
    """The oracle on the integer center returns the cut it returns on the
    Fraction snapshot, and run's violation is cut_violation at the snapshot,
    at every iteration of a whole solve."""
    g = random_game(family, players, actions, u_max=10, seed=seed)
    separation = getattr(solver, name)
    queried = []

    def recording(game, y, *args):
        queried.append(y)
        return separation(game, y, *args)

    with patch.object(solver, name, recording):
        report = compute_exact_ce(g, config)
    entries = report.transcript.entries
    assert len(queried) == len(entries) == report.iterations > 1
    extra = (config.tie_break,) if name == "purified_separation" else ()
    state = EllipsoidState.initial_ball(row_count(g), 10.0, config.precision_bits)
    for point, entry in zip(queried, entries):
        snapshot = state.snapshot()
        assert point == state.integer_center()
        assert entry.center == snapshot
        assert separation(g, snapshot, *extra) == entry.cut
        assert entry.violation == cut_violation(entry.cut, snapshot)
        if entry.log_volume_drop is not None:
            state = update(state, entry.cut.normal())
