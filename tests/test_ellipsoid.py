"""Central-cut engine: exact snapshots, contraction, the run loop."""

import gc
import math
import tracemalloc
from dataclasses import dataclass, replace
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
    PRACTICAL_LOG2_RADIUS,
    EllipsoidState,
    _round_dyadic,
    certified_stop,
    iteration_bound,
    run,
    update,
)
from exactce.incentives import profile_column
from exactce.oracles import (
    TIE_BREAKS,
    ProfileCut,
    product_separation,
    purified_separation,
)
import helpers
from helpers import (
    cut_violation,
    dense_state,
    log_volume,
    reference_log_det,
    reference_round_dyadic,
    reference_update,
    shape_matrix,
)

F = Fraction


def rational_center(point):
    """The queried center an oracle got, as exact rationals."""
    return tuple(F(v, point.denominator) for v in point.numerators)


def recording(oracle, centers):
    """oracle, appending each center it is asked about to centers."""
    def recorded(y):
        centers.append(rational_center(y))
        return oracle(y)
    return recorded


def final_state(n, transcript, *, precision_bits, log2_radius=PRACTICAL_LOG2_RADIUS):
    """The state a run ended in: its cut normals replayed through update
    from the starting ball, skipping the entries the run did not update on."""
    state = EllipsoidState.initial_ball(n, log2_radius, precision_bits)
    for entry in transcript.entries:
        if entry.log_volume_drop is not None:
            state = update(state, entry.cut.normal())
    return state


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
        assert all(row[i] == F(2) ** 8 for i, row in enumerate(shape_matrix(state)))
        after = update(state, [3, 2, -3])
        for value, (man, exp) in zip(after.snapshot(), dense_state(after).center):
            assert value == man * F(2) ** exp
            assert value.denominator & (value.denominator - 1) == 0
            assert abs(man).bit_length() <= 128


class TestInitialBall:
    def test_geometry(self):
        state = EllipsoidState.initial_ball(2, 10.0, 256)
        assert state.dimension == 2
        assert shape_matrix(state) == ((F(2) ** 20, F(0)), (F(0), F(2) ** 20))
        assert state.touched == () and state.rest_pivot[0].bit_length() == 256
        assert shape_matrix(EllipsoidState.initial_ball(1, 0.5, 64)) == ((F(2),),)
        # a radius whose square is not a power of two is refused
        with pytest.raises(ValueError, match="log2_radius"):
            EllipsoidState.initial_ball(2, 0.3, 64)

    def test_log_volume_of_unit_ball(self):
        state = EllipsoidState.initial_ball(2, 0.0, 256)
        assert log_volume(state) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_log_det_diagonal(self):
        state = EllipsoidState.initial_ball(3, 2.0, 256)
        assert state.log_det() == pytest.approx(3 * math.log(16.0), abs=1e-12)


class TestUpdate:
    def test_one_dimensional_halving_is_exact(self):
        state = EllipsoidState.initial_ball(1, 3.0, 128)
        after = update(state, [1])
        assert after.snapshot() == (F(-4),)  # center moves by r/2 = 4
        assert shape_matrix(after) == ((F(16),),)  # (r/2)^2

    def test_two_dimensional_hand_values(self):
        state = EllipsoidState.initial_ball(2, 0.0, 256)
        after = update(state, [1, 0])
        tol = F(1, 2**200)
        center = after.snapshot()
        assert abs(center[0] + F(1, 3)) <= tol and center[1] == 0
        shape = shape_matrix(after)
        assert abs(shape[0][0] - F(4, 9)) <= tol
        assert abs(shape[1][1] - F(4, 3)) <= tol
        assert shape[0][1] == 0 and shape[1][0] == 0

    def test_rejects_bad_normals(self):
        state = EllipsoidState.initial_ball(2, 0.0, 128)
        with pytest.raises(ValueError):
            update(state, [1])
        with pytest.raises(ValueError):
            update(state, [0, 0])

    def test_volume_drop_matches_closed_form(self):
        for n in range(1, 7):
            state = EllipsoidState.initial_ball(n, 0.0, 256)
            normal = [0] * n
            normal[0] = 1
            after = update(state, normal)
            drop = (state.log_det() - after.log_det()) / 2.0
            assert drop == pytest.approx(expected_drop(n), abs=1e-9)
            assert drop >= 1.0 / (5 * n)

    def test_scale_equivariance_for_power_of_two_radii(self):
        # doubling the radius scales every iterate exactly: centers by 2,
        # shape entries by 4; fixed-point rounding commutes with the shift
        cuts = [[1, 0], [0, 1], [-1, 2], [3, 1]]
        small = EllipsoidState.initial_ball(2, 5.0, 192)
        large = EllipsoidState.initial_ball(2, 6.0, 192)
        for normal in cuts:
            small = update(small, normal)
            large = update(large, normal)
            assert tuple(2 * c for c in small.snapshot()) == large.snapshot()
            small_shape = shape_matrix(small)
            large_shape = shape_matrix(large)
            for i in range(2):
                for j in range(2):
                    assert 4 * small_shape[i][j] == large_shape[i][j]

    def test_non_positive_definite_shape_raises(self):
        state = update(EllipsoidState.initial_ball(3, 0.0, 128), [1, 1, 0])
        assert state.touched == (0, 1)
        for pivot in ((0, 0), (-(2**127), -127)):
            # a touched pivot, then the shared pivot of coordinate 2
            broken = (replace(state, pivots=(state.pivots[0], pivot)),
                      replace(state, rest_pivot=pivot))
            for each in broken:
                with pytest.raises(PrecisionError):
                    each.log_det()
        # with every coordinate touched, the shared pivot counts for none
        full = update(state, [0, 0, 1])
        assert full.touched == (0, 1, 2)
        assert replace(full, rest_pivot=(0, 0)).log_det() == full.log_det()

    def test_exact_test_decides_what_floats_cannot(self):
        # [[1, 1], [1, 1 + d]] with d = +-2**-80: machine floats round 1 + d
        # to 1 and see a zero pivot, while the stored pivots 1 and d are
        # exact, and their signs decide
        one = 1 << (80 + 16)
        for sign in (1, -1):
            state = EllipsoidState(
                dimension=2, touched=(0, 1), center=((0, 0), (0, 0)), columns=((one,), ()),
                pivots=((1, 0), (sign, -80)), rest_pivot=(1, 0), precision_bits=80)
            corner = shape_matrix(state)[1][1]
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


def integer_normal(values):
    """A rational normal times the lcm of its denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


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
        lambda i: [-1 if j == i else 0 for j in range(n)])
    entries = st.one_of(
        st.integers(-20, 20).map(F),
        st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
        st.integers(-(2**400), 2**400).map(F),  # a . P a far wider than the step
    )
    # a rational normal, scaled to integers as every cut's normal is
    dense = st.lists(entries, min_size=n, max_size=n).filter(any).map(integer_normal)
    # a central cut multiplies the condition number by at most
    # (n + 1) / (n - 1) <= 3, so short chains keep it far below 2**bits
    cuts = draw(st.lists(st.one_of(sparse, dense), min_size=1,
                         max_size=4 if bits == 16 else 12))
    return n, bits, log2_radius, cuts


def checked_update(state, normal):
    """update(), asserted against the exact central cut of the stored state."""
    n, bits = state.dimension, state.precision_bits
    tol = F(1, 2 ** (bits - 8))
    shape, center = shape_matrix(state), state.snapshot()
    want_shape, want_center = exact_central_cut(shape, center, normal, bits)
    state = update(state, normal)
    got_shape, got_center = shape_matrix(state), state.snapshot()
    scale = max(want_shape[i][i] for i in range(n))
    for i in range(n):
        for j in range(n):
            assert abs(got_shape[i][j] - want_shape[i][j]) <= tol * scale
    # a coordinate near zero is accurate to the step's size, which is
    # at most the square root of the largest diagonal entry
    step_scale = max(shape[i][i] for i in range(n))
    for got, want in zip(got_center, want_center):
        assert (got - want) ** 2 <= tol * tol * max(want * want, step_scale)
    assert all(man.bit_length() == bits for man, _ in dense_state(state).pivots)
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
            shape = shape_matrix(state)
            assert is_positive_definite(shape)
            det = math.prod(leading_pivots(shape))
            exact = math.log(det.numerator) - math.log(det.denominator)
            assert state.log_det() == pytest.approx(exact, rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_nonnegativity_cut_keeps_later_columns(self, n):
        # u = L^T (-e_k) vanishes past k, so no column after k is rewritten
        state = EllipsoidState.initial_ball(n, 10.0, 96)
        for normal in ([j + 1 for j in range(n)], [1] * (n - 1) + [-2]):
            state = update(state, normal)
        assert state.touched == tuple(range(n))
        assert all(any(col) for col in state.columns[:-1])
        for k in range(n):
            after = update(state, [-1 if j == k else 0 for j in range(n)])
            assert after.columns[k + 1:] == state.columns[k + 1:]

    @pytest.mark.parametrize("n, log2_radius, bits", [(2, 40.0, 16), (3, 1063.0, 256)])
    def test_radius_beyond_the_step_fraction(self, n, log2_radius, bits):
        # the initial center is all zeros and the axis exponents exceed the
        # step's fractional bits, so the step is shifted left onto them
        for first in ([j + 1 for j in range(n)], [-1] + [0] * (n - 1)):
            state = EllipsoidState.initial_ball(n, log2_radius, bits)
            for normal in (first, [0] * (n - 1) + [-1], [2] * n):
                state = checked_update(state, normal)


@st.composite
def subset_chains(draw):
    """Normals supported on random subsets of the N coordinates, so that
    coordinates enter the touched set mid-chain, one at a time or several
    at once; a chain may touch a single coordinate of many."""
    n = draw(st.integers(1, 8))
    bits = draw(st.sampled_from([16, 53, 96, 256]))
    log2_radius = draw(st.one_of(
        st.integers(-12, 24).map(lambda k: k / 2),
        st.sampled_from([999.5, 1063.0]),
    ))
    value = st.one_of(st.integers(-20, 20), st.integers(-(2**300), 2**300)).filter(bool)
    supports = st.dictionaries(st.integers(0, n - 1), value, min_size=1)
    cuts = draw(st.lists(supports, min_size=1, max_size=4 if bits == 16 else 12))
    return n, bits, log2_radius, [[cut.get(r, 0) for r in range(n)] for cut in cuts]


def reference_chain(n, bits, log2_radius, cuts):
    """(normal, dense reference state) after each cut, up to the first cut
    the reference refuses for lost positive definiteness."""
    reference = dense_state(EllipsoidState.initial_ball(n, log2_radius, bits))
    for normal in cuts:
        try:
            reference = reference_update(reference, normal)
        except PrecisionError:
            return
        yield normal, reference


class TestTouchedCoordinates:
    """The state over the touched coordinates is the dense state of the
    reference update, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(subset_chains())
    def test_matches_the_dense_reference(self, chain):
        n, bits, log2_radius, cuts = chain
        state = EllipsoidState.initial_ball(n, log2_radius, bits)
        assert state.log_det() == reference_log_det(dense_state(state))
        steps = 0
        for normal, reference in reference_chain(*chain):
            state = update(state, normal)
            assert dense_state(state) == reference
            assert state.log_det() == reference_log_det(reference)
            steps += 1
        if steps < len(cuts):  # the reference lost positive definiteness
            with pytest.raises(PrecisionError):
                update(state, cuts[steps])

    @settings(max_examples=100, deadline=None)
    @given(subset_chains())
    def test_untouched_coordinates_keep_the_start(self, chain):
        # in the reference, every coordinate no normal has touched keeps
        # center 0, a zero row and column of L and the pivot all such share
        n, bits, log2_radius, cuts = chain
        state = EllipsoidState.initial_ball(n, log2_radius, bits)
        seen = set()
        for normal, reference in reference_chain(*chain):
            state = update(state, normal)
            seen |= {r for r, v in enumerate(normal) if v}
            assert state.touched == tuple(sorted(seen))
            size = len(state.touched)
            assert len(state.center) == len(state.pivots) == len(state.columns) == size
            assert [len(col) for col in state.columns] == list(range(size - 1, -1, -1))
            for r in set(range(n)) - seen:
                assert reference.center[r] == (0, 0)
                assert not any(reference.columns[r])
                assert not any(reference.columns[j][r - j - 1] for j in range(r))
                assert reference.pivots[r] == state.rest_pivot

    def test_one_coordinate_of_many(self):
        state = EllipsoidState.initial_ball(6, 10.0, 96)
        for _ in range(3):
            state = update(state, [0, 0, 0, -1, 0, 0])
        assert state.touched == (3,)
        assert state.columns == ((),)
        assert state.integer_center().numerators[:3] == (0, 0, 0)
        assert state.snapshot()[3] > 0  # the kept half is y_3 >= center
        reference = dense_state(EllipsoidState.initial_ball(6, 10.0, 96))
        for _ in range(3):
            reference = reference_update(reference, [0, 0, 0, -1, 0, 0])
        assert dense_state(state) == reference


@st.composite
def rounding_cases(draw):
    """(num, den, exp, bits) with num / (den 2**shift) at or next to a
    half-way point, up to just below 2**(bits + 1), so that ties and the
    carry to 2**bits both occur, for shifts of either sign; or drawn freely."""
    bits = draw(st.integers(1, 64))
    exp = draw(st.integers(-200, 200))
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        num = draw(st.integers(1, 2**300))
        den = draw(st.one_of(st.integers(1, 50), st.integers(1, 2**200)))
        return sign * num, den, exp, bits
    shift = draw(st.integers(-80, 80))
    twice = draw(st.one_of(
        st.integers(2**bits - 4, 2**bits + 4),  # around 2**(bits - 1)
        st.integers(2 ** (bits + 1) - 4, 2 ** (bits + 1) + 4),  # around 2**bits
        st.integers(2**bits, 2 ** (bits + 2)),
    ))
    odd = draw(st.integers(1, 2**80).map(lambda d: 2 * d + 1))
    m = draw(st.integers(max(0, 1 - shift), max(0, 1 - shift) + 8))
    # num / (den 2**shift) = twice / 2 with den = odd 2**m, nudged by one
    # unit of num or not at all
    den = odd << m
    num = (twice * odd << (m + shift - 1)) + draw(st.sampled_from([-1, 0, 0, 1]))
    return sign * num, den, exp, bits


class TestRoundDyadic:
    @settings(max_examples=600, deadline=None)
    @given(rounding_cases())
    def test_matches_the_reference(self, case):
        got = _round_dyadic(*case)
        assert got == reference_round_dyadic(*case)
        assert abs(got[0]).bit_length() <= case[3]

    @pytest.mark.parametrize("num, den, bits, want", [
        (5, 2, 2, (2, 0)),  # 2.5: a tie, to the even 2
        (7, 2, 2, (2, 1)),  # 3.5 rounds up to 4, which takes 3 bits: a carry
        (-7, 2, 2, (-2, 1)),
        (15, 8, 3, (4, -1)),  # 1.875 = 7.5 / 4, a tie, to 8 / 4: a carry
        (1, 3, 16, (43691, -17)),
        (0, 7, 16, (0, 0)),
    ])
    def test_ties_and_carries(self, num, den, bits, want):
        assert _round_dyadic(num, den, 0, bits) == want == reference_round_dyadic(
            num, den, 0, bits)


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
            state = update(state, [-1 if j == k else 0 for j in range(3)])
        assert state.touched == (0, 2)
        assert all(exp > 0 for man, exp in state.center if man)
        point = state.integer_center()
        assert point.denominator == 1
        assert point.numerators[1] == 0 and all(point.numerators[::2])
        assert point.numerators == state.snapshot()


class TestIterationBound:
    def test_validation(self):
        # a bool is an int to isinstance, and True would count as 1
        for n, u in [(0, 2), (2, -1), (True, 5), (2, True), (2.0, 5), (2, 5.0)]:
            with pytest.raises(ValueError):
                iteration_bound(n, u)

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
    def test_certified_shapes(self):
        n, u = 2, 10
        stop, cap = certified_stop(n, u)
        assert PRACTICAL_LOG2_RADIUS == 10.0  # the run is the certified one scaled down
        assert cap == iteration_bound(n, u)
        assert stop < 0


class TestRunLoop:
    def test_unviolated_cut_is_rejected(self):
        # a constraint satisfied at the query point means the oracle lied
        oracle = lambda y: FakeCut((1, 0), rhs=F(1))
        with pytest.raises(SolverError) as info:
            run(2, oracle, max_iters=10, precision_bits=128, log2_radius=2.0)
        assert info.value.transcript is not None

    def test_rejected_cut_leaves_the_lines_numbered(self):
        # three violated cuts, then one the center satisfies: the transcript
        # the error carries numbers the three lines 1, 2, 3
        import json

        calls = []

        def oracle(y):
            calls.append(y)
            if len(calls) > 3:
                return FakeCut((1, 0), rhs=F(1))
            return FakeCut((-1 if len(calls) % 2 else 1, 0), rhs=F(-1))

        with pytest.raises(SolverError, match="satisfied at the query point") as info:
            run(2, oracle, max_iters=10, precision_bits=128, log2_radius=0.0)
        lines = info.value.transcript.to_jsonl().splitlines()
        assert [json.loads(line)["iter"] for line in lines] == [1, 2, 3]

    @pytest.mark.parametrize("bits", [16, 17, 128])
    def test_slack_is_exactly_half_the_precision(self, bits):
        # the center starts at 0, so a cut y[0] <= rhs is violated by -rhs
        slack = F(1, 2 ** (bits // 2))
        settings = dict(max_iters=1, precision_bits=bits, log2_radius=2.0)
        transcript = run(2, lambda y: FakeCut((1, 0), rhs=slack), **settings)
        (entry,) = transcript.entries
        assert entry.violation == -slack
        assert entry.violation_pair[1] > 0
        below = slack + F(1, 2 ** (bits + 40))
        with pytest.raises(SolverError, match="satisfied at the query point"):
            run(2, lambda y: FakeCut((1, 0), rhs=below), **settings)

    def test_zero_normal_certifies_infeasibility(self):
        g = random_game("nfg", 2, 2, u_max=0, seed=0)  # constant game
        column = profile_column(g, (0, 0))
        assert column.entries == ()
        oracle = lambda y: ProfileCut(column=column)
        transcript = run(row_count(g), oracle, max_iters=50, precision_bits=128, log2_radius=4.0)
        assert not transcript.capped
        assert len(transcript.entries) == 1
        assert transcript.entries[0].log_volume_drop is None

    def test_iteration_cap(self):
        flip = {}

        def oracle(y):
            flip["sign"] = -flip.get("sign", -1)
            return FakeCut((flip["sign"], 0), rhs=F(-1))

        transcript = run(2, oracle, max_iters=7, precision_bits=128, log2_radius=0.0)
        assert transcript.capped
        assert len(transcript.entries) == 7
        assert all(e.log_volume_drop is not None for e in transcript.entries)

    def test_volume_floor_stops_run(self):
        state = EllipsoidState.initial_ball(2, 2.0, 128)
        floor = log_volume(state) - 3.0
        settings = dict(precision_bits=128, log2_radius=2.0)
        flip = {}

        def oracle(y):
            flip["sign"] = -flip.get("sign", -1)
            return FakeCut((flip["sign"], 0), rhs=F(-1))

        transcript = run(2, oracle, max_iters=500, stop_log_volume=floor, **settings)
        assert not transcript.capped
        assert 2 <= len(transcript.entries) < 500
        assert log_volume(final_state(2, transcript, **settings)) < floor

    def test_on_new_cut_early_stop(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        stops = []

        def probe(roster):
            if len(roster) >= 2:
                stops.append(len(roster))
                return True
            return False

        transcript = run(
            row_count(g),
            lambda y: purified_separation(g, y),
            probe,
            max_iters=500,
            precision_bits=256,
        )
        assert not transcript.capped
        assert stops == [2]
        assert len(transcript.roster) == 2

    def test_every_drop_clears_the_floor(self):
        g = random_game("polymatrix", 3, 2, u_max=10, seed=11)
        n = row_count(g)
        transcript = run(
            n,
            lambda y: purified_separation(g, y),
            max_iters=60,
            precision_bits=256,
        )
        checked = 0
        for entry in transcript.entries:
            if entry.log_volume_drop is not None:
                assert entry.log_volume_drop >= 1.0 / (5 * n) - 2.0**-128
                checked += 1
        assert checked > 0

    def test_certified_radius_contracts(self):
        # the certified radius of a 2x2 game is about 2**8000; the state has
        # no exponent limit, so the first updates run like any other
        g = random_game("nfg", 2, 2, u_max=10, seed=1)
        n = row_count(g)
        rho, floor, _ = helpers.reference_certified(n, g.payoff_ceiling())
        assert rho > 8000
        big_centers, little_centers = [], []
        transcript = run(
            n,
            recording(lambda y: purified_separation(g, y), big_centers),
            max_iters=60,
            precision_bits=256,
            stop_log_volume=floor,
            log2_radius=rho,
        )
        assert transcript.capped
        assert all(e.log_volume_drop >= 1.0 / (5 * n) - 2.0**-128
                   for e in transcript.entries)
        # the same iterations at radius 2**10 are the certified run scaled
        # down exactly, which is what lets theoretical mode run small
        small = run(
            n,
            recording(lambda y: purified_separation(g, y), little_centers),
            max_iters=60,
            precision_bits=256,
        )
        big, little = transcript.entries, small.entries
        assert [e.cut.describe() for e in big] == [e.cut.describe() for e in little]
        assert len(big_centers) == len(little_centers) == len(big)
        scale = F(2) ** int(rho - 10)
        for b, s in zip(big_centers, little_centers):
            assert b == tuple(scale * c for c in s)

    def test_transcript_jsonl_format(self):
        import json

        g = random_game("nfg", 2, 2, u_max=9, seed=1)
        transcript = run(
            row_count(g),
            lambda y: purified_separation(g, y),
            max_iters=5,
            precision_bits=256,
        )
        lines = transcript.to_jsonl().strip().splitlines()
        assert len(lines) == len(transcript.entries)
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in ("profile", "nonneg", "product")
            assert isinstance(record["iter"], int)
            float(record["violation"])  # decimal-formatted, parseable

    def test_determinism(self):
        g = random_game("nfg", 3, 2, u_max=10, seed=5)

        def once(centers):
            return run(row_count(g), recording(lambda y: purified_separation(g, y), centers),
                       max_iters=40, precision_bits=256)

        a_centers, b_centers = [], []
        a, b = once(a_centers), once(b_centers)
        assert a.capped == b.capped
        assert len(a_centers) == len(a.entries)
        assert a_centers == b_centers
        assert [e.violation for e in a.entries] == [
            e.violation for e in b.entries]
        assert (final_state(row_count(g), a, precision_bits=256).snapshot()
                == final_state(row_count(g), b, precision_bits=256).snapshot())

    def test_repeated_cut_holds_the_roster_instance(self):
        g = random_game("polymatrix", 3, 3, u_max=10, seed=33)
        returned = []

        def oracle(y):
            returned.append(purified_separation(g, y))
            return returned[-1]

        transcript = run(row_count(g), oracle, max_iters=200, precision_bits=256)
        roster = {cut.roster_key(): cut for cut in transcript.roster}
        assert len(roster) == len(transcript.roster)
        assert len(returned) == len(transcript.entries)
        repeats = 0
        for entry, cut in zip(transcript.entries, returned):
            assert entry.cut == cut
            key = cut.roster_key()
            if key is not None:
                assert entry.cut is roster[key]
                repeats += entry.cut is not cut
        assert repeats > 0

    @pytest.mark.parametrize("separation", [purified_separation, product_separation])
    def test_one_nonnegativity_cut_per_coordinate(self, separation):
        g = random_game("polymatrix", 3, 3, u_max=10, seed=33)
        transcript = run(row_count(g), lambda y: separation(g, y),
                         max_iters=200, precision_bits=256)
        cuts = [e.cut for e in transcript.entries if e.cut.kind == "nonneg"]
        positions = {cut.position for cut in cuts}
        assert len(cuts) > len(positions) > 1
        assert len({id(cut) for cut in cuts}) == len(positions)

    def test_lower_precision_still_contracts(self):
        g = random_game("nfg", 2, 3, u_max=10, seed=3)
        transcript = run(
            row_count(g),
            lambda y: purified_separation(g, y),
            max_iters=30,
            precision_bits=64,
        )
        # no probe and no floor: every one of the 30 iterations updates
        assert transcript.capped
        assert len(transcript.entries) == 30
        assert all(e.log_volume_drop is not None for e in transcript.entries)


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
        assert rational_center(point) == snapshot
        assert separation(g, snapshot, *extra) == entry.cut
        assert entry.violation == cut_violation(entry.cut, snapshot)
        if entry.log_volume_drop is not None:
            state = update(state, entry.cut.normal())


def test_transcript_memory_does_not_grow_with_the_dimension():
    """The report of criterion 01's seed 95 (905 iterations over 108 rows)
    holds its transcript in well under 1 MB: no stored centers, and one
    object per distinct cut."""
    g = random_game("polymatrix", 4, 3, u_max=10, seed=95)
    compute_exact_ce(random_game("polymatrix", 2, 2, u_max=10, seed=1))  # warm up
    gc.collect()
    tracemalloc.start()
    try:
        report = compute_exact_ce(g)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == len(report.transcript.entries) > 800
    assert held < 1_000_000
