"""Central-cut ellipsoid engine in fixed-point integers.

The ellipsoid state lives in Python integers, and every oracle exchange is
exact: the center goes to the oracle as one integer vector over a power of
two (integer_center), and each cut's violation is one integer dot product
with it, turned into a single rational. Exactness of final answers
never rests on this module; it only has to keep shrinking volume, and each
update is checked against the guaranteed contraction rate.

The state is rounded to a fixed number of binary places, as in the
finite-precision ellipsoid method of Groetschel, Lovasz and Schrijver
(Geometric Algorithms and Combinatorial Optimization, 1988, section 3.2).
precision_bits sets that number:

* each center coordinate is a dyadic mantissa * 2**exponent, rounded
  half-even to precision_bits significant bits;
* the shape matrix is held as its factor L diag(d) L^T, as in the factored
  ellipsoid of Goldfarb and Todd (Math. Programming 23, 1982): L is unit
  lower triangular with integer entries over 2**(precision_bits + 16), and
  each pivot d_j is a dyadic with precision_bits significant bits.

Integers have no exponent range, so the arithmetic holds at any radius,
the certified 2**(5 N^3 log u) one included. Rounding to significant bits
also makes a run scale-equivariant: a ball 2**k times larger gives the same
cuts with every center scaled by 2**k. Solves therefore always start from
the practical radius 2**10, and the theoretical mode moves the certified
volume floor down to it (solver._params_for). The cut normal is scaled to
integers, which makes L^T a, a^T P a and P a exact. The volume is read off
the stored pivots, and the pivots decide positive definiteness by their
signs.

The update is the minimal-volume ellipsoid containing the half-ellipsoid on
the satisfied side of the cut through the center. Its volume ratio is below
exp(-1/(5 n)) for every dimension n >= 1, with room to spare for rounding.
The initial radius must have a power-of-two square, so the starting ball is
exact too. The iteration bound is a ceiling taken from the standard
library's correctly rounded decimal logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .errors import PrecisionError, SolverError
from .oracles import Cut, IntegerPoint, normal_violation

DEFAULT_PRECISION_BITS = 256


# ---------- helpers ----------


def _log_unit_ball_volume(n: int) -> float:
    """Natural log of the unit ball volume in dimension n."""
    half = n / 2
    return half * math.log(math.pi) - math.lgamma(half + 1)


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 24
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# ---------- parameters ----------


def iteration_bound(n_rows: int, u_max: int) -> int:
    """Iterations sufficient for a certified run: ceil(5 N (5 N^4 + 7 N^5) ln u).

    N is the incentive-row count and u the utility bound, substituted by 2
    when below 2 so the logarithm stays positive.
    """
    if not isinstance(n_rows, int) or n_rows < 1:
        raise ValueError("n_rows must be a positive integer")
    if not isinstance(u_max, int) or u_max < 0:
        raise ValueError("u_max must be a nonnegative integer")
    u = max(2, u_max)
    k = 5 * n_rows * (5 * n_rows**4 + 7 * n_rows**5)
    digits = 32
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            # correctly rounded, so ln u lies within one unit of its last digit
            ln = Decimal(u).ln()
            unit = Decimal(1).scaleb(ln.adjusted() - digits + 1)
            ctx.prec = digits + len(str(k)) + 1  # the products below are exact
            ends = {int((k * (ln + sign * unit)).to_integral_value(ROUND_CEILING))
                    for sign in (-1, 1)}
        # ln u is irrational, so enough digits always settle the ceiling
        if len(ends) == 1:
            return ends.pop()
        digits *= 2


@dataclass(frozen=True)
class EllipsoidParams:
    """Initial radius (as log2), optional volume floor (as natural log of
    volume), iteration cap, and working precision."""

    log2_radius: float
    stop_log_volume: float | None
    max_iters: int
    precision_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.precision_bits < 16:
            raise ValueError("precision_bits must be at least 16")

    @classmethod
    def practical(
        cls,
        log2_radius: float = 10.0,
        max_iters: int = 2000,
        precision_bits: int = DEFAULT_PRECISION_BITS,
    ) -> "EllipsoidParams":
        """Modest radius, no volume floor; termination comes from the caller."""
        return cls(log2_radius, None, max_iters, precision_bits)

    @classmethod
    def certified(
        cls, n_rows: int, u_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
    ) -> "EllipsoidParams":
        """Radius and volume floor large enough for the worst-case guarantee.

        The radius is 2**ceil(5 N^3 log2 u) and the floor is the unit-ball
        volume times u**(-7 N^5), in log form. Solves do not run at this
        radius: the theoretical mode keeps the cap and carries the floor over
        to the practical radius, where the run is the same up to scale.
        """
        u = max(2, u_max)
        log2_radius = float(math.ceil(5 * n_rows**3 * math.log2(u)))
        floor = _log_unit_ball_volume(n_rows) - 7 * n_rows**5 * math.log(u)
        return cls(log2_radius, floor, iteration_bound(n_rows, u), precision_bits)


# ---------- state ----------

# bits the factor's entries and the step carry beyond precision_bits, so
# that the one rounding of each stored pivot dominates the update's error
_GUARD_BITS = 16

_LN2 = math.log(2.0)

_NOT_POSITIVE_DEFINITE = (
    "shape matrix lost positive definiteness; increase precision_bits"
)


def _round_dyadic(num: int, den: int, exp: int, bits: int) -> tuple[int, int]:
    """(num / den) * 2**exp rounded half-even to `bits` significant bits, as
    a (mantissa, exponent) pair; den must be positive."""
    if num == 0:
        return 0, 0
    # the quotient num / (den 2**shift) then has bits or bits + 1 bits
    shift = abs(num).bit_length() - den.bit_length() - bits
    while True:
        if shift >= 0:
            divisor = den << shift
            quotient, rest = divmod(num, divisor)
        else:
            divisor = den
            quotient, rest = divmod(num << -shift, den)
        twice = 2 * rest
        if twice > divisor or (twice == divisor and quotient & 1):
            quotient += 1
        if abs(quotient).bit_length() <= bits:
            return quotient, exp + shift
        shift += 1


def _integer_direction(normal: Sequence[int | Fraction]) -> Sequence[int]:
    """The normal scaled to coprime integers; the update ignores its scale.

    An integer normal (every oracle cut's) goes straight to the gcd;
    math.gcd refuses anything else, which then takes the rational path.
    """
    try:
        ints, common = normal, math.gcd(*normal)
    except TypeError:
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in normal]
        scale = math.lcm(*(v.denominator for v in values))
        ints = [v.numerator * (scale // v.denominator) for v in values]
        common = math.gcd(*ints)
    if common == 0:
        raise ValueError("cut normal must be nonzero")
    return ints if common == 1 else [v // common for v in ints]


def _fractions(pairs: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Dyadic (mantissa, exponent) pairs as exact rationals."""
    return tuple(
        Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        for man, exp in pairs
    )


@dataclass(frozen=True)
class EllipsoidState:
    """Center and factored shape matrix in fixed point.

    center holds one (mantissa, exponent) pair per coordinate, the dyadic
    mantissa * 2**exponent. The shape matrix is P = L diag(d) L^T with L unit
    lower triangular: columns[j] holds the entries of column j below the
    diagonal, rows j + 1 onwards, each an integer over
    2**(precision_bits + 16). pivots[j] is d_j as a (mantissa, exponent) pair
    whose mantissa has precision_bits bits. Each pivot carries its own
    scale, so an ellipsoid that thins out in some direction keeps its
    precision there, and P is positive definite exactly when every pivot
    mantissa is positive.
    """

    center: tuple[tuple[int, int], ...]
    columns: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]
    precision_bits: int
    iteration: int = 0

    @classmethod
    def initial_ball(cls, n: int, log2_radius: float, precision_bits: int) -> "EllipsoidState":
        """The ball of radius 2**log2_radius about the origin; its squared
        radius must be a power of two, so 2 * log2_radius must be an integer."""
        if n < 1:
            raise ValueError("dimension must be positive")
        twice = float(2 * log2_radius)
        if not twice.is_integer():
            raise ValueError("log2_radius must be a multiple of 0.5, so that the "
                             "squared radius is a power of two")
        lift = precision_bits - 1
        return cls(
            center=((0, 0),) * n,
            columns=tuple((0,) * (n - 1 - j) for j in range(n)),
            pivots=((1 << lift, int(twice) - lift),) * n,
            precision_bits=precision_bits,
        )

    @property
    def dimension(self) -> int:
        return len(self.center)

    def snapshot(self) -> tuple[Fraction, ...]:
        """The exact center; dyadic state makes this lossless."""
        return _fractions(self.center)

    def integer_center(self) -> IntegerPoint:
        """The exact center as integers Y over 2**k, from the stored pairs by
        shifts alone; k is minus the least exponent of a nonzero coordinate,
        or zero when no such exponent is negative."""
        k = max(0, max((-exp for man, exp in self.center if man), default=0))
        return IntegerPoint(
            tuple(man << (exp + k) if man else 0 for man, exp in self.center), 1 << k)

    def shape_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact shape matrix L diag(d) L^T, both triangles."""
        n = self.dimension
        unit = Fraction(1, 1 << (self.precision_bits + _GUARD_BITS))
        # lower[j][r] is L[r][j]
        lower = [[0] * j + [Fraction(1)] + [x * unit for x in col]
                 for j, col in enumerate(self.columns)]
        pivots = [man * Fraction(2) ** exp for man, exp in self.pivots]
        return tuple(
            tuple(sum(lower[k][i] * d * lower[k][j] for k, d in enumerate(pivots))
                  for j in range(n))
            for i in range(n)
        )

    def log_det(self) -> float:
        """Log-determinant of the shape matrix, the sum of log d_j.

        L is unit triangular, so the stored pivots are the whole
        determinant, and their mantissa signs decide positive definiteness
        exactly.
        """
        if min(man for man, _ in self.pivots) <= 0:
            raise PrecisionError(_NOT_POSITIVE_DEFINITE)
        return (math.fsum(math.log(man) for man, _ in self.pivots)
                + sum(exp for _, exp in self.pivots) * _LN2)

    def log_volume(self) -> float:
        return _log_unit_ball_volume(self.dimension) + self.log_det() / 2


def update(state: EllipsoidState, normal: Sequence[int | Fraction]) -> EllipsoidState:
    """Minimal-volume ellipsoid containing the half with normal . z <= normal . center.

    Scale-invariant in the normal. The new shape
    n^2 / (n^2 - 1) (P - 2 / (n + 1) P a a^T P / a^T P a) is refactored by the
    stable rank-one modification of Gill, Golub, Murray and Saunders (Math.
    Comp. 28, 1974). With u = L^T a and the prefix sums G_j of d_i u_i^2, put
    T_j = (n + 1) G_n - 2 G_j; every T_j is at least (n - 1) / (n + 1) of
    T_0, so nothing cancels. Then

    * new d_j = n^2 / (n^2 - 1) d_j T_j / T_{j-1}, rounded once;
    * new L[r][j] = L[r][j] - 2 u_j w_r / T_j, to within one unit of the
      last place, where w sums d_k u_k L[:, k] over the columns k > j.

    The pass runs from the last column to the first, so w ends as P a,
    exactly. Columns with u_j = 0 keep their entries, and the columns from
    the cut's last nonzero coordinate on keep them too. The center
    c - P a / ((n + 1) sqrt(a^T P a)) is rounded once per coordinate from
    the exact P a and a square root carried with precision_bits plus guard
    bits. Positive definiteness is decided by the signs of the exact
    integers G_n and T_j. Dimension one degenerates to interval halving.
    """
    n = state.dimension
    if len(normal) != n:
        raise ValueError(f"normal has length {len(normal)}, expected {n}")
    a = _integer_direction(normal)
    bits = state.precision_bits
    one = 1 << (bits + _GUARD_BITS)
    columns, pivots = state.columns, state.pivots

    # u[j] = (L^T a)_j * one; it vanishes past the last nonzero of a
    support = [(r, a[r]) for r in range(n) if a[r]]
    last = support[-1][0]
    u = [
        a[j] * one + sum([ar * col[r - j - 1] for r, ar in support if r > j])
        for j, col in enumerate(columns[:last + 1])
    ]

    # with low the least exponent among the pivots that u touches, p[j] is
    # d_j u_j over 2**(low - F), F = precision_bits + 16; a . P a is gamma
    # over 2**(2 F - low), and the prefixes of the sum decide each T_j
    active = [j for j, uj in enumerate(u) if uj]
    low = min(pivots[j][1] for j in active)
    p = [(pivots[j][0] << (pivots[j][1] - low)) * u[j] if u[j] else 0
         for j in range(last + 1)]
    prefix = list(accumulate([x * y for x, y in zip(p, u)]))
    gamma = prefix[-1]
    top = (n + 1) * gamma
    after = [top - 2 * g for g in prefix]
    if gamma <= 0 or (n > 1 and min(after) <= 0):
        raise PrecisionError(_NOT_POSITIVE_DEFINITE)

    if n == 1:
        new_pivots = ((pivots[0][0], pivots[0][1] - 2),)
    else:
        # T_j / T_{j-1} is one where u_j = 0, and past the last column u has
        nn = n * n
        ratios = [(t, s) if uj else (1, 1) for uj, t, s in zip(u, after, [top, *after])]
        ratios += [(1, 1)] * (n - last - 1)
        new_pivots = tuple(
            _round_dyadic(man * nn * t, (nn - 1) * s, exp, bits)
            for (man, exp), (t, s) in zip(pivots, ratios)
        )

    new_columns = list(columns)
    w = [0] * n  # sum of p[k] L[:, k] * one over the columns passed so far
    for j in reversed(active):
        col = columns[j]
        if j < last:  # w is still zero at the last column
            # 2 u_j / T_j to as many fractional bits as the widest w_r has,
            # so that each entry stays within one unit of the exact value
            tail = w[j + 1:]
            shift = max(map(int.bit_length, tail)) + 1
            ratio = ((u[j] << (shift + 2)) + after[j]) // (2 * after[j])
            half = 1 << (shift - 1)
            new_columns[j] = tuple([
                x - ((ratio * y + half) >> shift) for x, y in zip(col, tail)
            ])
        pj = p[j]
        w[j] = pj * one
        w[j + 1:] = [y + pj * x for y, x in zip(w[j + 1:], col)]

    # P a = w 2**(low - 2 F) and a . P a = gamma 2**(low - 2 F); with
    # low - 2 F = 2 half + odd, the step P a / sqrt(a . P a) is
    # w * 2**(half + odd) / sqrt(gamma 2**odd), and root carries
    # sqrt(gamma 2**odd) * 2**lift to precision_bits plus guard bits
    scale = low - 2 * (bits + _GUARD_BITS)
    odd = scale & 1
    radicand = gamma << odd
    lift = bits + _GUARD_BITS + 2 - radicand.bit_length() // 2
    root = math.isqrt(radicand << 2 * lift if lift >= 0 else radicand >> -2 * lift)
    step_exp = (scale - odd) // 2 + odd + lift
    den = (n + 1) * root

    # center: c - step / (n + 1) as one fraction over den, rounded once; the
    # term with the larger exponent is shifted left onto the smaller one, and
    # a zero coordinate contributes nothing whatever its stored exponent
    center = []
    for (man, man_exp), wi in zip(state.center, w):
        if man:
            base = min(man_exp, step_exp)
            num = ((man * den) << (man_exp - base)) - (wi << (step_exp - base))
        else:
            base, num = step_exp, -wi
        center.append(_round_dyadic(num, den, base, bits))

    return EllipsoidState(
        center=tuple(center),
        columns=tuple(new_columns),
        pivots=new_pivots,
        precision_bits=bits,
        iteration=state.iteration + 1,
    )


# ---------- transcripts and the run loop ----------


class Outcome(str, Enum):
    INFEASIBLE_OR_SHALLOW = "infeasible_or_shallow"
    ITERATION_CAP_REACHED = "iteration_cap_reached"


@dataclass(frozen=True)
class TranscriptEntry:
    iteration: int
    center_pairs: tuple[tuple[int, int], ...]  # the queried center, as stored
    cut: Cut
    violation: Fraction
    log_volume_drop: float | None  # None when the run stopped before updating

    @property
    def center(self) -> tuple[Fraction, ...]:
        return _fractions(self.center_pairs)


@dataclass
class Transcript:
    n_rows: int
    precision_bits: int
    entries: list[TranscriptEntry] = field(default_factory=list)
    roster: list[Cut] = field(default_factory=list)  # distinct cuts, first seen order
    outcome: "Outcome | None" = None

    def __len__(self) -> int:
        return len(self.entries)

    def to_jsonl(self) -> str:
        import json

        lines = []
        for e in self.entries:
            record = {"iter": e.iteration}
            record.update(e.cut.describe())
            record["violation"] = _decimal_str(e.violation)
            lines.append(json.dumps(record))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class RunResult:
    outcome: Outcome
    transcript: Transcript
    state: EllipsoidState


def run(
    n_rows: int,
    params: EllipsoidParams,
    oracle: Callable[[IntegerPoint], Cut],
    on_new_cut: Callable[[Cut, list[Cut]], bool] | None = None,
) -> RunResult:
    """Drive the cut loop: read the center, query, verify, update, repeat.

    The oracle gets the center as an IntegerPoint (integer_center), and the
    cut's normal is built once per iteration, for both the violation and the
    update.

    Every returned cut must be violated at the query point (checked exactly,
    with slack 2**(-precision_bits/2)); every update must shrink log-volume by
    at least 1/(5 n) minus the same slack. A cut whose normal is identically
    zero certifies infeasibility outright (its constraint is 0 <= -1) and
    ends the run. on_new_cut fires when a distinct profile or product cut
    first appears; returning True stops the run early, which the practical
    mode uses once its collected columns admit a solution.
    """
    state = EllipsoidState.initial_ball(n_rows, params.log2_radius, params.precision_bits)
    transcript = Transcript(n_rows=n_rows, precision_bits=params.precision_bits)
    tolerance = Fraction(1, 2 ** (params.precision_bits // 2))
    min_drop = 1.0 / (5 * n_rows) - float(tolerance)
    previous_log_det = state.log_det()
    log_unit_ball = _log_unit_ball_volume(n_rows)
    seen = set()

    def finish(outcome: Outcome, final_state: EllipsoidState) -> RunResult:
        transcript.outcome = outcome
        return RunResult(outcome=outcome, transcript=transcript, state=final_state)

    for iteration in range(1, params.max_iters + 1):
        center = state.center
        point = state.integer_center()
        cut = oracle(point)
        normal = cut.normal()
        violation = normal_violation(normal, cut.unit, cut.rhs, point)
        if violation < -tolerance:
            raise SolverError(
                f"oracle cut is satisfied at the query point (violation {violation})",
                transcript,
            )
        key = cut.roster_key()
        fresh = key is not None and key not in seen
        if fresh:
            seen.add(key)
            transcript.roster.append(cut)
        if fresh and on_new_cut is not None and on_new_cut(cut, transcript.roster):
            transcript.entries.append(
                TranscriptEntry(iteration, center, cut, violation, None)
            )
            return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
        if not any(normal):
            transcript.entries.append(
                TranscriptEntry(iteration, center, cut, violation, None)
            )
            return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
        state = update(state, normal)
        new_log_det = state.log_det()
        drop = (previous_log_det - new_log_det) / 2
        if drop < min_drop:
            raise PrecisionError(
                f"volume contraction {drop} fell below the guaranteed "
                f"{min_drop}; increase precision_bits",
                transcript,
            )
        transcript.entries.append(
            TranscriptEntry(iteration, center, cut, violation, drop)
        )
        previous_log_det = new_log_det
        if params.stop_log_volume is not None:
            if log_unit_ball + new_log_det / 2 < params.stop_log_volume:
                return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
    return finish(Outcome.ITERATION_CAP_REACHED, state)
