"""Central-cut ellipsoid engine in fixed-point integers.

The ellipsoid state lives in Python integers, and every oracle exchange is
exact: the center goes to the oracle as one integer vector over a power of
two (integer_center), and each cut's violation is one integer dot product
with it, an exact (numerator, denominator) pair that is checked in integers
and becomes a Fraction only when the transcript is read. Exactness of final
answers never rests on this module; it only has to keep shrinking volume,
and each update is checked against the guaranteed contraction rate.

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
the practical radius 2**10 (PRACTICAL_LOG2_RADIUS), and the theoretical
mode moves the certified volume floor down to it (certified_stop). The cut
normal is scaled to integers, which makes L^T a, a^T P a and P a exact. The
volume is read off the stored pivots, and the pivots decide positive
definiteness by their signs.

The update is the minimal-volume ellipsoid containing the half-ellipsoid on
the satisfied side of the cut through the center. Its volume ratio is below
exp(-1/(5 n)) for every dimension n >= 1, with room to spare for rounding.

Many coordinates never move: the incentive rows (p, a, a) are zero in every
cut, and other rows stay zero until the first cut that touches them. The
state is therefore stored over the touched coordinates, those some cut
normal has had nonzero. Every other coordinate has center 0, a zero row
and column in L, and one pivot shared by all of them, since each update
scales all of their pivots by the same rounded n^2 / (n^2 - 1). The rank-one
update leaves such a coordinate exactly where it was, so an update over the
touched coordinates, with the full dimension N in every constant, gives the
same state bit for bit as one over all N coordinates; a coordinate enters
when a normal first touches it. The center still goes out with all N
coordinates.

The transcript is the one record of a run: run returns it marked capped
when the iterations ran out. It keeps the cut sequence and no center: the
entries of a run share one object per distinct cut, an entry's iteration is
its position, and the centers, the final state included, follow from the
cuts by replaying their normals through update from the starting ball. Its
size grows with the iterations plus the distinct cuts, not with
iterations * N.

The initial radius must have a power-of-two square, so the starting ball is
exact too. The iteration bound is a ceiling taken from the standard
library's correctly rounded decimal logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .errors import PrecisionError, SolverError
from .games import is_int
from .oracles import Cut, IntegerPoint, NonnegativityCut, normal_violation

# The most precision_bits a run may ask for. The starting ball alone holds a
# precision_bits-bit pivot, so a larger value is refused before anything is
# allocated; it is a constant, not a setting.
MAX_PRECISION_BITS = 1 << 16
# log2 of the starting ball's radius; both modes start there
PRACTICAL_LOG2_RADIUS = 10.0


# ---------- helpers ----------


def check_int(name: str, value) -> None:
    """Refuse a value that is not an int, or is a bool, with ValueError."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")


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
    check_int("n_rows", n_rows)
    check_int("u_max", u_max)
    if n_rows < 1:
        raise ValueError("n_rows must be a positive integer")
    if u_max < 0:
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


def certified_stop(n_rows: int, u_max: int) -> tuple[float, int]:
    """(stop_log_volume, max_iters) of the theoretical mode: the worst-case
    guarantee's volume floor, carried to the practical radius 2**10, and its
    iteration cap.

    The guarantee holds at the radius 2**rho, rho = ceil(5 N^3 log2 u),
    with the floor the unit-ball volume times u**(-7 N^5), in log form.
    The run is equivariant under a power-of-two scale of the starting
    ball: the oracle reads y only up to a positive scale, every cut is
    central, and the center and pivots are rounded to significant bits,
    relative to their own size. A ball 2**(rho - 10) times larger
    therefore gives the same cuts, with every center scaled by that power
    of two and every volume by 2**(N (rho - 10)). Lowering the floor by
    N (rho - 10) ln 2 makes the small run stop where the certified one
    would, without carrying rho-bit exponents through every update.
    """
    u = max(2, u_max)
    rho = float(math.ceil(5 * n_rows**3 * math.log2(u)))
    floor = _log_unit_ball_volume(n_rows) - 7 * n_rows**5 * math.log(u)
    return (floor - n_rows * (rho - PRACTICAL_LOG2_RADIUS) * math.log(2),
            iteration_bound(n_rows, u))


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
    # num / (den 2**shift) has bits or bits + 1 integer bits; one comparison
    # moves shift up by one in the second case, so the quotient is below 2**bits
    shift = abs(num).bit_length() - den.bit_length() - bits
    top = shift + bits
    if (abs(num) >= den << top) if top >= 0 else (abs(num) << -top >= den):
        shift += 1
    if shift >= 0:
        divisor = den << shift
        quotient, rest = divmod(num, divisor)
    else:
        divisor = den
        quotient, rest = divmod(num << -shift, den)
    twice = 2 * rest
    if twice > divisor or (twice == divisor and quotient & 1):
        quotient += 1
    if abs(quotient) >> bits:  # rounded up to 2**bits, which has bits + 1 bits
        return quotient >> 1, exp + shift + 1
    return quotient, exp + shift


def _integer_direction(normal: Sequence[int]) -> Sequence[int]:
    """The integer normal over the gcd of its entries; the update ignores its scale."""
    common = math.gcd(*normal)
    if common == 0:
        raise ValueError("cut normal must be nonzero")
    return normal if common == 1 else [v // common for v in normal]


def _fractions(pairs: Sequence[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Dyadic (mantissa, exponent) pairs as exact rationals."""
    return tuple(
        Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        for man, exp in pairs
    )


@dataclass(frozen=True)
class EllipsoidState:
    """Center and factored shape matrix in fixed point, stored over the
    coordinates some cut has touched.

    touched lists, ascending, the coordinates that some cut normal has had
    nonzero; center, columns and pivots are indexed by position in it. Every
    other coordinate has center 0, a zero row and column in L, and the one
    shared pivot rest_pivot: these start equal, and every update scales each
    of them by the same rounded n^2 / (n^2 - 1), so they stay equal.

    center holds one (mantissa, exponent) pair per touched coordinate, the
    dyadic mantissa * 2**exponent. The shape matrix is P = L diag(d) L^T with
    L unit lower triangular: columns[i] holds the entries of the column of
    touched[i] in the rows touched[i + 1:], each an integer over
    2**(precision_bits + 16). pivots[i] is its d as a (mantissa, exponent)
    pair whose mantissa has precision_bits bits, as is rest_pivot. Each
    pivot carries its own scale, so an ellipsoid that thins out in some
    direction keeps its precision there, and P is positive definite exactly
    when every pivot mantissa is positive.
    """

    dimension: int
    touched: tuple[int, ...]
    center: tuple[tuple[int, int], ...]
    columns: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]
    rest_pivot: tuple[int, int]
    precision_bits: int

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
            dimension=n,
            touched=(),
            center=(),
            columns=(),
            pivots=(),
            rest_pivot=(1 << lift, int(twice) - lift),
            precision_bits=precision_bits,
        )

    def snapshot(self) -> tuple[Fraction, ...]:
        """The exact center, all N coordinates; dyadic state makes this lossless."""
        values = [Fraction(0)] * self.dimension
        for r, value in zip(self.touched, _fractions(self.center)):
            values[r] = value
        return tuple(values)

    def integer_center(self) -> IntegerPoint:
        """The exact center as N integers Y over 2**k, from the stored pairs by
        shifts alone; k is minus the least exponent of a nonzero coordinate,
        or zero when no such exponent is negative."""
        k = max(0, max((-exp for man, exp in self.center if man), default=0))
        numerators = [0] * self.dimension
        for r, (man, exp) in zip(self.touched, self.center):
            if man:
                numerators[r] = man << (exp + k)
        return IntegerPoint(tuple(numerators), 1 << k)

    def log_det(self) -> float:
        """Log-determinant of the shape matrix, the sum of log d_j.

        L is unit triangular, so the stored pivots are the whole
        determinant, and their mantissa signs decide positive definiteness
        exactly. The shared pivot counts once per untouched coordinate, so
        fsum adds the same floats as over N stored pivots.
        """
        rest = self.dimension - len(self.touched)
        pivots = self.pivots + (self.rest_pivot,) * (rest > 0)
        if min(man for man, _ in pivots) <= 0:
            raise PrecisionError(_NOT_POSITIVE_DEFINITE)
        logs = [math.log(man) for man, _ in self.pivots]
        if rest:
            logs += [math.log(self.rest_pivot[0])] * rest
        return (math.fsum(logs)
                + (sum(exp for _, exp in self.pivots) + rest * self.rest_pivot[1]) * _LN2)


def _enter(state: EllipsoidState, rows: Sequence[int]) -> tuple[tuple, ...]:
    """touched, center, columns and pivots with the untouched coordinates
    `rows` added, each with center 0, a zero row and column in L and the
    shared pivot: the same ellipsoid."""
    touched = tuple(sorted((*state.touched, *rows)))
    known = {r: i for i, r in enumerate(state.touched)}
    where = [known.get(r) for r in touched]  # old position, None for a new row
    center, columns, pivots = [], [], []
    for j, i in enumerate(where):
        if i is None:
            center.append((0, 0))
            columns.append((0,) * (len(touched) - j - 1))
            pivots.append(state.rest_pivot)
        else:
            col = state.columns[i]
            center.append(state.center[i])
            columns.append(tuple([0 if o is None else col[o - i - 1] for o in where[j + 1:]]))
            pivots.append(state.pivots[i])
    return touched, tuple(center), tuple(columns), tuple(pivots)


def update(state: EllipsoidState, normal: Sequence[int]) -> EllipsoidState:
    """Minimal-volume ellipsoid containing the half with normal . z <= normal . center.

    Scale-invariant in the normal, which has all N coordinates. The new shape
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

    The pass runs over the touched coordinates only, after entering those
    the normal touches first; n is the full dimension N throughout. This
    is exact: an untouched coordinate r has a_r = 0 and a zero column, so
    u_r = 0 and its pivot is only scaled by n^2 / (n^2 - 1), which is
    rounded once for all of them; its row of L is zero, so w_r = 0, and its
    row and center coordinate stay zero.
    """
    n = state.dimension
    if len(normal) != n:
        raise ValueError(f"normal has length {len(normal)}, expected {n}")
    dense = _integer_direction(normal)
    bits = state.precision_bits
    one = 1 << (bits + _GUARD_BITS)
    touched, center, columns, pivots = (
        state.touched, state.center, state.columns, state.pivots)
    a = [dense[r] for r in touched]
    rows = [r for r, ar in enumerate(dense) if ar]
    if len(rows) > len(a) - a.count(0):  # the normal touches a new coordinate
        known = set(touched)
        touched, center, columns, pivots = _enter(
            state, [r for r in rows if r not in known])
        a = [dense[r] for r in touched]
    size = len(touched)

    # u[j] = (L^T a)_j * one; it vanishes past the last nonzero of a
    support = [(r, ar) for r, ar in enumerate(a) if ar]
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

    rest_man, rest_exp = state.rest_pivot
    if n == 1:
        new_pivots = ((pivots[0][0], pivots[0][1] - 2),)
        rest_pivot = (rest_man, rest_exp - 2)
    else:
        # T_j / T_{j-1} is one where u_j = 0 and past the last column of u
        nn = n * n
        ratios = [(t, s) if uj else (1, 1) for uj, t, s in zip(u, after, [top, *after])]
        ratios += [(1, 1)] * (size - last - 1)
        new_pivots = tuple(
            _round_dyadic(man * nn * t, (nn - 1) * s, exp, bits)
            for (man, exp), (t, s) in zip(pivots, ratios)
        )
        rest_pivot = _round_dyadic(rest_man * nn, nn - 1, rest_exp, bits)

    new_columns = list(columns)
    w = [0] * size  # sum of p[k] L[:, k] * one over the columns passed so far
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
    new_center = []
    for (man, man_exp), wi in zip(center, w):
        if man:
            base = min(man_exp, step_exp)
            num = ((man * den) << (man_exp - base)) - (wi << (step_exp - base))
        else:
            base, num = step_exp, -wi
        new_center.append(_round_dyadic(num, den, base, bits))

    return EllipsoidState(
        dimension=n,
        touched=touched,
        center=tuple(new_center),
        columns=tuple(new_columns),
        pivots=new_pivots,
        rest_pivot=rest_pivot,
        precision_bits=bits,
    )


# ---------- transcripts and the run loop ----------


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One iteration: the cut the oracle returned and its exact violation at
    the queried center.

    The center itself is not kept. It is a function of the cuts before it:
    replaying their normals through update from the initial ball gives every
    center bit for bit. cut is shared: an entry whose cut repeats a roster
    key holds the roster's instance, and the nonnegativity cuts of one
    coordinate are one object, so the entries of a run hold one cut object
    per distinct cut.
    """

    cut: Cut
    violation_pair: tuple[int, int]  # (num, den), den > 0, as normal_violation gives it
    log_volume_drop: float | None  # None when the run stopped before updating

    @property
    def violation(self) -> Fraction:
        return Fraction(*self.violation_pair)


@dataclass
class Transcript:
    """The cut sequence of a run and whether it ran out of iterations
    (capped); entry k (from 0) is iteration k + 1.

    It grows with the iterations plus the distinct cuts, not with the
    dimension: each entry is a few integers and a reference to a shared
    cut, and roster lists the distinct profile or product cuts, the
    instances the entries refer to, in first-seen order.
    """

    n_rows: int
    entries: list[TranscriptEntry] = field(default_factory=list)
    roster: list[Cut] = field(default_factory=list)  # distinct cuts, first seen order
    capped: bool = False

    def to_jsonl(self) -> str:
        import json

        lines = []
        for iteration, e in enumerate(self.entries, 1):
            record = {"iter": iteration}
            record.update(e.cut.describe())
            record["violation"] = _decimal_str(e.violation)
            lines.append(json.dumps(record))
        return "\n".join(lines) + ("\n" if lines else "")


def run(
    n_rows: int,
    oracle: Callable[[IntegerPoint], Cut],
    on_new_cut: Callable[[list[Cut]], bool] | None = None,
    *,
    max_iters: int,
    precision_bits: int,
    stop_log_volume: float | None = None,
    log2_radius: float = PRACTICAL_LOG2_RADIUS,
) -> Transcript:
    """Drive the cut loop: read the center, query, verify, update, repeat.

    The oracle gets the center as an IntegerPoint (integer_center), and the
    cut's normal is built once per iteration, for both the violation and the
    update. The center is not kept: the transcript's cut sequence replays
    it.

    A cut that repeats a roster key is replaced by the roster's instance
    before anything reads it, and a nonnegativity cut by the first one of its
    coordinate: equal keys mean equal cuts, so the normal, the violation and
    the update are the same, and the oracle's duplicate is freed at once.

    Every returned cut must be violated at the query point (checked exactly,
    with slack 2**(-precision_bits/2)); every update must shrink log-volume by
    at least 1/(5 n) minus the same slack. A cut whose normal is identically
    zero certifies infeasibility outright (its constraint is 0 <= -1) and
    ends the run. on_new_cut(roster) fires when a distinct profile or
    product cut first appears; returning True stops the run early, which
    the solver's probe does once the collected columns admit a solution. A run
    whose ellipsoid falls below stop_log_volume (a natural log) also stops;
    one that does neither within max_iters comes back capped. The settings
    are taken as given: SolveConfig checks them.
    """
    state = EllipsoidState.initial_ball(n_rows, log2_radius, precision_bits)
    transcript = Transcript(n_rows=n_rows)
    half = precision_bits // 2
    min_drop = 1.0 / (5 * n_rows) - 2.0 ** -half
    previous_log_det = state.log_det()
    log_unit_ball = _log_unit_ball_volume(n_rows)
    known: dict = {}  # roster key -> the roster's instance
    nonneg: dict[int, NonnegativityCut] = {}  # position -> the run's one cut

    for _ in range(max_iters):
        point = state.integer_center()
        cut = oracle(point)
        key = cut.roster_key()
        fresh = False
        if key is None:
            if isinstance(cut, NonnegativityCut):
                cut = nonneg.setdefault(cut.position, cut)
        elif key in known:
            cut = known[key]
        else:
            known[key] = cut
            fresh = True
        normal = cut.normal()
        violation = normal_violation(normal, cut.unit, cut.rhs, point)
        num, den = violation
        if num << half < -den:  # num / den < -2**-half
            raise SolverError(
                f"oracle cut is satisfied at the query point (violation {Fraction(num, den)})",
                transcript,
            )
        if fresh:
            transcript.roster.append(cut)
        if (fresh and on_new_cut is not None and on_new_cut(transcript.roster)
                or not any(normal)):
            transcript.entries.append(TranscriptEntry(cut, violation, None))
            return transcript
        state = update(state, normal)
        new_log_det = state.log_det()
        drop = (previous_log_det - new_log_det) / 2
        if drop < min_drop:
            raise PrecisionError(
                f"volume contraction {drop} fell below the guaranteed "
                f"{min_drop}; increase precision_bits",
                transcript,
            )
        transcript.entries.append(TranscriptEntry(cut, violation, drop))
        previous_log_det = new_log_det
        if stop_log_volume is not None and log_unit_ball + new_log_det / 2 < stop_log_volume:
            return transcript
    transcript.capped = True
    return transcript
