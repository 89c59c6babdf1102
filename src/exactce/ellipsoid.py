"""Central-cut ellipsoid engine in fixed-point integers.

The ellipsoid state lives in Python integers, while every oracle exchange is
exact: the queried point is the center read losslessly as rationals, and cut
violations are evaluated in rational arithmetic. Exactness of final answers
never rests on this module; it only has to keep shrinking volume, and each
update is checked against the guaranteed contraction rate.

The state is rounded to a fixed number of binary places, as in the
finite-precision ellipsoid method of Groetschel, Lovasz and Schrijver
(Geometric Algorithms and Combinatorial Optimization, 1988, section 3.2).
precision_bits sets that number:

* each center coordinate is a dyadic mantissa * 2**exponent, rounded
  half-even to precision_bits significant bits;
* the shape matrix is D L D, with D a diagonal of powers of two and L an
  integer matrix stored as its lower triangle, renormalised after every
  update so that each diagonal entry of L keeps precision_bits bits.

Integers have no exponent range, so the same arithmetic serves a modest
practical radius and the certified 2**(5 N^3 log u) one. The cut normal is
scaled to integers, which makes P a and a^T P a exact.

The update is the minimal-volume ellipsoid containing the half-ellipsoid on
the satisfied side of the cut through the center. Its volume ratio is below
exp(-1/(5 n)) for every dimension n >= 1, with room to spare for rounding.
mpmath serves only the unit-ball volume, the iteration bound and an initial
radius whose square is not a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from mpmath import mp

from .errors import PrecisionError, SolverError
from .oracles import Cut, cut_violation

DEFAULT_PRECISION_BITS = 256


# ---------- helpers ----------


def _log_unit_ball_volume(n: int):
    """Natural log of the unit ball volume in dimension n, ambient precision."""
    half = mp.mpf(n) / 2
    return half * mp.ln(mp.pi) - mp.loggamma(half + 1)


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
    with mp.workprec(256):
        value = 5 * n_rows * (5 * n_rows**4 + 7 * n_rows**5) * mp.ln(u)
        return int(mp.ceil(value))


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
        volume times u**(-7 N^5), in log form. Sized for tiny N; at realistic
        N the practical parameters are the ones to use.
        """
        u = max(2, u_max)
        log2_radius = float(math.ceil(5 * n_rows**3 * math.log2(u)))
        with mp.workprec(max(precision_bits, 128)):
            floor = float(_log_unit_ball_volume(n_rows) - 7 * n_rows**5 * mp.ln(u))
        return cls(log2_radius, floor, iteration_bound(n_rows, u), precision_bits)


# ---------- state ----------

# bits the step and the rank-one constants carry beyond precision_bits, so
# that the one rounding of each stored entry dominates the update's error
_GUARD_BITS = 16

# a Cholesky pivot this small next to its diagonal entry is within reach of
# machine-float rounding (about n 2**-53 of that entry); the exact test
# decides instead
_FLOAT_PIVOT_RATIO = 2.0**-30

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


def _integer_direction(normal: Sequence[Fraction]) -> list[int]:
    """The normal scaled to coprime integers; the update ignores its scale."""
    values = [Fraction(v) for v in normal]
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    common = math.gcd(*ints)
    if common == 0:
        raise ValueError("cut normal must be nonzero")
    return [v // common for v in ints]


def _column(rows: tuple[tuple[int, ...], ...], k: int) -> list[int]:
    """Column k of the symmetric matrix whose lower triangle is rows."""
    return [*rows[k], *(rows[i][k] for i in range(k + 1, len(rows)))]


def _float_log_det(rows: tuple[tuple[int, ...], ...]) -> float | None:
    """Log-determinant of the integer matrix by a machine-float Cholesky on
    entries scaled to the largest diagonal; None when floats cannot decide."""
    n = len(rows)
    diag = [rows[i][i] for i in range(n)]
    if min(diag) <= 0:
        return None  # not positive definite; let the exact test report
    top = max(d.bit_length() for d in diag)
    drop = max(0, top - 1000)
    scale = 2.0 ** (drop - top)
    try:
        scaled = [[float(x >> drop) * scale for x in row] for row in rows]
    except OverflowError:
        return None
    lower = []  # row i of the factor holds columns 0..i
    total = 0.0
    for row in scaled:
        li = []
        for lj, entry in zip(lower, row):
            li.append((entry - sum(map(mul, li, lj))) / lj[-1])
        pivot = row[-1] - sum(map(mul, li, li))
        if pivot <= row[-1] * _FLOAT_PIVOT_RATIO:
            return None
        total += math.log(pivot)
        li.append(math.sqrt(pivot))
        lower.append(li)
    return total + n * top * _LN2


def _exact_log_det(rows: tuple[tuple[int, ...], ...]) -> float:
    """Log-determinant of the integer matrix after Sylvester's criterion.

    Fraction-free (Bareiss) elimination without pivoting leaves the k-th
    leading principal minor on the diagonal at step k, so positive
    definiteness is decided exactly; the last minor is the determinant.
    """
    n = len(rows)
    matrix = [[rows[i][j] if j <= i else rows[j][i] for j in range(n)] for i in range(n)]
    previous = 1
    for k in range(n):
        pivot_row = matrix[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise PrecisionError(_NOT_POSITIVE_DEFINITE)
        for i in range(k + 1, n):
            row = matrix[i]
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // previous
        previous = pivot
    return math.log(previous)


@dataclass(frozen=True)
class EllipsoidState:
    """Center and shape matrix in fixed point.

    center holds one (mantissa, exponent) pair per coordinate, the dyadic
    mantissa * 2**exponent. The shape matrix is D L D with D the diagonal of
    2**exponents[i] and L the symmetric integer matrix whose lower triangle
    is shape: entry (i, j) is shape[i][j] * 2**(exponents[i] + exponents[j])
    for j <= i. The scaling keeps every diagonal entry of L at precision_bits
    bits, so an ellipsoid that thins out along some axes keeps its precision
    there.
    """

    center: tuple[tuple[int, int], ...]
    shape: tuple[tuple[int, ...], ...]
    exponents: tuple[int, ...]
    precision_bits: int
    iteration: int = 0

    @classmethod
    def initial_ball(cls, n: int, log2_radius: float, precision_bits: int) -> "EllipsoidState":
        if n < 1:
            raise ValueError("dimension must be positive")
        twice = 2 * log2_radius
        if float(twice).is_integer():
            man, exp = 1, int(twice)
        else:
            with mp.workprec(precision_bits):
                _, man, exp, _ = (mp.mpf(2) ** mp.mpf(twice))._mpf_
            man = int(man)
        lift = max(0, precision_bits - man.bit_length())
        lift += (exp - lift) % 2
        diag = man << lift
        shape = tuple(tuple(diag if j == i else 0 for j in range(i + 1)) for i in range(n))
        return cls(
            center=((0, 0),) * n,
            shape=shape,
            exponents=((exp - lift) // 2,) * n,
            precision_bits=precision_bits,
        )

    @property
    def dimension(self) -> int:
        return len(self.center)

    def snapshot(self) -> tuple[Fraction, ...]:
        """The exact center; dyadic state makes this lossless."""
        return tuple(
            Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
            for man, exp in self.center
        )

    def shape_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact shape matrix, both triangles."""
        rows = self.shape
        scale = [Fraction(2) ** e for e in self.exponents]
        return tuple(
            tuple(
                scale[i] * scale[j] * (rows[i][j] if j <= i else rows[j][i])
                for j in range(len(rows))
            )
            for i in range(len(rows))
        )

    def log_det(self) -> float:
        """Log-determinant of the shape matrix via Cholesky, which doubles as
        the positive-definiteness check.

        The factorization runs on machine floats read from the integers,
        which is plenty for volume bookkeeping; whenever it cannot decide
        (exponent range exhausted, a pivot too small to trust), Sylvester's
        criterion on the exact integers decides before any failure is
        declared.
        """
        rows = self.shape
        value = _float_log_det(rows)
        if value is None:
            value = _exact_log_det(rows)
        return value + 2 * sum(self.exponents) * _LN2

    def log_volume(self) -> float:
        with mp.workprec(self.precision_bits):
            return float(_log_unit_ball_volume(self.dimension) + self.log_det() / 2)


def update(state: EllipsoidState, normal: Sequence[Fraction]) -> EllipsoidState:
    """Minimal-volume ellipsoid containing the half with normal . z <= normal . center.

    Scale-invariant in the normal. With the normal in integers, P a and
    a . P a are exact, so positive definiteness along the cut is checked
    exactly. The step b = P a / sqrt(a . P a) is carried with precision_bits
    plus guard bits. Each new center coordinate c - b / (n + 1) is rounded
    once to precision_bits, and each new entry of
    n^2 / (n^2 - 1) P - 2 n^2 / ((n^2 - 1)(n + 1)) b b^T is one integer
    expression rounded once by the shift that leaves its diagonal entries
    with precision_bits bits. Dimension one degenerates to interval halving.
    """
    n = state.dimension
    if len(normal) != n:
        raise ValueError(f"normal has length {len(normal)}, expected {n}")
    a = _integer_direction(normal)
    bits = state.precision_bits
    rows = state.shape
    exps = state.exponents

    # with a' = D a / 2**low in integers: P a = D v 2**low and
    # a . P a = gamma 4**low, where v = L a' and gamma = a' . v
    support = [k for k in range(n) if a[k]]
    low = min(exps[k] for k in support)
    weights = [(k, a[k] << (exps[k] - low)) for k in support]
    v = [0] * n
    for k, ak in weights:
        v = [x + ak * y for x, y in zip(v, _column(rows, k))]
    gamma = sum(ak * v[k] for k, ak in weights)
    if gamma <= 0:
        raise PrecisionError(
            "cut normal has nonpositive quadratic form; increase precision_bits"
        )

    # step[i] = v[i] / sqrt(gamma) * 2**frac, so b[i] = step[i] * 2**(exps[i] - frac);
    # root = sqrt(gamma) * 2**lift to precision_bits plus guard bits
    frac = (bits + 1) // 2 + _GUARD_BITS
    lift = bits + _GUARD_BITS + 2 - gamma.bit_length() // 2
    root = math.isqrt(gamma << 2 * lift if lift >= 0 else gamma >> -2 * lift)
    up = frac + lift
    den = root << max(0, -up)
    twice_den = 2 * den
    step = [((x << max(0, up) + 1) + den) // twice_den for x in v]

    # center: c - b / (n + 1), rounded per coordinate; the term with the
    # larger exponent is shifted left onto the smaller one, and a zero
    # coordinate contributes nothing whatever its stored exponent
    center = []
    for (man, man_exp), s, e in zip(state.center, step, exps):
        step_exp = e - frac
        if man:
            base = min(man_exp, step_exp)
            num = ((man * (n + 1)) << (man_exp - base)) - (s << (step_exp - base))
        else:
            base, num = step_exp, -s
        center.append(_round_dyadic(num, n + 1, base, bits))

    if n == 1:
        new_rows, new_exps = rows, (exps[0] - 1,)
    else:
        # the constants carry 2 frac fractional bits, so that
        # factor L[i][j] - scaled[i] step[j] is entry (i, j) over
        # 2**(exps[i] + exps[j] - 2 frac)
        width = 2 * frac
        nn = n * n
        factor = ((nn << width) + (nn - 1) // 2) // (nn - 1)
        denominator = (nn - 1) * (n + 1)
        outer = ((2 * nn << width) + denominator // 2) // denominator
        half = 1 << (width - 1)
        scaled = [(outer * s + half) >> width for s in step]
        diag = [factor * rows[i][i] - scaled[i] * step[i] for i in range(n)]
        # entry (i, j) drops shifts[i] + shifts[j] bits
        shifts = [(d.bit_length() - bits) // 2 for d in diag]
        if min(diag) <= 0 or min(shifts) < 1:
            raise PrecisionError(_NOT_POSITIVE_DEFINITE)
        new_rows = tuple(
            tuple([
                (factor * x - t * s + (1 << (r + q - 1))) >> (r + q)
                for x, s, q in zip(row, step, shifts)
            ])
            for row, t, r in zip(rows, scaled, shifts)
        )
        new_exps = tuple(e - frac + r for e, r in zip(exps, shifts))
    return EllipsoidState(
        center=tuple(center),
        shape=new_rows,
        exponents=new_exps,
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
    center: tuple[Fraction, ...]
    cut: Cut
    violation: Fraction
    log_volume_drop: float | None  # None when the run stopped before updating


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
    oracle: Callable[[tuple[Fraction, ...]], Cut],
    on_new_cut: Callable[[Cut, list[Cut]], bool] | None = None,
) -> RunResult:
    """Drive the cut loop: snapshot, query, verify, update, repeat.

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
    if params.stop_log_volume is not None:
        with mp.workprec(params.precision_bits):
            log_unit_ball = float(_log_unit_ball_volume(n_rows))
    seen = set()

    def finish(outcome: Outcome, final_state: EllipsoidState) -> RunResult:
        transcript.outcome = outcome
        return RunResult(outcome=outcome, transcript=transcript, state=final_state)

    for iteration in range(1, params.max_iters + 1):
        point = state.snapshot()
        cut = oracle(point)
        violation = cut_violation(cut, point)
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
                TranscriptEntry(iteration, point, cut, violation, None)
            )
            return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
        normal = cut.normal()
        if all(v == 0 for v in normal):
            transcript.entries.append(
                TranscriptEntry(iteration, point, cut, violation, None)
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
            TranscriptEntry(iteration, point, cut, violation, drop)
        )
        previous_log_det = new_log_det
        if params.stop_log_volume is not None:
            if log_unit_ball + new_log_det / 2 < params.stop_log_volume:
                return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
    return finish(Outcome.ITERATION_CAP_REACHED, state)
