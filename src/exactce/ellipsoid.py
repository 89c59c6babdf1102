"""Central-cut ellipsoid engine over arbitrary-precision floats.

The ellipsoid state (center and shape matrix) lives in binary floats with a
configurable mantissa, while every oracle exchange is exact: the queried
point is the center converted losslessly to rationals, and cut violations are
evaluated in rational arithmetic. Exactness of final answers never rests on
this module; it only has to keep shrinking volume, and each update is checked
against the guaranteed contraction rate.

The update is the minimal-volume ellipsoid containing the half-ellipsoid on
the satisfied side of the cut through the center. Its volume ratio is below
exp(-1/(5 n)) for every dimension n >= 1, with room to spare for rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import mpmath
from mpmath import mp

from .errors import PrecisionError, SolverError
from .oracles import Cut, cut_violation

DEFAULT_PRECISION_BITS = 256


# ---------- exact conversions ----------


def mpf_to_fraction(value) -> Fraction:
    """Lossless conversion; binary floats are dyadic rationals."""
    num, den = mpmath.libmp.to_rational(value._mpf_)
    return Fraction(int(num), int(den))


def fraction_to_mpf(value: Fraction):
    """Rounded to the ambient working precision."""
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


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

_LN2 = math.log(2.0)

# pivots this small are in range where machine floats can no longer be
# trusted to certify positivity; the full-precision path decides instead
_FLOAT_PIVOT_FLOOR = 1e-150


def _scaled_entry(value, shift: int) -> float:
    """value * 2**-shift as a machine float, safe for any mpf exponent."""
    sign, man, exp, _ = value._mpf_
    if man == 0:
        return 0.0
    drop = man.bit_length() - 53
    if drop > 0:
        man >>= drop
        exp += drop
    out = math.ldexp(man, exp - shift)
    return -out if sign else out


def _float_log_det(shape) -> float | None:
    """Cholesky log-determinant on scaled floats; None when undecidable."""
    n = len(shape)
    diag_bits = []
    for i in range(n):
        sign, man, exp, bc = shape[i][i]._mpf_
        if man == 0 or sign:
            return None  # not positive definite; let the precise path report
        diag_bits.append(exp + bc)
    shift = max(diag_bits)
    if shift - min(diag_bits) > 900:
        return None  # diagonal spread exceeds the float exponent budget
    try:
        rows = [
            [_scaled_entry(shape[i][j], shift) for j in range(i + 1)]
            for i in range(n)
        ]
    except OverflowError:
        return None
    lower = [[0.0] * n for _ in range(n)]
    total = 0.0
    for i in range(n):
        li = lower[i]
        row = rows[i]
        for j in range(i + 1):
            s = row[j]
            lj = lower[j]
            for k in range(j):
                s -= li[k] * lj[k]
            if i == j:
                if s < _FLOAT_PIVOT_FLOOR:
                    return None
                total += math.log(s)
                li[i] = math.sqrt(s)
            else:
                li[j] = s / lj[j]
    return total + n * shift * _LN2


@dataclass(frozen=True)
class EllipsoidState:
    center: tuple
    shape: tuple[tuple, ...]
    precision_bits: int
    iteration: int = 0

    @classmethod
    def initial_ball(cls, n: int, log2_radius: float, precision_bits: int) -> "EllipsoidState":
        if n < 1:
            raise ValueError("dimension must be positive")
        with mp.workprec(precision_bits):
            r2 = mp.mpf(2) ** (2 * mp.mpf(log2_radius))
            zero = mp.mpf(0)
            center = tuple(zero for _ in range(n))
            shape = tuple(
                tuple(r2 if i == j else zero for j in range(n)) for i in range(n)
            )
        return cls(center=center, shape=shape, precision_bits=precision_bits)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def snapshot(self) -> tuple[Fraction, ...]:
        """The exact center; binary state makes this lossless."""
        return tuple(mpf_to_fraction(c) for c in self.center)

    def log_det(self):
        """Log-determinant of the shape matrix via Cholesky, which doubles as
        the positive-definiteness check.

        The factorization runs on machine floats after pulling out a
        power-of-two scale, which is plenty for volume bookkeeping; whenever
        the float path cannot decide (exponent range exhausted, a pivot too
        small to trust), it is redone at full working precision before any
        failure is declared.
        """
        fast = _float_log_det(self.shape)
        if fast is not None:
            return fast
        return self._log_det_precise()

    def _log_det_precise(self):
        with mp.workprec(self.precision_bits):
            n = self.dimension
            lower = [[mp.mpf(0)] * n for _ in range(n)]
            total = mp.mpf(0)
            for i in range(n):
                for j in range(i + 1):
                    s = self.shape[i][j]
                    for k in range(j):
                        s -= lower[i][k] * lower[j][k]
                    if i == j:
                        if s <= 0:
                            raise PrecisionError(
                                "shape matrix lost positive definiteness; "
                                "increase precision_bits"
                            )
                        total += mp.ln(s)
                        lower[i][i] = mp.sqrt(s)
                    else:
                        lower[i][j] = s / lower[j][j]
            return total

    def log_volume(self) -> float:
        with mp.workprec(self.precision_bits):
            return float(_log_unit_ball_volume(self.dimension) + self.log_det() / 2)


def update(state: EllipsoidState, normal: Sequence[Fraction]) -> EllipsoidState:
    """Minimal-volume ellipsoid containing the half with normal . z <= normal . center.

    Scale-invariant in the normal. Positive definiteness along the cut is
    checked through the quadratic form; dimension one degenerates to interval
    halving.
    """
    n = state.dimension
    if len(normal) != n:
        raise ValueError(f"normal has length {len(normal)}, expected {n}")
    if all(v == 0 for v in normal):
        raise ValueError("cut normal must be nonzero")
    with mp.workprec(state.precision_bits):
        a = [fraction_to_mpf(Fraction(v)) for v in normal]
        shape = state.shape
        shape_a = [
            sum((shape[i][k] * a[k] for k in range(n) if a[k]), mp.mpf(0))
            for i in range(n)
        ]
        gamma = sum((a[i] * shape_a[i] for i in range(n) if a[i]), mp.mpf(0))
        if gamma <= 0:
            raise PrecisionError(
                "cut normal has nonpositive quadratic form; increase precision_bits"
            )
        root = mp.sqrt(gamma)
        step = [v / root for v in shape_a]
        over = mp.mpf(1) / (n + 1)
        center = tuple(c - over * s for c, s in zip(state.center, step))
        if n == 1:
            new_shape = ((shape[0][0] / 4,),)
        else:
            factor = mp.mpf(n * n) / (n * n - 1)
            twice = mp.mpf(2) / (n + 1)
            half = []
            for i in range(n):
                shape_i = shape[i]
                twice_step_i = twice * step[i]
                half.append(
                    [factor * (shape_i[j] - twice_step_i * step[j]) for j in range(i + 1)]
                )
            new_shape = tuple(
                tuple(half[i][j] if j <= i else half[j][i] for j in range(n))
                for i in range(n)
            )
    return EllipsoidState(
        center=center,
        shape=new_shape,
        precision_bits=state.precision_bits,
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
        with mp.workprec(params.precision_bits):
            drop = float((previous_log_det - new_log_det) / 2)
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
            with mp.workprec(params.precision_bits):
                log_volume = float(_log_unit_ball_volume(n_rows) + new_log_det / 2)
            if log_volume < params.stop_log_volume:
                return finish(Outcome.INFEASIBLE_OR_SHALLOW, state)
    return finish(Outcome.ITERATION_CAP_REACHED, state)
