"""End-to-end solves: cut collection, the finishing LP, and verification.

The purified pipeline is exact end to end. The ellipsoid proposes dual
points, the purified oracle answers with pure-profile cuts, and once the
collected columns admit a distribution clearing every incentive row, that
distribution (a vertex, hence sparse) is verified exactly and returned with
violation zero. The product pipeline keeps the unrounded product cuts
instead and reports the best mixture it can, including its exact worst-row
shortfall, which may be positive; it exists as a comparison baseline and
makes no exactness claim.

Both oracles share one pipeline. One incremental MinViolation program per
solve alone decides every probe of the collected columns: it takes each
cut's unit-free normal, since a positive column scale does not change
whether the columns admit a distribution, and a feasible probe ends the run.
The cold LP then runs once over the final columns, and its vertex is the
answer: try_feasible_bfs for profile columns; for product columns,
mixture_feasible after a feasible probe, and otherwise min_violation_mixture,
a fresh MinViolation over the cuts with their units.

Every purified run ends one way, however the ellipsoid stopped: the probe
program takes the columns it has not seen, then prices on, one fresh oracle
profile per round at its optimal dual, until the columns admit a
distribution. No solve calls the reference brute_force_ce.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .ellipsoid import (
    MAX_PRECISION_BITS,
    Transcript,
    certified_stop,
    check_int,
    iteration_bound,
    run,
)
from .errors import SolverError
from .exact_lp import (
    CutLP,
    MinViolation,
    min_violation_mixture,
    mixture_feasible,
    try_feasible_bfs,
)
from .games import Game, ProductDistribution
from .incentives import SparseCE, profile_column, row_count, verify_ce
from .oracles import TIE_BREAKS, IntegerPoint, product_separation, purified_separation

__all__ = [
    "SolveConfig",
    "SolveReport",
    "ProductMixture",
    "compute_exact_ce",
    "brute_force_ce",
    "iteration_bound",
    "support_bound",
    "probability_bit_bound",
]

MODES = ("practical", "theoretical")
ORACLES = ("purified", "product")

BRUTE_FORCE_PROFILE_CAP = 4096
# the ellipsoid stores an N(N-1)/2 factor, so N is bounded before the run
MAX_INCENTIVE_ROWS = 1 << 10


def check_row_count(n: int) -> None:
    """Refuse more than MAX_INCENTIVE_ROWS incentive rows with SolverError."""
    if n > MAX_INCENTIVE_ROWS:
        raise SolverError(f"{n} incentive rows exceed the ceiling {MAX_INCENTIVE_ROWS}")


def support_bound(game: Game) -> int:
    """A vertex certificate never needs more atoms than this."""
    return 1 + sum(m * (m - 1) for m in game.actions)


def probability_bit_bound(game: Game) -> int:
    """Sanity ceiling on certificate probability sizes: 4 N^3 ceil(log2(u + 2))."""
    n = row_count(game)
    u = game.payoff_ceiling()
    return 4 * n**3 * max(1, math.ceil(math.log2(u + 2)))


@dataclass(frozen=True)
class SolveConfig:
    mode: str = "practical"
    oracle: str = "purified"
    tie_break: str = "first"
    precision_bits: int = 256
    max_iters: int = 2000  # ellipsoid iterations before the probe prices alone (practical)
    seed: int = 0  # recorded for provenance; the solve itself is deterministic
    probe_stride: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        if self.oracle != "purified" and self.mode == "theoretical":
            raise ValueError("theoretical mode needs the purified oracle")
        check_int("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        check_int("precision_bits", self.precision_bits)
        if self.precision_bits < 16:
            raise ValueError("precision_bits must be at least 16")
        if self.precision_bits > MAX_PRECISION_BITS:
            raise ValueError(f"precision_bits must be at most {MAX_PRECISION_BITS}")
        check_int("probe_stride", self.probe_stride)
        if self.probe_stride < 1:
            raise ValueError("probe_stride must be positive")
        check_int("seed", self.seed)


@dataclass(frozen=True)
class ProductMixture:
    """Convex combination of product distributions with its exact shortfall."""

    components: tuple[tuple[Fraction, ProductDistribution], ...]
    epsilon: Fraction

    @property
    def support(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "components": [
                {
                    "weight": str(weight),
                    "strategies": [[str(p) for p in strat] for strat in dist.strategies],
                }
                for weight, dist in self.components
            ],
        }


@dataclass
class SolveReport:
    mode: str
    oracle: str
    tie_break: str
    precision_bits: int
    seed: int
    iterations: int
    distinct_cuts: int
    support: int
    exact_epsilon: Fraction
    verified: bool
    used_fallback: bool
    wall_ms: float
    certificate: SparseCE | None
    mixture: ProductMixture | None
    transcript: Transcript
    game_summary: dict

    def to_json(self) -> dict:
        return {
            "status": "ok",
            "mode": self.mode,
            "oracle": self.oracle,
            "tie_break": self.tie_break,
            "precision_bits": self.precision_bits,
            "seed": self.seed,
            "game": self.game_summary,
            "iterations": self.iterations,
            "distinct_cuts": self.distinct_cuts,
            "support": self.support,
            "exact_epsilon": str(self.exact_epsilon),
            "verified": self.verified,
            "used_fallback": self.used_fallback,
            "wall_ms": self.wall_ms,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "mixture": self.mixture.to_json() if self.mixture else None,
        }


def _game_summary(game: Game) -> dict:
    return {
        "family": game.family,
        "players": game.players,
        "actions": list(game.actions),
        "u_max": game.u_max,
    }


def _certificate(game: Game, config: SolveConfig, transcript: Transcript,
                 program: MinViolation) -> tuple[SparseCE, int]:
    """The purified solve's verified certificate and how many profile columns it had.

    The probe program first takes the columns probe_stride skipped, then
    prices on: at its optimal dual y >= 0 each held column has c.y <= -t < 0
    and the oracle's c.y >= 0, so each round brings a fresh profile until the
    columns admit a distribution. A run that a probe ended prices nothing.
    The certificate is the cold LP's vertex over every column.
    """
    columns = [cut.column for cut in transcript.roster]
    for column in columns[program.added:]:
        program.add(column.dense())
    while not program.feasible():
        point = IntegerPoint(*program.dual(transcript.n_rows))
        column = purified_separation(game, point, config.tie_break).column
        if any(held.profile == column.profile for held in columns):
            raise SolverError(f"the oracle repeated profile {column.profile} "
                              "at the probe program's dual", transcript)
        columns.append(column)
        program.add(column.dense())
    ce = try_feasible_bfs(CutLP(columns=tuple(columns)))
    if ce is None:
        raise SolverError("the probe program found the collected columns feasible "
                          "but the cold LP did not", transcript)

    check = verify_ce(game, ce)
    if not check.verdict:
        raise SolverError(
            f"certificate failed exact verification at row {check.worst_row} "
            f"with value {check.worst_value}",
            transcript,
        )
    if ce.support > support_bound(game):
        raise SolverError(
            f"certificate support {ce.support} exceeds the vertex bound "
            f"{support_bound(game)}",
            transcript,
        )
    if ce.max_probability_bits() > probability_bit_bound(game):
        raise SolverError("certificate probabilities exceed the size ceiling", transcript)
    return ce, len(columns)


def _mixture(transcript: Transcript, feasible: bool) -> ProductMixture:
    """The product solve's best mixture of its collected cuts, with its exact shortfall.

    A feasible last probe means the collected columns admit a mixture with
    no shortfall, which the cold mixture LP returns; otherwise the mixture
    minimizes the worst shortfall. Either way the LP's t must equal the
    shortfall recomputed from the weights, in integers: each weight times
    its cut's unit, over their common denominator, scales the cut's
    integer direction.
    """
    roster = transcript.roster
    if not roster:
        raise SolverError("no product cuts were collected", transcript)
    if feasible:
        t, alpha = Fraction(0), mixture_feasible([cut.direction for cut in roster],
                                                 [cut.unit for cut in roster])
        if alpha is None:
            raise SolverError(
                "the verdict found the collected cuts feasible but the mixture LP did not",
                transcript,
            )
    else:
        t, alpha = min_violation_mixture([cut.direction for cut in roster],
                                         [cut.unit for cut in roster])

    # the mixture's row values times one common denominator, as integers
    weights = [(a * cut.unit, cut.direction) for a, cut in zip(alpha, roster) if a]
    common = math.lcm(*(w.denominator for w, _ in weights))
    aggregate = [0] * transcript.n_rows
    for w, direction in weights:
        factor = w.numerator * (common // w.denominator)
        aggregate = [total + factor * v for total, v in zip(aggregate, direction)]
    lowest = min(aggregate)
    epsilon = Fraction(-lowest, common) if lowest < 0 else Fraction(0)
    if t != epsilon:
        raise SolverError(
            "the mixture LP's shortfall t differs from the epsilon its weights give",
            transcript,
        )
    return ProductMixture(
        components=tuple((a, cut.x) for a, cut in zip(alpha, roster) if a > 0),
        epsilon=epsilon,
    )


def compute_exact_ce(game: Game, config: SolveConfig | None = None) -> SolveReport:
    """Solve for a correlated equilibrium under the given configuration.

    Purified oracle: returns an exactly verified sparse certificate with
    violation zero. Past max_iters (or the theoretical volume floor) the
    probe program prices on alone, so a run ends with a certificate; a
    SolverError (with the transcript attached) means a failed internal check.

    Product oracle: returns the best mixture of collected product
    distributions with its exact worst-row shortfall, zero or positive.

    A game with more than MAX_INCENTIVE_ROWS incentive rows raises
    SolverError before anything is allocated.
    """
    config = config or SolveConfig()
    started = time.perf_counter()
    n = row_count(game)
    check_row_count(n)
    stop, cap = ((None, config.max_iters) if config.mode == "practical"
                 else certified_stop(n, game.payoff_ceiling()))
    purified = config.oracle == "purified"
    program = MinViolation()

    def probe(roster) -> bool:
        if len(roster) % config.probe_stride:
            return False
        for cut in roster[program.added:]:
            program.add(cut.normal())
        return program.feasible()

    def oracle(y):
        if purified:
            return purified_separation(game, y, config.tie_break)
        return product_separation(game, y)

    transcript = run(n, oracle, probe, max_iters=cap, precision_bits=config.precision_bits,
                     stop_log_volume=stop)

    if purified:
        certificate, distinct_cuts = _certificate(game, config, transcript, program)
        mixture, support, epsilon = None, certificate.support, Fraction(0)
    else:
        # the last probe's answer: asked again, the program resumes from an
        # optimal basis and pivots nothing. transcript.capped cannot tell,
        # since a zero-normal cut between probes ends the run uncapped too.
        mixture = _mixture(transcript, program.feasible())
        certificate, distinct_cuts = None, len(transcript.roster)
        support, epsilon = mixture.support, mixture.epsilon
    return SolveReport(
        mode=config.mode,
        oracle=config.oracle,
        tie_break=config.tie_break,
        precision_bits=config.precision_bits,
        seed=config.seed,
        iterations=len(transcript.entries),
        distinct_cuts=distinct_cuts,
        support=support,
        exact_epsilon=epsilon,
        verified=epsilon == 0,
        used_fallback=distinct_cuts > len(transcript.roster),
        wall_ms=(time.perf_counter() - started) * 1000.0,
        certificate=certificate,
        mixture=mixture,
        transcript=transcript,
        game_summary=_game_summary(game),
    )


def brute_force_ce(game: Game) -> SparseCE:
    """Reference solver: the full feasibility program over every profile."""
    if game.num_profiles > BRUTE_FORCE_PROFILE_CAP:
        raise SolverError(
            f"{game.num_profiles} profiles exceed the brute-force cap "
            f"{BRUTE_FORCE_PROFILE_CAP}"
        )
    ce = try_feasible_bfs(CutLP(columns=tuple(profile_column(game, s) for s in game.profiles())))
    if ce is None:
        raise SolverError("no distribution clears every row; impossible for a finite game")
    return ce
