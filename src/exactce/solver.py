"""End-to-end solves: cut collection, the finishing LP, and verification.

The purified pipeline is exact end to end. The ellipsoid proposes dual
points, the purified oracle answers with pure-profile cuts, and once the
collected columns admit a distribution clearing every incentive row, that
distribution (a vertex, hence sparse) is verified exactly and returned with
violation zero. The product pipeline keeps the unrounded product cuts
instead and reports the best mixture it can, including its exact worst-row
shortfall, which may be positive; it exists as a comparison baseline and
makes no exactness claim.

Both pipelines probe their collected columns through one gated probe: an
incremental FeasibilityVerdict decides every probe, and only a probe it
finds feasible runs the cold LP (try_feasible_bfs for profile columns,
mixture_feasible for product columns) whose vertex is the answer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .ellipsoid import (
    DEFAULT_PRECISION_BITS,
    EllipsoidParams,
    Outcome,
    Transcript,
    iteration_bound,
    run,
)
from .errors import SolverError
from .exact_lp import (
    CutLP,
    FeasibilityVerdict,
    min_violation_mixture,
    mixture_feasible,
    try_feasible_bfs,
)
from .games import Game, ProductDistribution
from .incentives import SparseCE, profile_column, row_count, verify_ce
from .oracles import TIE_BREAKS, product_separation, purified_separation

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
    precision_bits: int = DEFAULT_PRECISION_BITS
    max_iters: int = 2000
    seed: int = 0  # recorded for provenance; the solve itself is deterministic
    brute_force_fallback: bool = False
    probe_stride: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        if self.mode == "theoretical" and self.oracle != "purified":
            raise ValueError("theoretical mode requires the purified oracle")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.precision_bits < 16:
            raise ValueError("precision_bits must be at least 16")
        if self.probe_stride < 1:
            raise ValueError("probe_stride must be positive")


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

    def to_json(self, include_transcript: bool = False) -> dict:
        out = {
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
        if include_transcript:
            out["transcript"] = self.transcript.to_jsonl().splitlines()
        return out


def _game_summary(game: Game) -> dict:
    return {
        "family": game.family,
        "players": game.players,
        "actions": list(game.actions),
        "u_max": game.u_max,
    }


def _params_for(game: Game, config: SolveConfig) -> EllipsoidParams:
    """Ellipsoid parameters; both modes start from the practical radius.

    Theoretical mode keeps the certified iteration cap and moves the
    certified volume floor from the radius 2**rho down to the practical one.
    The run is equivariant under a power-of-two scale of the starting ball:
    the oracle reads y only up to a positive scale, every cut is central,
    and the center and pivots are rounded to significant bits, relative to
    their own size. A ball 2**(rho - r) times larger therefore gives the
    same cuts, with every center scaled by that power of two and every
    volume by 2**(N (rho - r)). Lowering the floor by N (rho - r) ln 2 makes
    the small run stop where the certified one would, without carrying
    rho-bit exponents through every update.
    """
    practical = EllipsoidParams.practical(
        max_iters=config.max_iters, precision_bits=config.precision_bits
    )
    if config.mode == "practical":
        return practical
    n = row_count(game)
    certified = EllipsoidParams.certified(n, game.payoff_ceiling(), config.precision_bits)
    shift = n * (certified.log2_radius - practical.log2_radius) * math.log(2)
    return EllipsoidParams(
        practical.log2_radius,
        certified.stop_log_volume - shift,
        certified.max_iters,
        config.precision_bits,
    )


def _gated_probe(stride: int, column_of, cold):
    """A probe callback for run, and the list its successful answers go to.

    Every stride-th roster, the new cuts' columns (column_of(cut)) join one
    FeasibilityVerdict per solve, which decides the probe from its last
    basis. Only a probe it finds feasible pays for cold(roster), the cold LP
    whose vertex is the answer, so the answer does not depend on the
    verdict's pivot path. A None from cold fails the probe.
    """
    verdict = FeasibilityVerdict()
    found = []

    def probe(_cut, roster) -> bool:
        if len(roster) % stride:
            return False
        for cut in roster[verdict.added:]:
            verdict.add(column_of(cut))
        if not verdict.feasible():
            return False
        answer = cold(roster)
        if answer is None:
            return False
        found.append(answer)
        return True

    return probe, found


def _solve_purified(game: Game, config: SolveConfig, started: float) -> SolveReport:
    n = row_count(game)
    params = _params_for(game, config)
    probe, found = _gated_probe(
        config.probe_stride,
        lambda cut: cut.column.dense(),
        lambda roster: try_feasible_bfs(CutLP.from_columns([c.column for c in roster])),
    )

    result = run(n, params, lambda y: purified_separation(game, y, config.tie_break), probe)

    used_fallback = False
    if result.outcome is Outcome.ITERATION_CAP_REACHED:
        if config.brute_force_fallback and game.num_profiles <= BRUTE_FORCE_PROFILE_CAP:
            ce = brute_force_ce(game)
            used_fallback = True
        else:
            raise SolverError(
                f"iteration cap {params.max_iters} reached before the collected "
                "cuts admitted a distribution",
                result.transcript,
            )
    elif found:
        ce = found[-1]
    else:
        lp = CutLP.from_columns(
            [c.column for c in result.transcript.roster if c.kind == "profile"]
        )
        ce = try_feasible_bfs(lp)
        if ce is None:
            raise SolverError(
                "run ended but the collected cuts admit no distribution",
                result.transcript,
            )

    check = verify_ce(game, ce)
    if not check.verdict:
        raise SolverError(
            f"certificate failed exact verification at row {check.worst_row} "
            f"with value {check.worst_value}",
            result.transcript,
        )
    if ce.support > support_bound(game):
        raise SolverError(
            f"certificate support {ce.support} exceeds the vertex bound "
            f"{support_bound(game)}",
            result.transcript,
        )
    if ce.max_probability_bits() > probability_bit_bound(game):
        raise SolverError(
            "certificate probabilities exceed the size ceiling", result.transcript
        )

    return SolveReport(
        mode=config.mode,
        oracle=config.oracle,
        tie_break=config.tie_break,
        precision_bits=config.precision_bits,
        seed=config.seed,
        iterations=len(result.transcript.entries),
        distinct_cuts=len(result.transcript.roster),
        support=ce.support,
        exact_epsilon=Fraction(0),
        verified=True,
        used_fallback=used_fallback,
        wall_ms=(time.perf_counter() - started) * 1000.0,
        certificate=ce,
        mixture=None,
        transcript=result.transcript,
        game_summary=_game_summary(game),
    )


def _solve_product(game: Game, config: SolveConfig, started: float) -> SolveReport:
    n = row_count(game)
    params = _params_for(game, config)
    probe, found = _gated_probe(
        config.probe_stride,
        lambda cut: cut.values,
        lambda roster: mixture_feasible([c.values for c in roster]),
    )

    result = run(n, params, lambda y: product_separation(game, y), probe)
    roster = result.transcript.roster
    if not roster:
        raise SolverError("no product cuts were collected", result.transcript)
    columns = [list(c.values) for c in roster]
    if found:
        t, alpha = Fraction(0), found[-1]
        alpha += [Fraction(0)] * (len(columns) - len(alpha))
    else:
        t, alpha = min_violation_mixture(columns)

    aggregate = [
        sum((alpha[k] * columns[k][r] for k in range(len(columns))), Fraction(0))
        for r in range(n)
    ]
    shortfall = -min(aggregate)
    epsilon = shortfall if shortfall > 0 else Fraction(0)
    if t != epsilon:
        raise SolverError(
            "the mixture LP's shortfall t differs from the epsilon its weights give",
            result.transcript,
        )
    mixture = ProductMixture(
        components=tuple(
            (alpha[k], roster[k].x) for k in range(len(columns)) if alpha[k] > 0
        ),
        epsilon=epsilon,
    )
    return SolveReport(
        mode=config.mode,
        oracle=config.oracle,
        tie_break=config.tie_break,
        precision_bits=config.precision_bits,
        seed=config.seed,
        iterations=len(result.transcript.entries),
        distinct_cuts=len(roster),
        support=mixture.support,
        exact_epsilon=epsilon,
        verified=epsilon == 0,
        used_fallback=False,
        wall_ms=(time.perf_counter() - started) * 1000.0,
        certificate=None,
        mixture=mixture,
        transcript=result.transcript,
        game_summary=_game_summary(game),
    )


def compute_exact_ce(game: Game, config: SolveConfig | None = None) -> SolveReport:
    """Solve for a correlated equilibrium under the given configuration.

    Purified oracle: returns an exactly verified sparse certificate with
    violation zero, or raises SolverError (with the transcript attached) if
    the iteration cap is hit and the brute-force fallback is off.

    Product oracle: returns the best mixture of collected product
    distributions with its exact worst-row shortfall, zero or positive.
    """
    config = config or SolveConfig()
    started = time.perf_counter()
    if config.oracle == "purified":
        return _solve_purified(game, config, started)
    return _solve_product(game, config, started)


def brute_force_ce(game: Game) -> SparseCE:
    """Reference solver: the full feasibility program over every profile."""
    if game.num_profiles > BRUTE_FORCE_PROFILE_CAP:
        raise SolverError(
            f"{game.num_profiles} profiles exceed the brute-force cap "
            f"{BRUTE_FORCE_PROFILE_CAP}"
        )
    columns = [profile_column(game, s) for s in game.profiles()]
    ce = try_feasible_bfs(CutLP.from_columns(columns))
    if ce is None:
        raise SolverError("no distribution clears every row; impossible for a finite game")
    return ce
