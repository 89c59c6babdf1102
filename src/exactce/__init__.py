"""Exact rational correlated equilibria for normal-form and polymatrix games.

The solver runs a central-cut ellipsoid against the dual of the incentive
feasibility program. A separation oracle turns each candidate dual point
into a cutting plane: the purified oracle builds a stationary product
distribution from the dual weights and rounds it to a single pure profile
whose incentive column certifies the cut, so every plane it returns is a
constraint of the dual program itself. The profiles collected this way span
a small exact LP whose solution is a sparse, exactly verified correlated
equilibrium.
"""

from .ellipsoid import (
    DEFAULT_PRECISION_BITS,
    EllipsoidParams,
    EllipsoidState,
    Outcome,
    RunResult,
    Transcript,
    TranscriptEntry,
    iteration_bound,
    run,
    update,
)
from .errors import (
    CertificateError,
    CertificateMismatchError,
    GameFormatError,
    PrecisionError,
    SolverError,
)
from .exact_lp import (
    CutLP,
    min_violation_mixture,
    mixture_feasible,
    solve_standard_form,
    stationary_distribution,
    try_feasible_bfs,
)
from .games import (
    Game,
    NormalFormGame,
    PolymatrixGame,
    ProductDistribution,
    load_game,
    load_game_file,
    random_game,
)
from .incentives import (
    RowIndex,
    SparseCE,
    VerifyResult,
    incentive_row_values,
    profile_column,
    row_at,
    row_count,
    row_position,
    verify_ce,
)
from .oracles import (
    TIE_BREAKS,
    IntegerPoint,
    NonnegativityCut,
    ProductCut,
    ProfileCut,
    cut_violation,
    product_separation,
    purified_separation,
    purify,
    stationary_product,
)
from .solver import (
    ProductMixture,
    SolveConfig,
    SolveReport,
    brute_force_ce,
    compute_exact_ce,
    probability_bit_bound,
    support_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CertificateError",
    "CertificateMismatchError",
    "CutLP",
    "DEFAULT_PRECISION_BITS",
    "EllipsoidParams",
    "EllipsoidState",
    "Game",
    "GameFormatError",
    "IntegerPoint",
    "NonnegativityCut",
    "NormalFormGame",
    "Outcome",
    "PolymatrixGame",
    "PrecisionError",
    "ProductCut",
    "ProductDistribution",
    "ProductMixture",
    "ProfileCut",
    "RowIndex",
    "RunResult",
    "SolveConfig",
    "SolveReport",
    "SolverError",
    "SparseCE",
    "TIE_BREAKS",
    "Transcript",
    "TranscriptEntry",
    "VerifyResult",
    "brute_force_ce",
    "compute_exact_ce",
    "cut_violation",
    "incentive_row_values",
    "iteration_bound",
    "load_game",
    "load_game_file",
    "min_violation_mixture",
    "mixture_feasible",
    "probability_bit_bound",
    "product_separation",
    "profile_column",
    "purified_separation",
    "purify",
    "random_game",
    "row_at",
    "row_count",
    "row_position",
    "run",
    "solve_standard_form",
    "stationary_distribution",
    "stationary_product",
    "support_bound",
    "try_feasible_bfs",
    "update",
    "verify_ce",
]
