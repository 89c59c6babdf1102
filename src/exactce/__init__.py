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

from .errors import (
    CertificateError,
    CertificateMismatchError,
    GameFormatError,
    PrecisionError,
    SolverError,
)
from .games import Game, load_game, load_game_file, random_game
from .incentives import SparseCE, VerifyResult, row_count, verify_ce
from .solver import SolveConfig, SolveReport, brute_force_ce, compute_exact_ce

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CertificateError",
    "CertificateMismatchError",
    "Game",
    "GameFormatError",
    "PrecisionError",
    "SolveConfig",
    "SolveReport",
    "SolverError",
    "SparseCE",
    "VerifyResult",
    "brute_force_ce",
    "compute_exact_ce",
    "load_game",
    "load_game_file",
    "random_game",
    "row_count",
    "verify_ce",
]
