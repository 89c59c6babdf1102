"""Independent reference implementations used to pin expected values.

Everything here is computed from first principles with plain enumeration
and rational arithmetic, deliberately not reusing the package's internal
shortcuts, so package results can be checked against a second opinion.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from exactce import Game, PrecisionError, SolverError
from exactce.ellipsoid import EllipsoidState, _log_unit_ball_volume
from exactce.games import NormalFormGame, PolymatrixGame, ProductDistribution
from exactce.oracles import (
    _STATIONARY_FAILED,
    DualPoint,
    DualValue,
    _nonnegative_point,
    _rate_blocks,
    _stationary_blocks,
    _stationary_x,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def enum_profiles(actions):
    return itertools.product(*[range(m) for m in actions])


def payoff_direct(game: Game, profile, player) -> int:
    """Payoff lookup with its own index arithmetic."""
    if isinstance(game, NormalFormGame):
        flat = 0
        for q in range(len(game.actions)):
            stride = 1
            for r in range(q + 1, len(game.actions)):
                stride *= game.actions[r]
            flat += profile[q] * stride
        return game.tables[player][flat]
    if isinstance(game, PolymatrixGame):
        total = 0
        for q in range(len(game.actions)):
            if q == player:
                continue
            block = game.blocks[player][q]
            total += block[profile[player]][profile[q]]
        return total
    raise TypeError(f"unsupported game type {type(game)!r}")


def row_value_at(game: Game, row, profile) -> int:
    """Entry of the incentive matrix at (row, profile), by definition."""
    player, action, deviation = row
    if profile[player] != action:
        return 0
    deviated = list(profile)
    deviated[player] = deviation
    return payoff_direct(game, profile, player) - payoff_direct(game, tuple(deviated), player)


def all_rows(game: Game):
    for player, m in enumerate(game.actions):
        for action in range(m):
            for deviation in range(m):
                yield (player, action, deviation)


def column_dual_value(game: Game, profile, y) -> Fraction:
    """Inner product of the profile's incentive column with a dual vector."""
    return sum(
        (y[position] * row_value_at(game, row, profile)
         for position, row in enumerate(all_rows(game)) if y[position]),
        ZERO,
    )


def expand_to_normal_form(game: Game) -> NormalFormGame:
    """Materialize any game as a full normal-form table (small games only)."""
    tables = tuple(
        tuple(payoff_direct(game, s, p) for s in enum_profiles(game.actions))
        for p in range(len(game.actions))
    )
    return NormalFormGame(actions=game.actions, adjustments=game.adjustments, tables=tables)


def materialize_matrix(game: Game) -> list[list[int]]:
    """Full incentive matrix, rows ordered as in the package, profiles lexicographic."""
    profiles = list(enum_profiles(game.actions))
    return [[row_value_at(game, row, s) for s in profiles] for row in all_rows(game)]


def product_probability(strategies, profile) -> Fraction:
    prob = ONE
    for player, action in enumerate(profile):
        prob *= strategies[player][action]
    return prob


def enum_expected_utility(game: Game, strategies, player) -> Fraction:
    total = ZERO
    for profile in enum_profiles(game.actions):
        prob = product_probability(strategies, profile)
        if prob:
            total += prob * payoff_direct(game, profile, player)
    return total


def enum_row_expectation(game: Game, strategies, row) -> Fraction:
    total = ZERO
    for profile in enum_profiles(game.actions):
        prob = product_probability(strategies, profile)
        if prob:
            total += prob * row_value_at(game, row, profile)
    return total


def fraction_row_values(game: Game, strategies) -> list[Fraction]:
    """Row (p, i, j) = x_p(i) (E[u_p | p plays i] - E[u_p | p plays j]), with
    every conditional expectation enumerated over whole profiles."""
    out = []
    for player, m in enumerate(game.actions):
        conditional = []
        for action in range(m):
            forced = [list(block) for block in strategies]
            forced[player] = [ONE if a == action else ZERO for a in range(m)]
            conditional.append(enum_expected_utility(game, forced, player))
        for i in range(m):
            for j in range(m):
                out.append(strategies[player][i] * (conditional[i] - conditional[j]))
    return out


def dual_objective(game: Game, strategies, y) -> Fraction:
    """sum_r y_r * E_x[row r], the quantity the oracle chain preserves."""
    total = ZERO
    for position, row in enumerate(all_rows(game)):
        if y[position]:
            total += y[position] * enum_row_expectation(game, strategies, row)
    return total


def purify_reference(game: Game, y, x: ProductDistribution, tie_break: str):
    """Conditional-probability rounding, recomputed by brute enumeration."""
    strategies = [list(block) for block in x.strategies]
    for player, m in enumerate(game.actions):
        branches = []
        for action in range(m):
            candidate = [list(block) for block in strategies]
            candidate[player] = [ONE if a == action else ZERO for a in range(m)]
            value = dual_objective(game, candidate, y)
            branches.append((action, value, candidate))
        keep = [b for b in branches if b[1] >= 0]
        if not keep:
            raise AssertionError("no branch kept a nonnegative conditional value")
        if tie_break == "first":
            action, _, candidate = keep[0]
        elif tie_break == "max-value":
            best = max(b[1] for b in keep)
            action, _, candidate = next(b for b in keep if b[1] == best)
        elif tie_break == "welfare":
            def welfare(branch):
                return sum(enum_expected_utility(game, branch[2], q)
                           for q in range(len(game.actions)))
            best = max(welfare(b) for b in keep)
            action, _, candidate = next(b for b in keep if welfare(b) == best)
        else:
            raise ValueError(tie_break)
        strategies = candidate
    profile = []
    for block in strategies:
        profile.append(block.index(ONE))
    return tuple(profile)


def rational_rank(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def solve_square(matrix, rhs):
    """Solve a square rational system; None if singular."""
    n = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


def lp_optimum_by_enumeration(rows, rhs, objective):
    """Optimal value of min c.x s.t. rows.x = rhs, x >= 0, by basis enumeration.

    Returns (status, value): ("infeasible", None), ("optimal", value), or
    ("unbounded", None). Small instances only.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    best = None
    feasible = False
    for basis in itertools.combinations(range(n), m):
        square = [[rows[r][c] for c in basis] for r in range(m)]
        point = solve_square(square, rhs)
        if point is None or any(v < 0 for v in point):
            continue
        feasible = True
        full = [ZERO] * n
        for k, c in enumerate(basis):
            full[c] += point[k]
        value = sum(Fraction(objective[c]) * full[c] for c in range(n))
        if best is None or value < best:
            best = value
    if not feasible:
        # a feasible LP with rank-deficient constraints can still hide all
        # its vertices from full-size bases; callers keep instances full rank
        return ("infeasible", None)
    # unboundedness: scan recession directions d >= 0, rows.d = 0, c.d < 0
    for support in range(1, min(n, m + 2) + 1):
        for cols in itertools.combinations(range(n), support):
            sub = [[rows[r][c] for c in cols] for r in range(m)]
            if rational_rank(sub) >= support:
                continue
            direction = _null_direction(sub)
            if direction is None:
                continue
            for sign in (1, -1):
                d = [sign * v for v in direction]
                if all(v >= 0 for v in d) and any(v > 0 for v in d):
                    cost = sum(Fraction(objective[cols[k]]) * d[k] for k in range(support))
                    if cost < 0:
                        return ("unbounded", None)
    return ("optimal", best)


def _null_direction(matrix):
    """A nonzero rational null vector of the column space, if one exists."""
    if not matrix:
        return None
    m, n = len(matrix), len(matrix[0])
    work = [[Fraction(v) for v in row] for row in matrix]
    pivots = {}
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(m):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    direction = [ZERO] * n
    direction[free[0]] = ONE
    for col, row in pivots.items():
        direction[col] = -work[row][free[0]]
    return direction


# ---------- reference simplex ----------
#
# The Fraction-tableau two-phase simplex the package used before its integer
# core. The package core must take the same pivots, so both return the same
# (status, x) on every input.


def reference_pivot_budget(m: int, n: int) -> int:
    return 12 * (m + n) + 64


def _reference_run_simplex(tableau, basis, cost, n_candidates, budget):
    m = len(tableau)
    limit = budget(m, n_candidates)
    pivots = 0
    while True:
        enter = -1
        if pivots < limit:
            most = ZERO
            for j in range(n_candidates):
                value = cost[j]
                if value < most:
                    most = value
                    enter = j
        else:
            for j in range(n_candidates):
                if cost[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _reference_pivot(tableau, basis, cost, leave, enter)
        pivots += 1


def _reference_pivot(tableau, basis, cost, row, col):
    pivot_row = tableau[row]
    inv = ONE / pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            factor = other[col]
            tableau[i] = [v - factor * w for v, w in zip(other, pivot_row)]
    if cost is not None and cost[col]:
        factor = cost[col]
        for j in range(len(cost)):
            cost[j] -= factor * pivot_row[j]
    basis[row] = col


def reference_solve_standard_form(rows, rhs, objective=None, budget=reference_pivot_budget):
    """min objective . x s.t. rows . x = rhs, x >= 0, on a Fraction tableau.

    Phase 1 starts from an all-artificial basis; entering column: most
    negative reduced cost (lowest index on ties) until budget(m, n) pivots
    are spent, then Bland's least index; leaving row: smallest ratio, ties to
    the smallest basis index. Returns (status, x) like solve_standard_form.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [ONE if k == i else ZERO for k in range(m)] + [b])
    basis = list(range(n, n + m))

    cost = [ZERO] * (n + m + 1)
    for j in range(n + m + 1):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    for k in range(m):
        cost[n + k] += 1
    _reference_run_simplex(tableau, basis, cost, n, budget)
    infeasibility = sum((tableau[i][-1] for i in range(m) if basis[i] >= n), ZERO)
    if infeasibility != 0:
        return "infeasible", None

    drop = []
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j]:
                    _reference_pivot(tableau, basis, None, i, j)
                    break
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]

    if objective is not None:
        width = n + m + 1
        cost = [Fraction(objective[j]) for j in range(n)] + [ZERO] * (width - n)
        for i, row in enumerate(tableau):
            factor = Fraction(objective[basis[i]])
            if factor:
                for j in range(width):
                    cost[j] -= factor * row[j]
        if _reference_run_simplex(tableau, basis, cost, n, budget) == "unbounded":
            return "unbounded", None

    solution = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][-1]
    return "optimal", solution


def split_program(rows, rhs, objective=None):
    """The rational program min objective . x, rows . x = rhs, x >= 0, as the
    integer arguments (rows, rhs, scale, objective) of solve_standard_form.

    Every row is first multiplied by the lcm of the rhs denominators, which
    makes rhs integral; one positive factor on every row changes neither the
    rational tableau nor any pivot. Column j is then its entries times
    scale[j], the lcm of its denominators, and the objective is multiplied by
    the lcm of its own denominators, which changes no pivot either.
    """
    common = math.lcm(*(Fraction(b).denominator for b in rhs))
    scaled = [[Fraction(v) * common for v in row] for row in rows]
    n = len(rows[0]) if rows else 0
    scale = [math.lcm(*(row[j].denominator for row in scaled)) for j in range(n)]
    int_rows = [[int(v * s) for v, s in zip(row, scale)] for row in scaled]
    int_rhs = [int(Fraction(b) * common) for b in rhs]
    if objective is not None:
        factor = math.lcm(*(Fraction(c).denominator for c in objective))
        objective = [int(Fraction(c) * factor) for c in objective]
    return int_rows, int_rhs, scale, objective


def split_column(values):
    """A rational vector as a product cut holds it: a coprime integer direction
    times a positive unit (the zero vector is the zero direction with unit 1)."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * scale) for v in values]
    common = math.gcd(*ints) or scale  # a zero vector's unit is 1
    return [v // common for v in ints], Fraction(common, scale)


def unit_values(split) -> list[Fraction]:
    """The rational vector unit * direction of a RowValues or a ProductCut."""
    return [split.unit * v for v in split.direction]


def reference_mixture_feasible(columns):
    """alpha >= 0 summing to 1 with sum_k alpha_k col_k >= 0 rowwise, or None.

    Weights, then one surplus per row that some column touches, with the sum
    row last, through reference_solve_standard_form.
    """
    n_cols = len(columns)
    kept = [r for r in range(len(columns[0])) if any(col[r] for col in columns)]
    rows = []
    for k, r in enumerate(kept):
        surplus = [ZERO] * len(kept)
        surplus[k] = -ONE
        rows.append([Fraction(col[r]) for col in columns] + surplus)
    rows.append([ONE] * n_cols + [ZERO] * len(kept))
    status, solution = reference_solve_standard_form(rows, [ZERO] * len(kept) + [ONE])
    return solution[:n_cols] if status == "optimal" else None


def reference_stationary_distribution(rates, denominator):
    """The balance equations of the rates rates[i][j] / denominator (diagonal
    ignored) with the sum row last, through reference_solve_standard_form."""
    m = len(rates)
    rows = []
    for j in range(m):
        row = [Fraction(rates[i][j], denominator) if i != j else ZERO for i in range(m)]
        row[j] = -sum((Fraction(rates[j][k], denominator) for k in range(m) if k != j), ZERO)
        rows.append(row)
    rows.append([ONE] * m)
    status, solution = reference_solve_standard_form(rows, [ZERO] * m + [ONE])
    assert status == "optimal"
    return tuple(solution)


def reference_min_violation_mixture(columns):
    """min t s.t. sum_k alpha_k col_k + t >= 0 rowwise, alpha a distribution.

    The two-phase formulation the package solved before it built its own
    start basis: weights, then t, then one surplus per row that some column
    touches, with the sum row last, through reference_solve_standard_form.
    Returns (t, alpha).
    """
    n_cols = len(columns)
    kept = [r for r in range(len(columns[0])) if any(col[r] for col in columns)]
    rows = []
    for k, r in enumerate(kept):
        surplus = [ZERO] * len(kept)
        surplus[k] = -ONE
        rows.append([col[r] for col in columns] + [ONE] + surplus)
    rows.append([ONE] * n_cols + [ZERO] * (1 + len(kept)))
    rhs = [ZERO] * len(kept) + [ONE]
    objective = [ZERO] * n_cols + [ONE] + [ZERO] * len(kept)
    status, solution = reference_solve_standard_form(rows, rhs, objective)
    assert status == "optimal"
    return solution[n_cols], solution[:n_cols]


def random_nonneg_dual(rng: random.Random, length: int, density: float = 0.7):
    values = []
    for _ in range(length):
        if rng.random() < density:
            values.append(Fraction(rng.randint(0, 12), rng.randint(1, 9)))
        else:
            values.append(ZERO)
    return tuple(values)


def random_product(rng: random.Random, actions) -> ProductDistribution:
    strategies = []
    for m in actions:
        weights = [Fraction(rng.randint(1, 9)) for _ in range(m)]
        total = sum(weights)
        strategies.append(tuple(w / total for w in weights))
    return ProductDistribution(strategies=tuple(strategies))


SUITE_COMBOS = [
    (family, players, actions)
    for family in ("nfg", "polymatrix")
    for players in (2, 3, 4)
    for actions in (2, 3)
]


def suite_specs(count: int = 100, u_max: int = 10):
    """The seeded game suite: cycle families and sizes, one seed per index."""
    for index in range(count):
        family, players, actions = SUITE_COMBOS[index % len(SUITE_COMBOS)]
        yield (family, players, actions, u_max, index)


def stationary_product(game: Game, y: DualPoint) -> ProductDistribution:
    """Product distribution whose row values are orthogonal to y, exactly.

    Each player's block of y is read as transition rates between that
    player's actions, and the player's mixed strategy is a stationary
    distribution of those rates (uniform when the block is all zero). Balance
    makes the y-weighted sum of that player's incentive values telescope to
    zero; the result is verified exactly before returning. The solver reaches
    the same step through purified_separation.
    """
    point = _nonnegative_point(game, y)
    x = _stationary_x(_stationary_blocks(_rate_blocks(game, point), point.denominator))
    value = DualValue(game, point, x)
    if value.scores(value.start)[0] != 0:
        raise SolverError(_STATIONARY_FAILED)
    return x


# ---------- the ellipsoid state over all N coordinates ----------

# the reference below is the update as it was before the state kept only
# the touched coordinates; it walks every coordinate, and the package's
# update must reproduce it bit for bit

_GUARD_BITS = 16

_NOT_POSITIVE_DEFINITE = (
    "shape matrix lost positive definiteness; increase precision_bits"
)


@dataclass(frozen=True)
class DenseState:
    """Center, factor columns and pivots for every one of the N coordinates,
    in the layout of EllipsoidState with every coordinate touched."""

    center: tuple[tuple[int, int], ...]
    columns: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]
    precision_bits: int
    iteration: int = 0

    @property
    def dimension(self) -> int:
        return len(self.center)


def dense_state(state: EllipsoidState) -> DenseState:
    """The state expanded to all N coordinates: an untouched coordinate has
    center 0, a zero row and column, and the shared pivot."""
    n = state.dimension
    position = {r: i for i, r in enumerate(state.touched)}
    columns = []
    for j in range(n):
        if j in position:
            i = position[j]
            col = state.columns[i]
            columns.append(tuple(col[position[r] - i - 1] if r in position else 0
                                 for r in range(j + 1, n)))
        else:
            columns.append((0,) * (n - 1 - j))
    return DenseState(
        center=tuple(state.center[position[r]] if r in position else (0, 0)
                     for r in range(n)),
        columns=tuple(columns),
        pivots=tuple(state.pivots[position[r]] if r in position else state.rest_pivot
                     for r in range(n)),
        precision_bits=state.precision_bits,
        iteration=state.iteration,
    )


def shape_matrix(state: EllipsoidState) -> tuple[tuple[Fraction, ...], ...]:
    """The exact shape matrix L diag(d) L^T, both triangles, all N coordinates."""
    dense = dense_state(state)
    n = dense.dimension
    unit = Fraction(1, 1 << (dense.precision_bits + _GUARD_BITS))
    # lower[j][r] is L[r][j]
    lower = [[0] * j + [Fraction(1)] + [x * unit for x in col]
             for j, col in enumerate(dense.columns)]
    pivots = [man * Fraction(2) ** exp for man, exp in dense.pivots]
    return tuple(
        tuple(sum(lower[k][i] * d * lower[k][j] for k, d in enumerate(pivots))
              for j in range(n))
        for i in range(n)
    )


def log_volume(state: EllipsoidState) -> float:
    """Natural log of the ellipsoid's volume, from its log-determinant."""
    return _log_unit_ball_volume(state.dimension) + state.log_det() / 2


def reference_log_det(state: DenseState) -> float:
    """The sum of log d_j over all N stored pivots."""
    if min(man for man, _ in state.pivots) <= 0:
        raise PrecisionError(_NOT_POSITIVE_DEFINITE)
    return (math.fsum(math.log(man) for man, _ in state.pivots)
            + sum(exp for _, exp in state.pivots) * math.log(2.0))


def reference_round_dyadic(num: int, den: int, exp: int, bits: int) -> tuple[int, int]:
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


def _integer_direction(normal):
    """The integer normal over the gcd of its entries; the update ignores its scale."""
    common = math.gcd(*normal)
    if common == 0:
        raise ValueError("cut normal must be nonzero")
    return normal if common == 1 else [v // common for v in normal]


def reference_update(state: DenseState, normal) -> DenseState:
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
            reference_round_dyadic(man * nn * t, (nn - 1) * s, exp, bits)
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
        center.append(reference_round_dyadic(num, den, base, bits))

    return DenseState(
        center=tuple(center),
        columns=tuple(new_columns),
        pivots=new_pivots,
        precision_bits=bits,
        iteration=state.iteration + 1,
    )
