"""Independent reference implementations used to pin expected values.

Everything here is computed from first principles with plain enumeration
and rational arithmetic, deliberately not reusing the package's internal
shortcuts, so package results can be checked against a second opinion.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from exactce import Game, PrecisionError, SolverError, row_count
from exactce.ellipsoid import (
    EllipsoidParams,
    EllipsoidState,
    _log_unit_ball_volume,
    iteration_bound,
)
from exactce.exact_lp import _pivot_on, _simplex, _Tableau
from exactce.games import NormalFormGame, PlayerAdjustment, PolymatrixGame, ProductDistribution
from exactce.incentives import RowValues, SparseCE
from exactce.oracles import (
    _STATIONARY_FAILED,
    Cut,
    DualPoint,
    _checked_point,
    _rate_blocks,
    _stationary_blocks,
    _stationary_x,
    integer_point,
    normal_violation,
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


def row_position(game: Game, row) -> int:
    """Flat position of row (p, i, j): every row of the players before p,
    then row-major over the action pair."""
    p, i, j = row
    m = game.actions[p]
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"row {row} out of range")
    return sum(k * k for k in game.actions[:p]) + i * m + j


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


def permutation_determinant(matrix) -> int:
    """Determinant by the Leibniz expansion over every permutation."""
    n, total = len(matrix), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


# ---------- reference simplex ----------
#
# The Fraction-tableau two-phase simplex the package used before its integer
# core. The package's phase 1 must take the same pivots, so a feasibility
# solve returns the same x, or None where this returns "infeasible", on every
# input. Phase 2, with an objective, serves reference_min_violation_mixture.


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
    the smallest basis index. Returns (status, x): ("infeasible", None),
    ("unbounded", None) or ("optimal", x); without an objective, x is the
    vertex solve_standard_form returns.
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


def split_program(rows, rhs):
    """The rational program rows . x = rhs, x >= 0, as the integer arguments
    (rows, rhs, scale) of solve_standard_form.

    Every row is first multiplied by the lcm of the rhs denominators, which
    makes rhs integral; one positive factor on every row changes neither the
    rational tableau nor any pivot. Column j is then its entries times
    scale[j], the lcm of its denominators.
    """
    common = math.lcm(*(Fraction(b).denominator for b in rhs))
    scaled = [[Fraction(v) * common for v in row] for row in rows]
    n = len(rows[0]) if rows else 0
    scale = [math.lcm(*(row[j].denominator for row in scaled)) for j in range(n)]
    int_rows = [[int(v * s) for v, s in zip(row, scale)] for row in scaled]
    int_rhs = [int(Fraction(b) * common) for b in rhs]
    return int_rows, int_rhs, scale


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


class TableauMinViolation:
    """The min-violation program on a full integer tableau, every weight
    column stored and carried through every pivot.

    It states exactly the program exactce.exact_lp.MinViolation states and
    resumes the same way, but pivots with the dense core that
    solve_standard_form uses, which TestAgainstReference pins to the
    Fraction simplex above. Stored columns are the weights in arrival order,
    t and one surplus per touched row in row order, then the right-hand
    side, which is the artificial a's column; basis entry -1 marks a basic.
    """

    def __init__(self) -> None:
        # tableau row 0 is the sum row, with a basic; the one column is t
        self._tab = _Tableau(rows=[[0, 1]], basis=[-1])
        self._cost = [1, 0]
        self._scale = [1]
        self._rows: list[int] = []  # the touched rows, ascending
        self._start = None
        self.added = 0  # also the column of t

    def _insert_column(self, col, entries, cost, scale) -> None:
        tab = self._tab
        for row, entry in zip(tab.rows, entries):
            row.insert(col, entry)
        tab.basis = [b + (b >= col) for b in tab.basis]
        self._cost.insert(col, cost)
        self._scale.insert(col, scale)

    def _touch(self, r: int) -> None:
        """Add row r with its surplus basic, unless a column touched it before."""
        pos = bisect.bisect_left(self._rows, r)
        if pos < len(self._rows) and self._rows[pos] == r:
            return
        self._rows.insert(pos, r)
        tab, t = self._tab, self.added
        col = t + 1 + pos
        self._insert_column(col, [0] * len(tab.rows), 0, 1)
        row = [0] * len(self._cost)
        row[col], row[t] = tab.det, -tab.det
        if t in tab.basis:
            row = [v + w for v, w in zip(row, tab.rows[tab.basis.index(t)])]
        tab.rows.append(row)
        tab.basis.append(col)

    def add(self, direction, unit=1) -> None:
        for r, v in enumerate(direction):
            if v:
                self._touch(r)
        k, num = self.added, unit.numerator
        block = [(k + 1 + i, -direction[r] * num)  # the surpluses, then a
                 for i, r in enumerate(self._rows) if direction[r]]
        block.append((-1, unit.denominator))
        if self._tab.basis[0] >= 0:
            entries = [sum(row[j] * w for j, w in block) for row in self._tab.rows]
            cost = sum(self._cost[j] * w for j, w in block)
            self._insert_column(k, entries, cost, unit.denominator)
        else:
            # a is basic, so nothing has pivoted: the block is the identity
            weight = dict(block)
            self._insert_column(k, [weight.get(b, 0) for b in self._tab.basis], 0,
                                unit.denominator)
            low = Fraction(unit) * min([0, *direction])
            if self._start is None or low > self._start[0]:
                worst = min(range(len(direction)), key=direction.__getitem__)
                self._start = (low, k, worst)
        self.added += 1

    def _column(self, col: int) -> list[int]:
        return [row[col] for row in self._tab.rows]

    def _exchange(self, row: int, col: int, entries: list[int], cost_entry: int) -> None:
        _pivot_on(self._tab, row, col, entries, cost_entry, self._cost)

    def _solve(self) -> None:
        tab, t = self._tab, self.added
        if tab.basis[0] < 0 and self._start is not None:
            low, best, worst = self._start
            self._exchange(0, best, self._column(best), self._cost[best])
            if low < 0:
                row = tab.basis.index(t + 1 + self._rows.index(worst))
                self._exchange(row, t, self._column(t), self._cost[t])
        _simplex(tab, self._scale, lambda: self._cost, self._column, self._exchange)

    def feasible(self) -> bool:
        self._solve()
        tab, t = self._tab, self.added
        return self.added > 0 and not (t in tab.basis and tab.rows[tab.basis.index(t)][-1])

    def mixture(self):
        self._solve()
        tab = self._tab
        levels = [ZERO] * (self.added + 1)  # alpha, then t
        for row, var in zip(tab.rows, tab.basis):
            if 0 <= var <= self.added:
                levels[var] = Fraction(row[-1] * self._scale[var], tab.det)
        return levels[-1], levels[:-1]


def random_nonneg_dual(rng: random.Random, length: int, density: float = 0.7):
    values = []
    for _ in range(length):
        if rng.random() < density:
            values.append(Fraction(rng.randint(0, 12), rng.randint(1, 9)))
        else:
            values.append(ZERO)
    return tuple(values)


def reference_integerize(blocks):
    """(adjustment, stored blocks) of one player's utilities on Fractions:
    every utility times the lcm of their denominators, each block shifted by
    its negated minimum when that is positive."""
    values = [[[Fraction(v) for v in row] for row in block] for block in blocks]
    scale = Fraction(math.lcm(*(v.denominator for block in values for row in block for v in row)))
    total_shift, stored = ZERO, []
    for block in values:
        scaled = [[v * scale for v in row] for row in block]
        low = min(min(row) for row in scaled)
        shift = -low if low < 0 else ZERO
        total_shift += shift
        stored.append(tuple(tuple(int(v + shift) for v in row) for row in scaled))
    return PlayerAdjustment(scale, total_shift), stored


def reference_load(doc: dict):
    """(adjustments, tables or blocks) that the Fraction integerizer gives a
    valid nfg or polymatrix document."""
    actions = doc["actions"]
    if doc["type"] == "nfg":
        players = [reference_integerize([[table]]) for table in doc["payoffs"]]
        return (tuple(adj for adj, _ in players),
                tuple(block[0] for _, (block,) in players))
    n = len(actions)
    matrices = {(e["p"], e["q"]): e["matrix"] for e in doc["edges"]}
    adjustments, blocks = [], []
    for p in range(n):
        others = [q for q in range(n) if q != p]
        adj, stored = reference_integerize(
            [matrices.get((p, q), [[0] * actions[q]] * actions[p]) for q in others])
        adjustments.append(adj)
        row = [None] * n
        for q, block in zip(others, stored):
            row[q] = block
        blocks.append(tuple(row))
    return tuple(adjustments), tuple(blocks)


def uniform_product(actions) -> ProductDistribution:
    """The product distribution under which every player mixes uniformly."""
    return ProductDistribution(tuple(tuple(Fraction(1, m) for _ in range(m)) for m in actions))


def ce_probability(ce: SparseCE, profile) -> Fraction:
    """The weight ce puts on profile, 0 off its support."""
    return dict(ce.atoms).get(tuple(profile), ZERO)


def point_mass(actions, profile) -> ProductDistribution:
    """The product distribution that plays profile with certainty."""
    return ProductDistribution(tuple(
        tuple(Fraction(int(k == a)) for k in range(m)) for m, a in zip(actions, profile)))


def cut_violation(cut: Cut, y: DualPoint) -> Fraction:
    """By how much y breaks the cut's constraint (positive means violated)."""
    return Fraction(*normal_violation(cut.normal(), cut.unit, cut.rhs, integer_point(y)))


def conditional_scale(game: Game, d: int) -> int:
    """Factor by which conditional_payoff_ints on D * x, every player over one
    D, exceeds the conditional expected payoffs under x: D per other player
    for normal form, whose kernel is a product over them, and D for
    polymatrix, whose kernel is a sum of one block per other player."""
    return d ** (game.players - 1) if game.family == "nfg" else d


def lcm_row_values(game: Game, pairs) -> RowValues:
    """incentive_row_values with every player brought over D, the lcm of the
    totals, and every row over D * conditional_scale(D): the row values as
    they were computed before each game type chose its own weights."""
    d = math.lcm(*(total for total, _ in pairs))
    weights = [[w * (d // total) for w in mix] for total, mix in pairs]
    out = []
    for p, m in enumerate(game.actions):
        conditional = game.conditional_payoff_ints(p, weights)
        for i in range(m):
            out += [weights[p][i] * (conditional[i] - c) for c in conditional]
    scale = d * conditional_scale(game, d)
    common = math.gcd(*out) or scale
    return RowValues(tuple(v // common for v in out), Fraction(common, scale))


def integer_weights(x: ProductDistribution) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, X): x.pairs() brought over D, the lcm of their totals, X = D x.

    One D for all players, so a weighted sum over any player's actions
    carries the same factor D."""
    pairs = x.pairs()
    d = math.lcm(*(total for total, _ in pairs))
    return d, tuple(tuple(w * (d // total) for w in mix) for total, mix in pairs)


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


class DualValue:
    """The y-weighted incentive value of product distributions, as integers.

    For a product x the value is V(x) = sum_r y_r E_x[row r]. Summing row
    (p, i, j) = x_p(i) (C_p(i) - C_p(j)) over j, with C_p(i) player p's
    conditional expected payoff for action i, gives

        V(x) = sum_p sum_i C_p(i) w_p(i),
        w_p(i) = x_p(i) sum_{j != i} y_{p,i,j} - sum_{k != i} x_p(k) y_{p,k,i},

    action i's y-weighted outflow minus its inflow. y is read as Y / L
    (integer_point), and x as integer weights X over one denominator D,
    integer_weights(x). D is fixed when the object is built, so fixing a
    player to action a later means the weights D e_a (point_mass). On the
    weights X the game's integer kernel gives conditional_scale(D) C_p and
    the flows carry D L, so every term of V carries the same positive factor
    `scale`: scores(X) returns V(x) * scale exactly, and its sign and order
    are those of V. It evaluates every kernel from scratch, as the reference
    that purify's branch scores are tested against.
    """

    def __init__(self, game: Game, y: DualPoint, x: ProductDistribution):
        self.game = game
        self.d, self.start = integer_weights(x)
        point = integer_point(y)
        # per player: L y_{p,i,j}
        self.rates = _rate_blocks(game, point)
        self.outflows = [[sum(row) for row in rates] for rates in self.rates]
        self.scale = self.d * point.denominator * conditional_scale(game, self.d)

    def point_mass(self, player: int, action: int) -> tuple[int, ...]:
        return tuple(self.d if a == action else 0 for a in range(self.game.actions[player]))

    def flows(self, player: int, mine) -> list[int]:
        """w_p at the player's weights: each action's outflow minus its inflow."""
        rates = self.rates[player]
        return [
            mine[i] * out - sum(w * row[i] for w, row in zip(mine, rates))
            for i, out in enumerate(self.outflows[player])
        ]

    def scores(self, weights) -> tuple[int, int]:
        """(value, welfare) at the weights X = D x, evaluated from scratch.

        value is scale * V(x). welfare is sum_q <C_q, X_q>, the players'
        total expected payoff under x times D * conditional_scale(D).
        """
        value = welfare = 0
        for q, mine in enumerate(weights):
            kernel = self.game.conditional_payoff_ints(q, weights)
            value += sum(c * w for c, w in zip(kernel, self.flows(q, mine)))
            welfare += sum(c * w for c, w in zip(kernel, mine))
        return value, welfare


def stationary_product(game: Game, y: DualPoint) -> ProductDistribution:
    """Product distribution whose row values are orthogonal to y, exactly.

    Each player's block of y is read as transition rates between that
    player's actions, and the player's mixed strategy is a stationary
    distribution of those rates (uniform when the block is all zero). Balance
    makes the y-weighted sum of that player's incentive values telescope to
    zero; the result is verified exactly before returning. The solver reaches
    the same step through purified_separation.
    """
    point = _checked_point(game, y)
    if any(v < 0 for v in point.numerators):
        raise ValueError("dual vector must be nonnegative")
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


def reference_certified(n_rows: int, u_max: int) -> tuple[float, float, int]:
    """(rho, floor, cap) of the certified run at its own radius 2**rho: rho =
    ceil(5 N^3 log2 u), the floor the unit-ball volume times u**(-7 N^5) in
    log form, and the iteration bound, with u = max(2, u_max)."""
    u = max(2, u_max)
    rho = float(math.ceil(5 * n_rows**3 * math.log2(u)))
    floor = _log_unit_ball_volume(n_rows) - 7 * n_rows**5 * math.log(u)
    return rho, floor, iteration_bound(n_rows, u)


def reference_theoretical_params(game: Game, precision_bits: int) -> EllipsoidParams:
    """The theoretical mode's parameters built the long way: the certified
    floor at radius 2**rho, moved down by N (rho - 10) ln 2 to the practical
    radius 2**10, and the certified cap."""
    n = row_count(game)
    rho, floor, cap = reference_certified(n, game.payoff_ceiling())
    shift = n * (rho - 10.0) * math.log(2)
    return EllipsoidParams(10.0, floor - shift, cap, precision_bits)


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
    )
