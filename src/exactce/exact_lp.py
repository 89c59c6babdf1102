"""Exact rational linear programming for the cut-collection feasibility step.

One primal simplex rule serves every exact LP here: the cut programs, the
stationary distributions and the mixture programs. It picks the entering
column by largest improvement for speed and switches unconditionally to
Bland's least-index rule once a degenerate basis has burned through the
pivot budget, so termination never depends on luck and exact arithmetic
never needs tolerances. The rule is written once, in _simplex, the one
loop that spends the pivot budget, and two storage forms hand it their
pricing, entering column and pivot: solve_standard_form keeps the dense
phase-1 tableau, which seeks a feasible vertex and nothing more, and
MinViolation the revised form, which stores det * B^-1 and prices its
weight columns from it when a pivot needs them. _gauss_jordan, on the same
pivot, inverts the square blocks of _certified and the tree theorem.

Most probes of the cut program, and of the product oracle's mixture program,
fail. A solve decides every one of them on one MinViolation program, min t
over mixtures of the collected columns shifted up by t, held open as columns
arrive in the manner of column generation (Gilmore and Gomory; Dantzig and
Wolfe): it takes the cuts' unit-free normals, and t is 0 exactly when some
distribution clears every row. A feasible probe ends the run; a purified
run that stopped otherwise prices fresh profiles on this program at its
dual until it is feasible. The final program is then solved cold once, by
try_feasible_bfs or mixture_feasible, whose vertex is the certificate or
the mixture, so neither depends on the probes' pivot path. When the
product oracle's last probe failed, min_violation_mixture reads (t, alpha)
off the optimum of a fresh program instead.

That program's columns are the product cuts' row values, whose entries run
to hundreds of bits, so min_violation_mixture guesses its optimal basis
cheaply and certifies it exactly, after Applegate, Cook, Dash and Espinoza
(QSopt_ex). MinViolation first solves the program with every entry rounded
to 24 fractional bits, a nonzero entry never to zero, so both programs
touch the same rows. _certified then solves the guessed basis on the exact
columns, over its binding rows and the sum row only, for the primal
(alpha, t) and the duals, and accepts it when it is primal feasible and
every nonbasic variable's reduced cost is strictly positive: then every
other feasible point costs more, the optimum is unique, and the exact
simplex would reach the same (t, alpha), rational for rational. Whatever
the width of the guess, the certificate is exact. When the rounding moved
the optimum to another basis, the guess is tried again at each wider width
of GUESS_LADDER, 96 and then 384 bits, as QSopt_ex raises its precision.
When the guessed basis is optimal with a zero reduced cost, the optimal
face may be wider than a point and no width certifies it, so the ladder
stops there. When no guess is certified, MinViolation solves the exact
program.

The tableaus hold Python integers, not fractions. Every program takes
integer columns with one positive scale s_j each: column j of the rational
program is the integer column over s_j, and the right-hand side is integral.
Profile columns are integral, so their s_j is 1. A product cut comes split as
unit * direction, with coprime integer entries in direction, and its column
is the direction times the unit's numerator, with s_j the unit's
denominator; a balance equation's column is its integer rates over the
rates' denominator. No column is split or scaled again. Pivots follow
Edmonds and Bareiss, as in Avis's lrs: the stored rows are D times the
integer program's rational tableau, where D > 0 is the absolute determinant
of the basis, and a pivot on entry p sets T_i <- (p*T_i - T_i[e]*T_r) // D
and D <- p. The division is exact, so no gcd is ever taken. Scaling column j
by s_j scales its reduced cost by s_j and leaves every ratio of the ratio
test in proportion, so ranking candidates by cost[j] / s_j
(cross-multiplied) and comparing ratios the same way chooses exactly the
pivots a Fraction tableau of the rational program would choose, whatever
positive s_j a caller picks. The returned vertex is therefore the same one,
rational entry for rational entry; the test suite keeps that Fraction
simplex as the reference and checks the two agree. One common scale for the
whole matrix would also do, but on the product oracle's dense mixture
columns, whose units differ from column to column, it inflates every entry;
one scale per column keeps the integers small.

A column a revised program prices is the same integer a full tableau would
store, since both are D * B^-1 times the integer column, so the revised
program takes the full tableau's pivots and reaches its vertex; the test
suite keeps the full-tableau MinViolation as a reference and checks that
too. What the revised form saves is the pivots' work on the weight columns:
a full tableau rewrites every one of them in every row at every pivot,
while pricing takes one product per nonzero entry, and a reduced cost whose
dual price is zero costs next to nothing however wide the entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from numbers import Rational
from operator import mul
from typing import Callable, Sequence

from .incentives import IncentiveColumn, SparseCE

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------- simplex core ----------


def _pivot_budget(m: int, n: int) -> int:
    """Pivots the largest-improvement rule gets before Bland's rule takes over."""
    return 12 * (m + n) + 64


@dataclass
class _Tableau:
    """Integer tableau: rows / det is the rational tableau of the integer
    program, whose column j is scale[j] times the rational program's.

    solve_standard_form's rows hold the n real columns followed by the
    right-hand side; phase 1 never reads its artificial columns, so it does
    not store them. MinViolation's rows hold only t, the surpluses and the
    right-hand side (see there). det is the absolute determinant of the
    current basis matrix and stays positive.
    """

    rows: list[list[int]]
    basis: list[int]
    det: int = 1


def _eliminate(other: list[int], pivot_row: list[int], p: int, factor: int, det: int) -> list[int]:
    """One Bareiss row update of a row whose entering-column entry is factor;
    the division is exact for a consistent tableau."""
    if factor:
        return [(p * v - factor * w) // det for v, w in zip(other, pivot_row)]
    if p == det:
        return other
    return [p * v // det for v in other]


def _pivot_on(tab: _Tableau, row: int, var: int, column: Sequence[int],
              cost_entry: int = 0, cost: list[int] | None = None) -> None:
    """Pivot row onto variable var, updating the cost row in place if one is given.

    column holds var's entry in every stored row and cost_entry its entry in
    the cost row, so var's own column need not be stored.
    """
    rows = tab.rows
    pivot_row = rows[row]
    p = column[row]
    if p < 0:
        # the ratio test pivots on positive entries only, so this is
        # MinViolation's start pivot of t or a step of _gauss_jordan;
        # flipping the pivot row keeps det positive and the scaled tableau
        # unchanged
        pivot_row = rows[row] = [-v for v in pivot_row]
        p = -p
    det = tab.det
    for i, other in enumerate(rows):
        if i != row:
            rows[i] = _eliminate(other, pivot_row, p, column[i], det)
    if cost is not None:
        cost[:] = _eliminate(cost, pivot_row, p, cost_entry, det)
    tab.basis[row] = var
    tab.det = p


def _entering(cost: Sequence[int], scale: Sequence[int], bland: bool) -> int:
    """The entering column, or -1 when no reduced cost is negative.

    cost[j] / scale[j] is the reduced cost of column j up to one positive
    factor shared by every column. The fast rule takes the most negative
    reduced cost, ties to the lowest index, comparing by cross-multiplication
    so no rational is ever formed; Bland's rule takes the first negative one.
    """
    if bland:
        for j in range(len(scale)):
            if cost[j] < 0:
                return j
        return -1
    enter, most, most_scale = -1, 0, 1
    for j, s in enumerate(scale):
        value = cost[j]
        if value < 0 and value * most_scale < most * s:
            enter, most, most_scale = j, value, s
    return enter


def _leaving(column: Sequence[int], rows: Sequence[Sequence[int]], basis: Sequence[int]) -> int:
    """The leaving row for an entering column with these entries.

    Smallest ratio rows[i][-1] / column[i] over the positive entries,
    compared by cross-multiplication, ties to the smallest basis index (what
    Bland's rule requires; harmless for the fast rule). Phase 1 and
    MinViolation are bounded below by 0, so a column with no positive entry,
    which would prove the program unbounded, raises RuntimeError.
    """
    leave = -1
    for i, coeff in enumerate(column):
        if coeff > 0:
            if leave < 0:
                leave = i
                continue
            lhs = rows[i][-1] * column[leave]
            rhs = rows[leave][-1] * coeff
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
    if leave < 0:
        raise RuntimeError("entering column bounds no row: the program is unbounded")
    return leave


def _simplex(tab: _Tableau, scale: Sequence[int], prices: Callable[[], Sequence[int]],
             column: Callable[[int], list[int]],
             exchange: Callable[[int, int, list[int], int], None]) -> None:
    """Pivot until no reduced cost is negative.

    prices() gives the reduced cost of every candidate column, up to the
    factors _entering allows; column(j) gives column j's entry in every
    stored row; exchange(row, j, entries, cost) pivots row onto column j and
    updates the cost row. The entering rule is the fast one, which can cycle
    on degenerate bases, until the pivot budget is spent, then Bland's
    least-index rule, which terminates unconditionally. Both rules are
    deterministic, so the basis it stops at is a pure function of the input.
    """
    budget = _pivot_budget(len(tab.rows), len(scale))
    pivots = 0
    while True:
        costs = prices()
        enter = _entering(costs, scale, pivots >= budget)
        if enter < 0:
            return
        entries = column(enter)
        exchange(_leaving(entries, tab.rows, tab.basis), enter, entries, costs[enter])
        pivots += 1


def solve_standard_form(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], scale: Sequence[int]
) -> list[Fraction] | None:
    """A vertex x of {A x = rhs, x >= 0}, A[i][j] = rows[i][j] / scale[j], or None.

    rows and rhs hold integers and every scale[j] is positive. This is phase
    1 of the two-phase simplex alone: it minimizes the artificials' total
    from the all-artificial basis and returns None when that stays positive.
    Otherwise the basis it stops at is feasible, and x its vertex: the
    positive entries have linearly independent columns. An artificial left
    basic at level 0 stays there, since no phase 2 needs it out.
    """
    m, n = len(rows), len(scale)
    tableau = []
    for row, b in zip(rows, rhs):
        row = [*row, b]
        tableau.append([-v for v in row] if b < 0 else row)
    tab = _Tableau(rows=tableau, basis=list(range(n, n + m)))

    # reduced costs start at -(column sums) for the real columns, since every
    # artificial costs 1
    cost = [-sum(row[j] for row in tableau) for j in range(n)]
    _simplex(tab, scale, lambda: cost, lambda j: [row[j] for row in tab.rows],
             partial(_pivot_on, tab, cost=cost))
    if any(row[-1] for row, var in zip(tab.rows, tab.basis) if var >= n):
        return None
    solution = [ZERO] * n
    for row, var in zip(tab.rows, tab.basis):
        if var < n:
            solution[var] = Fraction(row[-1] * scale[var], tab.det)
    return solution


class MinViolation:
    """min t s.t. sum_k alpha_k unit_k direction_k + t >= 0, alpha a distribution.

    The constraint holds on every row some column touches; t >= 0. The
    columns, in the order the simplex ranks them, are the weights in arrival
    order, t and one surplus per touched row in row order. Row r reads
    -sum_k alpha_k unit_k direction_k[r] - t + s_r = 0. Column k enters as
    direction_k * unit_k.numerator with column scale unit_k.denominator, its
    entry in the sum row sum_k alpha_k + a = 1.

    This is the revised simplex (Dantzig and Orchard-Hays) with the Bareiss
    update. The surpluses and the artificial a start basic, so their columns
    in the scaled tableau are det * B^-1, and any column's tableau entries
    and reduced cost are that block, and the cost entries over it, times the
    column. The tableau therefore stores only t's column, the surpluses' and
    the right-hand side, which is det * B^-1 e_sum and so a's column: every
    stored row holds R + 2 entries over R touched rows, t first, the
    surpluses in the order their rows were touched, the right-hand side
    last. The cost row holds the same columns, its last entry a's reduced
    cost. Each weight column is kept as its sparse integer entries over the
    stored columns: the surpluses of the rows its direction touches, then
    its denominator on the right-hand side. Pricing multiplies them into the
    cost row, and only the entering column is built, the same way from each
    stored row. These integers are exactly the stored entries a full
    tableau would hold, since they are the same minors of the same basis, so
    the same candidates win by the same comparisons: the pivots and the
    vertex are the full tableau's. Basis entries number the columns in rank
    order (weights, t, surpluses in row order), -1 marking a basic.

    A row enters when a column first touches it, with its surplus basic:
    every earlier column is zero there, so only t's row is folded in, and
    det and the cost row are unchanged. So after an optimal solve every
    weight column present then keeps its nonnegative reduced cost until the
    next pivot, and a resumed solve prices only the new columns on its first
    pass.

    The program is feasible at any single column with t at its worst
    shortfall, so it needs no phase 1. The first solve pivots the sum row
    onto the column with the least worst shortfall (ties to the first), then
    t into that column's most negative row, if any (ties to the lowest row);
    a, not a stored column, never enters again. Each solve then resumes the
    budgeted largest-improvement simplex from the last basis. A positive unit
    does not change whether t reaches 0, so a probe may add every unit as 1.
    """

    def __init__(self) -> None:
        # row 0 is the sum row, with a basic; the stored columns are t and the
        # right-hand side
        self._tab = _Tableau(rows=[[0, 1]], basis=[-1])
        self._cost = [1, 0]
        self._scale = [1]  # of every column, in rank order
        self._columns: list[tuple[list[int], list[int]]] = []  # (stored columns, entries)
        self._rows: list[int] = []  # the touched rows, ascending
        self._slots: list[int] = []  # the stored column of each one's surplus
        self._start: tuple[int, int, int, int] | None = None
        self._priced = 0  # weight columns known not to enter at this basis
        self.added = 0  # also the rank of t

    def _touch(self, r: int) -> int:
        """The stored column of r's surplus, adding row r with its surplus basic if new."""
        pos = bisect_left(self._rows, r)
        if pos < len(self._rows) and self._rows[pos] == r:
            return self._slots[pos]
        tab, t = self._tab, self.added
        slot = len(self._cost) - 1  # just before the right-hand side
        for row in tab.rows:
            row.insert(slot, 0)
        self._cost.insert(slot, 0)
        row = [0] * len(self._cost)
        row[slot], row[0] = tab.det, -tab.det
        if t in tab.basis:
            row = [v + w for v, w in zip(row, tab.rows[tab.basis.index(t)])]
        rank = t + 1 + pos
        tab.basis = [b + (b >= rank) for b in tab.basis]
        tab.rows.append(row)
        tab.basis.append(rank)
        self._rows.insert(pos, r)
        self._slots.insert(pos, slot)
        self._scale.append(1)
        return slot

    def add(self, direction: Sequence[int], unit: Rational = 1) -> None:
        """Append the column unit * direction: integer entries, a positive unit."""
        k, num, den = self.added, unit.numerator, unit.denominator
        slots, entries = [], []
        for r, v in enumerate(direction):
            if v:
                slots.append(self._touch(r))
                entries.append(-v * num)
        slots.append(-1)
        entries.append(den)
        self._columns.append((slots, entries))
        self._scale.insert(k, den)
        tab = self._tab
        tab.basis = [b + (b >= k) for b in tab.basis]
        if tab.basis[0] < 0:
            # a is basic, so nothing has pivoted: keep the column with the
            # least worst shortfall num * low / den, compared across columns
            low = num * min([0, *direction])
            if self._start is None or low * self._start[1] > self._start[0] * den:
                worst = min(range(len(direction)), key=direction.__getitem__)
                self._start = (low, den, k, worst)
        self.added += 1

    def _column(self, var: int) -> list[int]:
        """The tableau column of var, given its rank: one entry per stored row."""
        rows, t = self._tab.rows, self.added
        if var < t:
            slots, entries = self._columns[var]
            return [sum(map(mul, entries, map(row.__getitem__, slots))) for row in rows]
        slot = 0 if var == t else self._slots[var - t - 1]
        return [row[slot] for row in rows]

    def _exchange(self, row: int, var: int, column: list[int], cost_entry: int) -> None:
        """Pivot row onto var, whose tableau column and cost entry these are."""
        _pivot_on(self._tab, row, var, column, cost_entry, self._cost)
        self._priced = 0

    def _prices(self) -> list[int]:
        """The reduced costs in rank order, each times det and its column's scale."""
        price = self._cost.__getitem__
        # the weights priced at the last optimum cannot enter: 0 stands in
        costs = [0] * self._priced
        costs += [sum(map(mul, entries, map(price, slots)))
                  for slots, entries in islice(self._columns, self._priced, None)]
        costs.append(price(0))
        costs += map(price, self._slots)
        return costs

    def _solve(self) -> None:
        tab, t = self._tab, self.added
        if tab.basis[0] < 0 and self._start is not None:
            low, _, best, worst = self._start
            self._exchange(0, best, self._column(best), 0)  # every weight costs 0 here
            if low < 0:
                row = tab.basis.index(t + 1 + self._rows.index(worst))
                self._exchange(row, t, self._column(t), self._cost[0])
        # t >= 0 bounds the program below, so some row always leaves
        _simplex(tab, self._scale, self._prices, self._column, self._exchange)
        self._priced = t

    def feasible(self) -> bool:
        """Resume the solve; True when the columns so far admit a distribution."""
        self._solve()
        tab, t = self._tab, self.added
        return self.added > 0 and not (t in tab.basis and tab.rows[tab.basis.index(t)][-1])

    def mixture(self) -> tuple[Fraction, list[Fraction]]:
        """Resume the solve and return (t, alpha) at its optimal vertex."""
        if not self.added:
            raise ValueError("need at least one column")
        self._solve()
        tab = self._tab
        levels = [ZERO] * (self.added + 1)  # alpha, then t
        for row, var in zip(tab.rows, tab.basis):
            if 0 <= var <= self.added:
                levels[var] = Fraction(row[-1] * self._scale[var], tab.det)
        return levels[-1], levels[:-1]

    def dual(self, n_rows: int) -> tuple[tuple[int, ...], int]:
        """Resume the solve and return its optimal dual y as (numerators, det).

        y_r is row r's surplus reduced cost, 0 on an untouched row. So y >= 0,
        sum(y) <= 1 (= 1 if t > 0) and unit_k direction_k . y <= -t (= on basic k).
        """
        self._solve()
        y = [0] * n_rows
        for r, slot in zip(self._rows, self._slots):
            y[r] = self._cost[slot]
        return tuple(y), self._tab.det


# ---------- the cut-collection program ----------


@dataclass(frozen=True)
class CutLP:
    """Feasibility program over collected profile columns.

    Seeks a distribution x over the columns' profiles, which are distinct,
    with every incentive row nonnegative: columns . x >= 0 rowwise, x >= 0,
    sum x = 1.
    """

    columns: tuple[IncentiveColumn, ...]


def try_feasible_bfs(lp: CutLP) -> SparseCE | None:
    """Basic feasible solution of the cut program as a sparse certificate.

    None when the program is infeasible. Being a vertex, the certificate's
    support is at most 1 plus the number of off-diagonal incentive rows,
    regardless of how many columns were collected.
    """
    weights = mixture_feasible([col.dense() for col in lp.columns], [1] * len(lp.columns))
    if weights is None:
        return None
    atoms = tuple(
        (col.profile, w) for col, w in zip(lp.columns, weights) if w > 0
    )
    return SparseCE(atoms=atoms)


# ---------- small exact systems used by the oracles ----------


def _gauss_jordan(rows: list[list[int]], size: int) -> _Tableau | None:
    """Fraction-free Gauss-Jordan elimination of the leading size x size block M.

    rows holds size integer rows, updated in place. On return row i of the
    tableau is row basis[i] of det * M^-1 times the input rows, and det is
    |det M| > 0. None when M is singular.
    """
    tab = _Tableau(rows=rows, basis=[-1] * size)
    for j in range(size):
        row = next((i for i in range(size) if tab.basis[i] < 0 and rows[i][j]), -1)
        if row < 0:
            return None
        _pivot_on(tab, row, j, [r[j] for r in rows])
    return tab


def stationary_distribution(
    rates: Sequence[Sequence[int]], denominator: int
) -> tuple[Fraction, ...]:
    """Vertex solution of the balance equations of the rates rates[i][j] / denominator.

    rates[i][j] is the integer flow rate from state i to state j, over the
    positive denominator (diagonal ignored). Returns solve_standard_form's
    vertex of {x >= 0, sum x = 1, inflow = outflow at every state}, which is
    never empty. Its entering rule, largest improvement until the pivot
    budget is spent and Bland's rule after that, is deterministic either
    way, so the selected stationary distribution is a pure function of the
    input. State i's column is its rates with its negated outflow on the
    diagonal and denominator in the sum row, all over the column scale
    denominator.

    The oracles call it only as the fallback for chains with several closed
    classes, where the stationary distribution is not unique; a chain with
    one closed class has one solution, which oracles.stationary_block reads
    off the Markov chain tree theorem.
    """
    m = len(rates)
    if m == 1:
        return (ONE,)
    rows = [[rates[i][j] for i in range(m)] for j in range(m)]
    for j in range(m):
        rows[j][j] = -sum(rates[j][k] for k in range(m) if k != j)
    rows.append([denominator] * m)
    solution = solve_standard_form(rows, [0] * m + [1], [denominator] * m)
    if solution is None:
        raise RuntimeError("balance system unexpectedly infeasible")
    return tuple(solution)


def mixture_feasible(
    directions: Sequence[Sequence[int]], units: Sequence[Rational]
) -> list[Fraction] | None:
    """Weights alpha >= 0 summing to 1 with sum_k alpha_k units[k] directions[k] >= 0, if any.

    The columns take the form min_violation_mixture takes. Rows that every
    direction leaves zero are vacuous and skipped. The variables are the
    weights, each column scaled by its unit's denominator, then one surplus
    per kept row; the sum row comes last. The weights are those of
    solve_standard_form's vertex, None when it finds the program infeasible.
    """
    if not directions:
        return None
    kept = [r for r in range(len(directions[0])) if any(d[r] for d in directions)]
    n_cols = len(directions)
    rows = []
    for k, r in enumerate(kept):
        row = [d[r] * u.numerator for d, u in zip(directions, units)] + [0] * len(kept)
        row[n_cols + k] = -1
        rows.append(row)
    rows.append([u.denominator for u in units] + [0] * len(kept))
    scale = [u.denominator for u in units] + [1] * len(kept)
    solution = solve_standard_form(rows, [0] * len(kept) + [1], scale)
    return None if solution is None else solution[:n_cols]


# fractional bits of each rounded program min_violation_mixture solves, in
# turn, before the exact one
GUESS_LADDER = (24, 96, 384)


def _rounded(direction: Sequence[int], unit: Rational, bits: int) -> list[int]:
    """unit * direction times 2**bits, rounded to integers, half up.

    A nonzero entry that rounds to zero becomes its sign instead, so the
    rounded column touches exactly the rows the exact one touches.
    """
    num, den = unit.numerator << (bits + 1), unit.denominator
    twice = 2 * den
    return [(num * v + den) // twice or (v > 0) - (v < 0) for v in direction]


def _certified(guess: MinViolation, directions: Sequence[Sequence[int]],
               units: Sequence[Rational]) -> tuple[Fraction, list[Fraction]] | str:
    """(t, alpha) at guess's optimal basis, taken over the exact columns, if
    that basis is provably the exact program's one optimum; else why not.

    The refusal is "moved" when the basis is singular, primal infeasible or
    has a negative reduced cost on the exact columns, so the rounding moved
    the optimum and a finer one may find its basis. It is "face" when the
    basis is optimal but some reduced cost is zero: the optimal face may be
    wider than a point, and no rounding certifies it.

    The basis is read off the solved guess: its basic weights, whether t is
    basic, and the binding rows, those whose surplus is nonbasic. Over the
    binding rows and the sum row, t and the basic weights form a square
    matrix M, each weight column its direction times the unit's numerator
    over the binding rows with the unit's denominator in the sum row, so
    alpha_k is the denominator times its solved entry. One fraction-free
    Gauss-Jordan on [M | I] leaves det * M^-1 with det > 0: its last column
    is the primal (the right-hand side is the sum row's 1), and t's row the
    duals (y over the binding rows, z on the sum row), since t alone costs 1.
    The basis is primal feasible when alpha, t and every other touched row's
    slack are nonnegative. The reduced costs of the nonbasic variables are
    -(y . column + z * den) for a weight, y_r for a binding row's surplus and
    1 - sum y for t. When every one of them is strictly positive, any other
    feasible point has some nonbasic variable positive and so costs more:
    this vertex is the only optimum, and the exact simplex returns it too.
    """
    n, basic = guess.added, set(guess._tab.basis)
    weights = [k for k in range(n) if k in basic]
    t_basic = n in basic
    binding, slack = [], []
    for pos, r in enumerate(guess._rows):
        (slack if n + 1 + pos in basic else binding).append(r)
    # the artificial left the basis at the start pivot, so M is square
    size = len(binding) + 1
    nums = [u.numerator for u in units]
    dens = [u.denominator for u in units]
    # t's column comes first: it is 1 on every binding row, so each minor
    # the elimination builds holds one product of wide entries fewer
    matrix = [[1] * t_basic + [nums[k] * directions[k][r] for k in weights]
              for r in binding]
    matrix.append([0] * t_basic + [dens[k] for k in weights])
    tab = _gauss_jordan([[*row, *(int(i == j) for j in range(size))]
                         for i, row in enumerate(matrix)], size)
    if tab is None:
        return "moved"  # the basis is singular on the exact columns
    det = tab.det
    inverse = [[]] * size  # det * M^-1, row by row
    for var, row in zip(tab.basis, tab.rows):
        inverse[var] = row[size:]

    # primal feasibility, everything times det
    levels = [row[-1] for row in inverse]  # t if basic, then the basic weights
    if min(levels) < 0:
        return "moved"
    level_t = levels[0] if t_basic else 0
    levels = levels[t_basic:]
    if any(sum(x * nums[k] * directions[k][r] for x, k in zip(levels, weights)) + level_t < 0
           for r in slack):
        return "moved"

    # strictly positive reduced costs, everything times det: the binding
    # rows' surpluses, t if nonbasic, then the nonbasic weights
    *y, z = inverse[0] if t_basic else [0] * size
    reduced = y + [det - sum(y)] * (not t_basic)
    reduced += [-(sum(w * directions[k][r] for w, r in zip(y, binding)) * nums[k]
                  + z * dens[k]) for k in range(n) if k not in basic]
    lowest = min(reduced, default=1)
    if lowest <= 0:
        return "moved" if lowest < 0 else "face"

    alpha = [ZERO] * n
    for x, k in zip(levels, weights):
        alpha[k] = Fraction(dens[k] * x, det)
    return Fraction(level_t, det), alpha


def min_violation_mixture(
    directions: Sequence[Sequence[int]], units: Sequence[Rational]
) -> tuple[Fraction, list[Fraction]]:
    """(t, alpha) of a fresh MinViolation over the columns units[k] * directions[k].

    The columns are in the form ProductCut holds: integer directions that are
    coprime or all zero, and positive units. t is zero exactly when the
    nonnegative mixture program is feasible. alpha is an optimal vertex, a
    pure function of the columns; it is the only optimal mixture on the
    product oracle's pinned games, but the optimal face can be wider in
    general.

    It solves the program rounded by _rounded to each width of GUESS_LADDER
    in turn. When _certified proves a rounded optimum's basis, taken over
    the exact columns, the exact program's only optimum, which the exact
    MinViolation would return too, its vertex is the result. A guess the
    rounding moved is retried at the next width; a guess with a zero
    reduced cost ends the ladder. Then the exact MinViolation runs, so the
    result stays exact whatever the rounding did and is the cold program's
    vertex where the optimal face is wider than a point.
    """
    for bits in GUESS_LADDER:
        guess = MinViolation()
        for direction, unit in zip(directions, units):
            guess.add(_rounded(direction, unit, bits))
        guess.mixture()
        certified = _certified(guess, directions, units)
        if certified == "face":
            break
        if certified != "moved":
            return certified
    program = MinViolation()
    for direction, unit in zip(directions, units):
        program.add(direction, unit)
    return program.mixture()
