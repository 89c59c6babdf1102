"""Exact rational linear programming for the cut-collection feasibility step.

One dense primal simplex serves every exact LP here: the cut
programs, the stationary distributions and the mixture programs. It picks
the entering column by largest improvement for speed and switches
unconditionally to Bland's least-index rule once a degenerate basis has
burned through the pivot budget, so termination never depends on luck and
exact arithmetic never needs tolerances.

Most probes of the cut program, and of the product oracle's mixture program,
fail. A solve decides every one of them with one FeasibilityVerdict alone: a
phase-1 tableau on the same pivots that takes each new column and resumes
from its last basis, in the manner of column generation (Gilmore and Gomory;
Dantzig and Wolfe). A feasible verdict ends the run, and the final program is
then solved cold once, by try_feasible_bfs or mixture_feasible, whose vertex
is the certificate or the mixture, so neither depends on the verdict's pivot
path. min_violation_mixture, which the product oracle runs instead when its
last probe failed, has no phase 1: its program is feasible at any single
column with t at that column's worst shortfall, so it builds that basis for
the best column and only minimizes t from there.

The tableau holds Python integers, not fractions. Each column j of the
constraint matrix, and the right-hand side, is multiplied by the lcm s_j of
that column's own denominators, which makes it integral; profile columns are
integral already, so s_j is 1 for them. A product cut comes split as
unit * direction, with coprime integer entries in direction, and
min_violation_mixture takes it in that form: s_j is the unit's denominator,
which is that lcm, and the scaled entries are the direction times the unit's
numerator, so no column is split or scaled again. Pivots follow Edmonds and
Bareiss, as in Avis's lrs: the stored rows are D times the scaled program's
rational tableau, where D > 0 is the absolute determinant of the basis, and a
pivot on entry p sets T_i <- (p*T_i - T_i[e]*T_r) // D and D <- p. The division
is exact, so no gcd is ever taken. Scaling column j scales its reduced cost
by s_j and leaves every ratio of the ratio test in proportion, so ranking
candidates by cost[j] / s_j (cross-multiplied) and comparing ratios the same
way chooses exactly the pivots a Fraction tableau of the unscaled program
would choose. The returned vertex is therefore the same one, rational entry
for rational entry; the test suite keeps that Fraction simplex as the
reference and checks the two agree. One lcm over the whole matrix would also
make it integral, but on the product oracle's dense mixture columns, whose
denominators differ from column to column, it inflates every entry; one scale
per column keeps the integers small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Sequence

from .incentives import IncentiveColumn, SparseCE

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------- simplex core ----------


def _pivot_budget(m: int, n: int) -> int:
    """Pivots the largest-improvement rule gets before Bland's rule takes over."""
    return 12 * (m + n) + 64


@dataclass
class _Tableau:
    """Integer tableau: the rational tableau of the scaled program is rows / det.

    Each row holds the n real columns followed by the right-hand side.
    solve_standard_form and min_violation_mixture never read their artificial
    columns, so they do not store them; FeasibilityVerdict stores its one
    artificial. det is the
    absolute determinant of the current basis matrix and stays positive.
    """

    rows: list[list[int]]
    basis: list[int]
    det: int = 1


def _eliminate(other: list[int], pivot_row: list[int], p: int, col: int, det: int) -> list[int]:
    """One Bareiss row update; the division is exact for a consistent tableau."""
    factor = other[col]
    if factor:
        return [(p * v - factor * w) // det for v, w in zip(other, pivot_row)]
    if p == det:
        return other
    return [p * v // det for v in other]


def _pivot(tab: _Tableau, row: int, col: int, cost: list[int] | None = None) -> list[int] | None:
    """Pivot on (row, col) and return the updated cost row, if one is given."""
    rows = tab.rows
    pivot_row = rows[row]
    p = pivot_row[col]
    if p < 0:
        # only a drive-out pivot can be negative; flipping the pivot row
        # keeps det positive and the scaled tableau unchanged
        pivot_row = rows[row] = [-v for v in pivot_row]
        p = -p
    det = tab.det
    for i, other in enumerate(rows):
        if i != row:
            rows[i] = _eliminate(other, pivot_row, p, col, det)
    if cost is not None:
        cost = _eliminate(cost, pivot_row, p, col, det)
    tab.basis[row] = col
    tab.det = p
    return cost


def _run_simplex(
    tab: _Tableau, cost: list[int], scale: list[int], bland_after: int | None = None
) -> str:
    """Pivot until optimal or unbounded, updating cost in place.

    cost[j] / scale[j] is the reduced cost of column j up to one positive
    factor shared by every column. Entering column: most negative reduced
    cost, ties to the lowest index — fast, but it can cycle on degenerate
    bases, so once bland_after pivots are spent (the pivot budget unless
    given) the loop switches to Bland's least-index rule, which terminates
    unconditionally. Leaving row: smallest ratio, ties to the smallest
    basis index (what Bland's rule requires; harmless for the fast rule).
    Both rules are deterministic, so the returned vertex is a pure function
    of the input. Ratios are compared by cross-multiplication, so no
    rational is ever formed.
    """
    rows, basis = tab.rows, tab.basis
    m, n = len(rows), len(scale)
    budget = _pivot_budget(m, n) if bland_after is None else bland_after
    pivots = 0
    while True:
        enter = -1
        if pivots < budget:
            most, most_scale = 0, 1
            for j in range(n):
                value = cost[j]
                if value < 0 and value * most_scale < most * scale[j]:
                    most, most_scale = value, scale[j]
                    enter = j
        else:
            for j in range(n):
                if cost[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal"
        leave = -1
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded"
        cost[:] = _pivot(tab, leave, enter, cost)
        pivots += 1


def _column_scales(rows: Sequence[Sequence[Rational]], n: int) -> list[int]:
    """Per column, the lcm of its denominators: the least scale making it integral."""
    scale = [1] * n
    for row in rows:
        for j, v in enumerate(row):
            d = v.denominator
            if d != 1:
                scale[j] = lcm(scale[j], d)
    return scale


def solve_standard_form(
    rows: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    objective: Sequence[Rational] | None = None,
) -> tuple[str, list[Fraction] | None]:
    """Solve min objective . x subject to rows . x = rhs, x >= 0.

    Returns (status, x) with status one of "optimal", "infeasible",
    "unbounded". With objective None this is a pure feasibility solve and any
    basic feasible point is returned. The returned x is always a vertex of the
    feasible region (positive entries have linearly independent columns).
    Entries may be ints or Fractions.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    scale = _column_scales(rows, n)
    rhs_scale = lcm(*(b.denominator for b in rhs))
    tableau = []
    for i in range(m):
        row = [v.numerator * (s // v.denominator) for v, s in zip(rows[i], scale)]
        b = rhs[i]
        row.append(b.numerator * (rhs_scale // b.denominator))
        if b < 0:
            row = [-v for v in row]
        tableau.append(row)
    tab = _Tableau(rows=tableau, basis=list(range(n, n + m)))

    # Phase 1: minimize the artificial total. Reduced costs start at
    # -(column sums) for the real columns since every artificial costs 1.
    cost = [-sum(row[j] for row in tableau) for j in range(n)]
    _run_simplex(tab, cost, scale)
    if any(row[-1] for row, var in zip(tab.rows, tab.basis) if var >= n):
        return "infeasible", None

    # Drive leftover zero-level artificials out of the basis; a row that
    # cannot pivot on any real column is redundant and gets dropped.
    drop = []
    for i in range(m):
        if tab.basis[i] >= n:
            for j in range(n):
                if tab.rows[i][j]:
                    _pivot(tab, i, j)
                    break
            else:
                drop.append(i)
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]

    if objective is not None:
        # scale the objective like its columns, then clear its denominators
        weighted = [Fraction(c) * s for c, s in zip(objective, scale)]
        common = lcm(*(w.denominator for w in weighted))
        obj = [w.numerator * (common // w.denominator) for w in weighted]
        cost = [tab.det * c for c in obj]
        for row, var in zip(tab.rows, tab.basis):
            factor = obj[var]
            if factor:
                for j in range(n):
                    cost[j] -= factor * row[j]
        if _run_simplex(tab, cost, scale) == "unbounded":
            return "unbounded", None

    denominator = tab.det * rhs_scale
    solution = [ZERO] * n
    for row, var in zip(tab.rows, tab.basis):
        if var < n:
            solution[var] = Fraction(row[-1] * scale[var], denominator)
    return "optimal", solution


class FeasibilityVerdict:
    """Whether {x >= 0, sum x = 1, columns . x >= 0} is feasible, as columns arrive.

    This is phase 1 of the program's homogeneous form: a row -c_r . x + s_r = 0
    for every row r that some column touches, and sum x + a = 1. The start
    basis is the slacks s and the one artificial a; every other right-hand
    side is 0, so one artificial is enough. The program is feasible exactly
    when phase 1 drives a to 0.

    Column 0 is a, and each row's slack is a column too, so the tableau
    carries the identity block det * B^-1. An appended column's tableau
    entries are that block times the column, and its reduced cost comes from
    the same entries of the cost row: exact integers, no gcd. A row enters
    when a column first touches it; every earlier column is zero there, so
    its slack joins the basis and det is unchanged. Each verdict resumes
    phase 1 from the last basis under Bland's rule from the first pivot. The
    verdict does not depend on the pivot path, and the largest-improvement
    rule can stall for long on degenerate probes before Bland's takes over.
    Entries may be ints or Fractions.
    """

    def __init__(self) -> None:
        self._tab = _Tableau(rows=[[1, 1]], basis=[0])  # row 0 is the sum row
        self._cost = [0]
        self._slack: dict[int, int] = {}  # row of the program -> column of its slack
        self.added = 0

    def _add_row(self, r: int) -> None:
        tab = self._tab
        col = len(self._cost)
        for row in tab.rows:
            row.insert(-1, 0)
        row = [0] * (col + 2)
        row[col] = tab.det
        tab.rows.append(row)
        tab.basis.append(col)
        self._cost.append(0)
        self._slack[r] = col

    def add(self, column: Sequence[Rational]) -> None:
        """Append one column of the program.

        A positive multiple of a column leaves the verdict unchanged, so a
        rational column enters times the lcm of its denominators.
        """
        scale = lcm(*(v.denominator for v in column))
        entries = []
        for r, v in enumerate(column):
            if v:
                if r not in self._slack:
                    self._add_row(r)
                entries.append((self._slack[r], v.numerator * (scale // v.denominator)))
        for row in self._tab.rows:
            row.insert(-1, row[0] - sum(row[k] * v for k, v in entries))
        cost = self._cost
        cost.append(cost[0] - self._tab.det - sum(cost[k] * v for k, v in entries))
        self.added += 1

    def feasible(self) -> bool:
        """Resume phase 1; True when the columns so far admit a distribution.

        a has the least index, so the ratio test's tie rule makes it leave
        the basis as soon as its level could reach 0: a basic a is positive.
        """
        # Bland's rule never reads the column scales
        _run_simplex(self._tab, self._cost, [1] * len(self._cost), bland_after=0)
        return 0 not in self._tab.basis


# ---------- the cut-collection program ----------


@dataclass(frozen=True)
class CutLP:
    """Feasibility program over collected profile columns.

    Seeks a distribution x over the columns' profiles, which are distinct,
    with every incentive row nonnegative: columns . x >= 0 rowwise, x >= 0,
    sum x = 1.
    """

    columns: tuple[IncentiveColumn, ...]


def _standard_rows_for(dense_columns: Sequence[Sequence[Rational]]):
    """Equalities for {cols . x >= 0, sum x = 1} with surplus variables.

    Identically zero rows are vacuous and skipped. Variables are the column
    weights followed by one surplus per kept row; the sum row comes last.
    """
    n_cols = len(dense_columns)
    n_rows = len(dense_columns[0])
    kept = [r for r in range(n_rows) if any(col[r] for col in dense_columns)]
    rows = []
    for k, r in enumerate(kept):
        row = [col[r] for col in dense_columns]
        row += [0] * len(kept)
        row[n_cols + k] = -1
        rows.append(row)
    rows.append([1] * n_cols + [0] * len(kept))
    rhs = [0] * len(kept) + [1]
    return rows, rhs, n_cols


def try_feasible_bfs(lp: CutLP) -> SparseCE | None:
    """Basic feasible solution of the cut program as a sparse certificate.

    None when the program is infeasible. Being a vertex, the certificate's
    support is at most 1 plus the number of off-diagonal incentive rows,
    regardless of how many columns were collected.
    """
    weights = mixture_feasible([col.dense() for col in lp.columns])
    if weights is None:
        return None
    atoms = tuple(
        (col.profile, w) for col, w in zip(lp.columns, weights) if w > 0
    )
    return SparseCE(atoms=atoms)


# ---------- small exact systems used by the oracles ----------


def stationary_distribution(rates: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Vertex solution of the balance equations of a finite rate matrix.

    rates[i][j] is the flow rate from state i to state j (diagonal ignored).
    Solves {x >= 0, sum x = 1, inflow = outflow at every state} by the
    phase-1 simplex, so the selected stationary distribution is canonical:
    Bland's rule makes it deterministic in the input.

    The oracles call it only as the fallback for chains with several closed
    classes, where the stationary distribution is not unique; a chain with
    one closed class has one solution, which oracles.stationary_block reads
    off the Markov chain tree theorem.
    """
    m = len(rates)
    if m == 1:
        return (ONE,)
    rows = []
    for j in range(m):
        row = [ZERO] * m
        for i in range(m):
            if i != j:
                row[i] = Fraction(rates[i][j])
        row[j] -= sum((Fraction(rates[j][k]) for k in range(m) if k != j), ZERO)
        rows.append(row)
    rows.append([ONE] * m)
    rhs = [ZERO] * m + [ONE]
    status, solution = solve_standard_form(rows, rhs)
    if status != "optimal":
        raise RuntimeError("balance system unexpectedly infeasible")
    return tuple(solution)


def mixture_feasible(dense_columns: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Weights alpha >= 0 summing to 1 with sum_k alpha_k col_k >= 0, if any."""
    cols = [list(c) for c in dense_columns]
    if not cols:
        return None
    rows, rhs, n_cols = _standard_rows_for(cols)
    status, solution = solve_standard_form(rows, rhs)
    if status != "optimal":
        return None
    return solution[:n_cols]


def min_violation_mixture(
    directions: Sequence[Sequence[int]], units: Sequence[Rational]
) -> tuple[Fraction, list[Fraction]]:
    """Mixture weights minimizing the worst constraint shortfall.

    Column k is units[k] * directions[k], the form ProductCut holds: integer
    directions that are coprime or all zero, and positive units. Solves min t
    subject to sum_k alpha_k col_k >= -t, alpha a distribution, t >= 0, and
    returns (t, alpha). t is zero exactly when the nonnegative mixture
    program is feasible. alpha is an optimal vertex, a pure function of the
    columns; it is the only optimal mixture on the product oracle's pinned
    games, but the optimal face can be wider in general.

    Column k enters the tableau as directions[k] * units[k].numerator with
    column scale units[k].denominator. A coprime direction makes that scale
    the lcm of the column's denominators, so the tableau is the one the
    Fraction column would give, entry for entry.

    The program is always feasible, so it needs no phase 1. Each kept row
    enters negated, -sum_k alpha_k col_k - t + s = 0, whose surplus s is a
    basis column already; the sum row pivots onto the column with the least
    worst shortfall (ties to the lowest index), and if that column has a
    negative entry, t pivots into its most negative row (ties to the first),
    which lifts every surplus to zero or more. Phase 2 then minimizes t.
    """
    if not directions:
        raise ValueError("need at least one column")
    n_cols = len(directions)
    kept = [r for r in range(len(directions[0])) if any(d[r] for d in directions)]
    scale = [u.denominator for u in units]
    n = n_cols + 1 + len(kept)  # the weights, t, one surplus per kept row
    rows = []
    for i, r in enumerate(kept):
        row = [-d[r] * u.numerator for d, u in zip(directions, units)]
        row += [-1] + [0] * (len(kept) + 1)
        row[n_cols + 1 + i] = 1
        rows.append(row)
    rows.append(scale + [0] * len(kept) + [0, 1])
    # the sum row's basic variable is an artificial that is never stored
    tab = _Tableau(rows=rows, basis=list(range(n_cols + 1, n + 1)))
    cost = [0] * n
    cost[n_cols] = 1

    low = [u * min([0, *(d[r] for r in kept)]) for d, u in zip(directions, units)]
    best = max(range(n_cols), key=low.__getitem__)
    cost = _pivot(tab, len(kept), best, cost)
    if low[best] < 0:
        direction = directions[best]
        worst = min(range(len(kept)), key=lambda i: direction[kept[i]])
        cost = _pivot(tab, worst, n_cols, cost)
    _run_simplex(tab, cost, scale + [1] * (1 + len(kept)))

    t, alpha = ZERO, [ZERO] * n_cols
    for row, var in zip(tab.rows, tab.basis):
        if var < n_cols:
            alpha[var] = Fraction(row[-1] * scale[var], tab.det)
        elif var == n_cols:
            t = Fraction(row[-1], tab.det)
    return t, alpha
