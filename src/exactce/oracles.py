"""Separation oracles for the dual of the equilibrium feasibility program.

The dual program asks for y >= 0 with every profile column's inner product
at most -1; it is always infeasible. Each oracle answer below is a
constraint it implies, violated at the queried point, held as
unit * normal . y <= rhs with an integer normal and a positive rational unit:

* NonnegativityCut: some coordinate of y is negative. Unit 1.
* ProfileCut: a pure profile whose column has nonnegative inner product with
  y. The column is the normal, verbatim a row of the dual program; unit 1.
  A product distribution x whose y-weighted incentive value V(x) is
  exactly zero is built from stationary distributions of y's blocks, then
  rounded to a pure profile one player at a time (the method of conditional
  probabilities) without letting V drop below zero.
* ProductCut (product mode): the constraint induced by the product
  distribution itself, skipping the rounding step: its row values, the
  x-weighted mix of the profile rows. They are split once into a coprime
  integer direction, the normal, and the unit (incentives.RowValues), so
  the violation, the ellipsoid update, the probe verdict and the mixture
  program all read integers.

Every oracle reads y as one integer vector over one positive denominator,
y = Y / L (IntegerPoint). The ellipsoid hands its center over in that form,
with L a power of two; a rational sequence is converted once, with L the lcm
of its denominators. From there on the oracle runs on integers: the
negative-coordinate scan, the stationary step, the rounding and the final
column guard. y enters all of them only through sign tests and comparisons,
which multiplying Y by a positive constant leaves alone, so the cut does not
depend on which L a point comes with.

Each player's stationary distribution is weighted by the Markov chain tree
theorem (Leighton and Rivest, 1986): action i gets the determinant of the
rate Laplacian with row and column i deleted. A positive total means one
closed class, hence a unique stationary distribution, which is the weights
over their total. Only a block with several closed classes goes to the
simplex (exact_lp.stationary_distribution), whose Bland-rule vertex then
picks one.

The rounding holds V as one Python integer (DualValue). x is scaled by the
lcm D of its denominators, kept for the whole rounding, so every term of V
carries the same positive factor D L conditional_scale(D) (D^(n-1) for
normal form, D for polymatrix). Its sign tests and comparisons are then
exact integer ones, with no gcd and no row vector. V is affine in each
player's mix, so all of one player's branches are scored from one linear
form (Rounding), built from the game's conditional payoff jacobians and
updated as players are fixed; DualValue.scores, which evaluates V from
scratch, is the reference those forms must equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from numbers import Rational
from typing import Callable, Sequence

from .errors import SolverError
from .exact_lp import stationary_distribution
from .games import Game, ProductDistribution, PureProfile
from .incentives import (
    IncentiveColumn,
    RowIndex,
    check_dual_vector,
    incentive_row_values,
    profile_column,
    row_at,
    row_count,
)

ZERO = Fraction(0)
ONE = Fraction(1)

TIE_BREAKS = ("first", "max-value", "welfare")


# ---------- cut types ----------


@dataclass(frozen=True)
class NonnegativityCut:
    """Constraint y[row] >= 0, reported for the first negative coordinate."""

    row: RowIndex
    position: int
    n_rows: int

    kind = "nonneg"
    rhs = ZERO
    unit = ONE

    def normal(self) -> list[int]:
        out = [0] * self.n_rows
        out[self.position] = -1
        return out

    def roster_key(self):
        return None

    def describe(self) -> dict:
        return {"kind": self.kind, "row": list(self.row)}


@dataclass(frozen=True)
class ProfileCut:
    """Constraint column(s) . y <= -1 for a pure profile s."""

    column: IncentiveColumn

    kind = "profile"
    rhs = Fraction(-1)
    unit = ONE

    @property
    def profile(self) -> PureProfile:
        return self.column.profile

    def normal(self) -> list[int]:
        return self.column.dense()

    def roster_key(self):
        return ("profile", self.column.profile)

    def describe(self) -> dict:
        return {"kind": self.kind, "profile": list(self.profile)}


@dataclass(frozen=True)
class ProductCut:
    """Constraint values(x) . y <= -1 for a product distribution x.

    values(x) is the vector of expected incentive-row values under x, so the
    inner product with the queried y is exactly zero by construction. It is
    held as unit * direction: direction, the normal, is coprime integers
    (all zero only when every row value is), and unit is a positive Fraction
    (1 for the zero vector).
    """

    x: ProductDistribution
    direction: tuple[int, ...]
    unit: Fraction

    kind = "product"
    rhs = Fraction(-1)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The row values as Fractions."""
        return tuple(self.unit * v for v in self.direction)

    def normal(self) -> tuple[int, ...]:
        return self.direction

    def roster_key(self):
        return ("product", self.x.strategies)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "x": [[str(p) for p in strat] for strat in self.x.strategies],
        }


Cut = NonnegativityCut | ProfileCut | ProductCut


# ---------- dual points ----------


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(u * v for u, v in zip(a, b) if u)


@dataclass(frozen=True)
class IntegerPoint:
    """The dual point y = numerators / denominator, denominator positive."""

    numerators: tuple[int, ...]
    denominator: int


DualPoint = Sequence[Rational] | IntegerPoint


def integer_point(y: DualPoint) -> IntegerPoint:
    """y as integers over one denominator: the lcm of a rational sequence's
    denominators, or the point itself when it already is one."""
    if isinstance(y, IntegerPoint):
        return y
    lcm = math.lcm(*(v.denominator for v in y))
    return IntegerPoint(tuple(v.numerator * (lcm // v.denominator) for v in y), lcm)


def normal_violation(normal: Sequence[int], unit: Rational, rhs: Fraction,
                     point: IntegerPoint) -> Fraction:
    """unit * normal . y - rhs, from one integer dot product with the numerators."""
    return Fraction(unit.numerator * _dot(normal, point.numerators),
                    unit.denominator * point.denominator) - rhs


def cut_violation(cut: Cut, y: DualPoint) -> Fraction:
    """By how much y breaks the cut's constraint (positive means violated)."""
    return normal_violation(cut.normal(), cut.unit, cut.rhs, integer_point(y))


# ---------- product construction ----------


_STATIONARY_FAILED = "stationary construction failed its exactness check"


def _determinant(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in matrix]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // previous
        previous = pivot
    return sign * a[-1][-1] if n else 1


def _tree_weights(rates: list[list[int]]) -> list[int]:
    """Action i's weight is the determinant of the rate Laplacian with row
    and column i deleted: the total rate of the spanning trees directed into
    i, by the Markov chain tree theorem. The diagonal of rates must be zero."""
    m = len(rates)
    if m == 2:
        return [rates[1][0], rates[0][1]]
    laplacian = [[sum(row) if i == j else -r for j, r in enumerate(row)]
                 for i, row in enumerate(rates)]
    return [
        _determinant([row[:i] + row[i + 1:] for k, row in enumerate(laplacian) if k != i])
        for i in range(m)
    ]


def stationary_block(rates: list[list[int]], denominator: int) -> tuple[Fraction, ...]:
    """The stationary distribution stationary_distribution returns for the
    rates rates[i][j] / denominator (diagonal zero), mostly without its LP.

    A positive tree-weight total means one closed class. The balance
    equations then have one solution, the weights over their total, which is
    the simplex's vertex too. A zero total means several closed classes, and
    only then is the simplex run on the rational rates, so that its
    Bland-rule vertex picks among the stationary distributions as before.
    """
    weights = _tree_weights(rates)
    total = sum(weights)
    if total:
        return tuple(Fraction(w, total) for w in weights)
    return stationary_distribution([[Fraction(r, denominator) for r in row] for row in rates])


def _rate_blocks(game: Game, point: IntegerPoint) -> list[list[list[int]]]:
    """Each player's block of the numerators, with its diagonal zeroed."""
    ys, blocks, offset = point.numerators, [], 0
    for m in game.actions:
        blocks.append([[0 if i == j else ys[offset + i * m + j] for j in range(m)]
                       for i in range(m)])
        offset += m * m
    return blocks


def _stationary_x(game: Game, point: IntegerPoint) -> ProductDistribution:
    """The stationary product of the point: one stationary_block per player,
    uniform where the player's block is all zero."""
    return ProductDistribution(tuple(
        stationary_block(rates, point.denominator) if any(map(any, rates))
        else tuple(Fraction(1, len(rates)) for _ in rates)
        for rates in _rate_blocks(game, point)
    ))


def _checked_point(game: Game, y: DualPoint) -> IntegerPoint:
    point = integer_point(y)
    check_dual_vector(game, point.numerators)
    return point


def _nonnegative_point(game: Game, y: DualPoint) -> IntegerPoint:
    point = _checked_point(game, y)
    if any(v < 0 for v in point.numerators):
        raise ValueError("dual vector must be nonnegative")
    return point


def stationary_product(game: Game, y: DualPoint) -> ProductDistribution:
    """Product distribution whose row values are orthogonal to y, exactly.

    Each player's block of y is read as transition rates between that
    player's actions, and the player's mixed strategy is a stationary
    distribution of those rates (uniform when the block is all zero). Balance
    makes the y-weighted sum of that player's incentive values telescope to
    zero; the result is verified exactly before returning.
    """
    point = _nonnegative_point(game, y)
    x = _stationary_x(game, point)
    value = DualValue(game, point, x)
    if value.scores(value.start)[0] != 0:
        raise SolverError(_STATIONARY_FAILED)
    return x


# ---------- purification ----------


class DualValue:
    """The y-weighted incentive value of product distributions, as integers.

    For a product x the value is V(x) = sum_r y_r E_x[row r]. Summing row
    (p, i, j) = x_p(i) (C_p(i) - C_p(j)) over j, with C_p(i) player p's
    conditional expected payoff for action i, gives

        V(x) = sum_p sum_i C_p(i) w_p(i),
        w_p(i) = x_p(i) sum_{j != i} y_{p,i,j} - sum_{k != i} x_p(k) y_{p,k,i},

    action i's y-weighted outflow minus its inflow. y is read as Y / L
    (integer_point), and x is scaled by D, the lcm of all its denominators. D is
    fixed when the object is built, so fixing a player to action a later
    means the weights D e_a (point_mass). On weights X = D x the game's
    integer kernel gives conditional_scale(D) C_p and the flows carry D L,
    so every term of V carries the same positive factor `scale`: scores(X)
    returns V(x) * scale exactly, and its sign and order are those of V.

    V is affine in each player's weights, since C_p does not read X_p and
    every other C_q is linear in it. Rounding uses that to score all of one
    player's branches from one linear form; scores, which evaluates V from
    scratch, is the reference those forms are tested against.
    """

    def __init__(self, game: Game, y: DualPoint, x: ProductDistribution):
        self.game = game
        self.d, self.start = x.integer_weights()
        point = integer_point(y)
        self.rates = _rate_blocks(game, point)  # per player: L y_{p,i,j}
        self.outflows = [[sum(row) for row in rates] for rates in self.rates]
        self.scale = self.d * point.denominator * game.conditional_scale(self.d)

    def point_mass(self, player: int, action: int) -> tuple[int, ...]:
        return tuple(self.d if a == action else 0 for a in range(self.game.actions[player]))

    def flows(self, player: int, mine: Sequence[int]) -> list[int]:
        """w_p at the player's weights: each action's outflow minus its inflow."""
        rates = self.rates[player]
        return [
            mine[i] * out - sum(w * row[i] for w, row in zip(mine, rates) if w)
            for i, out in enumerate(self.outflows[player])
        ]

    def scores(self, weights: Sequence[Sequence[int]]) -> tuple[int, int]:
        """(value, welfare) at the weights X = D x, evaluated from scratch.

        value is scale * V(x). welfare is sum_q <C_q, X_q>, the players'
        total expected payoff under x times D * conditional_scale(D).
        """
        state = Rounding(self, weights)
        return state.value, state.welfare


class Rounding:
    """Integer state of the conditioning in purify, kept up to date as players
    are fixed one at a time.

    It holds the weights X, every player's kernel C_q =
    conditional_payoff_ints(q, X), the flows w_q, and the value V and welfare
    W that DualValue.scores returns on X. Fixing player p moves each other
    C_q by M_qp (X_p' - X_p), with M_qp the game's conditional payoff
    jacobian, and leaves C_p and every other flow alone. So V and W at
    X_p' = D e_a are V + D h(a) - <X_p, h> and W + D k(a) - <X_p, k>, where

        h(a) = C_p(a) out_p(a) - sum_i L y_{p,a,i} C_p(i)
               + sum_{q != p} sum_i w_q(i) M_qp[i][a],
        k(a) = C_p(a) + sum_{q != p} sum_i X_q(i) M_qp[i][a].

    step(p, choose) makes one pass over the jacobians to score every branch
    of p, instead of one evaluation of the whole game per branch, and then
    fixes p to the branch choose picks.
    """

    def __init__(self, dual: DualValue, weights: Sequence[Sequence[int]]):
        game = dual.game
        self.dual = dual
        self.weights = [tuple(mine) for mine in weights]
        self.conditionals = [game.conditional_payoff_ints(q, weights) for q in range(game.players)]
        self.flows = [dual.flows(q, mine) for q, mine in enumerate(weights)]
        self.value = sum(_dot(c, w) for c, w in zip(self.conditionals, self.flows))
        self.welfare = sum(_dot(c, mine) for c, mine in zip(self.conditionals, weights))

    def step(self, player: int, choose: Callable[[list[tuple[int, int]]], int]) -> int:
        """Fix player to the action choose picks and return that action.

        choose gets (value, welfare) after fixing player to each of its
        actions, the integers scores returns on those weights.
        """
        dual, weights = self.dual, self.weights
        own = self.conditionals[player]
        h = [c * out - _dot(row, own)
             for c, out, row in zip(own, dual.outflows[player], dual.rates[player])]
        k = list(own)
        jacobians = {}
        for q in range(dual.game.players):
            if q != player:
                jacobian = dual.game.conditional_payoff_jacobian(q, player, weights)
                jacobians[q] = jacobian
                for flow, mass, row in zip(self.flows[q], weights[q], jacobian):
                    if flow:
                        h = [ha + flow * v for ha, v in zip(h, row)]
                    if mass:
                        k = [ka + mass * v for ka, v in zip(k, row)]
        mine, d = weights[player], dual.d
        value, welfare = self.value - _dot(mine, h), self.welfare - _dot(mine, k)
        branches = [(value + d * ha, welfare + d * ka) for ha, ka in zip(h, k)]
        action = choose(branches)

        target = dual.point_mass(player, action)
        delta = [t - x for t, x in zip(target, mine)]
        for q, jacobian in jacobians.items():
            self.conditionals[q] = [
                c + _dot(delta, row) for c, row in zip(self.conditionals[q], jacobian)
            ]
        weights[player] = target
        self.flows[player] = dual.flows(player, target)
        self.value, self.welfare = branches[action]
        return action


def _choose(tie_break: str, branches: list[tuple[int, int]]) -> int:
    """The action purify fixes, among the branches with nonnegative value."""
    kept = [(a, v, w) for a, (v, w) in enumerate(branches) if v >= 0]
    if not kept:
        raise SolverError("no nonnegative branch while purifying; invariant broken")
    # max keeps the first of equal scores, so ties go to the lowest action
    if tie_break == "max-value":
        return max(kept, key=lambda b: b[1])[0]
    if tie_break == "welfare":
        return max(kept, key=lambda b: b[2])[0]
    return kept[0][0]


def purify(
    game: Game,
    y: DualPoint,
    x: ProductDistribution,
    tie_break: str = "first",
    _stationary: bool = False,
) -> PureProfile:
    """Round a product distribution to a pure profile, conditioning player by
    player, so the y-weighted incentive value never goes negative.

    The value at x is a convex combination, weighted by player p's mix, of the
    values after fixing p to each action; a nonnegative branch therefore
    always exists, and fixing players in ascending order keeps the invariant
    until the distribution is a point mass. tie_break picks among nonnegative
    branches: "first" takes the lowest action, "max-value" the branch with the
    largest value, "welfare" the branch with the largest total expected payoff.

    Rounding scores all of one player's branches from one linear form in that
    player's weights: one integer value and one integer welfare per branch,
    equal to what DualValue.scores returns on those weights, each the exact
    quantity times a positive factor that depends only on y's denominator
    and the starting x. The sign tests and both comparisons are therefore
    exact and pick the same branches as the rational values would. Scaling
    the integer point Y by a positive constant multiplies every branch value
    and welfare by that constant too, so the branches picked do not depend
    on the denominator y comes with.
    purified_separation passes _stationary=True for its stationary product,
    whose value must then be exactly zero.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie break {tie_break!r}")
    point = _nonnegative_point(game, y)
    x.check_for(game)
    dual = DualValue(game, point, x)
    state = Rounding(dual, dual.start)
    if _stationary and state.value != 0:
        raise SolverError(_STATIONARY_FAILED)
    if state.value < 0:
        raise ValueError("purification requires a nonnegative starting value")

    choose = partial(_choose, tie_break)
    profile = [state.step(p, choose) for p in range(game.players)]
    return tuple(profile)


# ---------- separation oracles ----------


def _negative_coordinate(game: Game, point: IntegerPoint) -> NonnegativityCut | None:
    for pos, v in enumerate(point.numerators):
        if v < 0:
            return NonnegativityCut(row=row_at(game, pos), position=pos, n_rows=row_count(game))
    return None


def purified_separation(game: Game, y: DualPoint, tie_break: str = "first") -> Cut:
    """Cut for the dual point y: nonnegativity first, else a pure profile.

    For y >= 0 the returned profile's column has nonnegative inner product
    with y, so the profile constraint (<= -1) is violated at y by at least 1.
    """
    point = _checked_point(game, y)
    negative = _negative_coordinate(game, point)
    if negative is not None:
        return negative
    profile = purify(game, point, _stationary_x(game, point), tie_break, _stationary=True)
    column = profile_column(game, profile)
    if column.dot(point.numerators) < 0:
        raise SolverError("purified profile fails its nonnegativity guarantee")
    return ProfileCut(column=column)


def product_separation(game: Game, y: DualPoint) -> Cut:
    """Cut from the stationary product itself, without purification."""
    point = _checked_point(game, y)
    negative = _negative_coordinate(game, point)
    if negative is not None:
        return negative
    x = _stationary_x(game, point)
    direction, unit = incentive_row_values(game, x)
    if _dot(direction, point.numerators) != 0:
        raise SolverError(_STATIONARY_FAILED)
    return ProductCut(x=x, direction=direction, unit=unit)
