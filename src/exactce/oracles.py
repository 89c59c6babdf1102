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
  integer direction, the normal, and the unit (incentives.RowValues), and
  kept in that form: the violation, the ellipsoid update, the probe verdict
  and both mixture programs read the direction and the unit, and no Fraction
  row is ever formed.

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
rate Laplacian with row and column i deleted, summed over the spanning
trees directly for two and three actions. A positive total means one
closed class, hence a unique stationary distribution, which is the weights
over their total. Only a block with several closed classes goes to the
simplex (exact_lp.stationary_distribution) on the same integer rates,
whose vertex then picks one. The weights stay integers: each player's are
reduced by one gcd against their total (stationary_block). The product
oracle forms Fractions from those, weights over total, only for the
ProductCut's x. Both oracles bring every player over D, the lcm of the
totals (stationary_weights): the product oracle's row values and the
purified oracle's rounding read those integers. That is the D and the
X = D x that ProductDistribution.integer_weights gives for the same
product. The purified oracle reads the point's rate blocks once, for the
stationary step and the rounding both.

The rounding holds V as one Python integer (DualValue). D stays fixed for
the whole rounding, so every term of V carries the same positive factor
D L conditional_scale(D) (D^(n-1) for normal form, D for polymatrix). Its
sign tests and comparisons are then exact integer ones, with no gcd and no
row vector. V is affine in each player's mix, so all of one player's
branches are scored from one linear form (Rounding): the kernel of the
player being fixed, built from the current weights when its turn comes,
and the conditional payoff jacobians of the players whose flows are
nonzero. No kernel is carried from one player to the next. From a
stationary start every flow is zero, so only the players already fixed
contribute a jacobian; the welfare, scored only under the "welfare" tie
break, the one that reads it, needs all of them. DualValue.scores, which
evaluates V and the welfare from scratch, is the reference those forms
must equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from numbers import Rational
from operator import mul
from typing import Callable, Sequence

from .errors import SolverError
from .exact_lp import stationary_distribution
from .games import Game, IntegerProduct, ProductDistribution, PureProfile
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
    """Inner product of a sparse a with b: a cut normal and a point."""
    return sum(u * v for u, v in zip(a, b) if u)


def _inner(a: Sequence[int], b: Sequence[int]) -> int:
    """Inner product of two short dense vectors: one player's weights,
    kernel, flows or jacobian row."""
    return sum(map(mul, a, b))


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
    i, by the Markov chain tree theorem. The diagonal of rates must be zero.
    For two and three actions the trees are summed directly, with no
    determinant: j -> i alone for two, and for three the trees into i over
    the other two actions j and k."""
    m = len(rates)
    if m == 2:
        return [rates[1][0], rates[0][1]]
    if m == 3:
        # the three trees into i: j -> i <- k, k -> j -> i and j -> k -> i
        (_, r01, r02), (r10, _, r12), (r20, r21, _) = rates
        return [r10 * (r20 + r21) + r12 * r20,
                r01 * (r21 + r20) + r02 * r21,
                r02 * (r12 + r10) + r01 * r12]
    laplacian = [[sum(row) if i == j else -r for j, r in enumerate(row)]
                 for i, row in enumerate(rates)]
    return [
        _determinant([row[:i] + row[i + 1:] for k, row in enumerate(laplacian) if k != i])
        for i in range(m)
    ]


def stationary_block(rates: list[list[int]], denominator: int) -> tuple[int, tuple[int, ...]]:
    """(T, W): the stationary distribution stationary_distribution returns
    for the rates rates[i][j] / denominator (diagonal zero) is W / T, with T
    positive and gcd(T, W) = 1, mostly without its LP.

    A positive tree-weight total means one closed class. The balance
    equations then have one solution, the weights over their total, which is
    the simplex's vertex too. A zero total means several closed classes, and
    only then is the simplex run, on the same integer rates, so that its
    vertex picks among the stationary distributions; W / T is then that
    vertex over the lcm of its denominators. Either way one gcd reduces the
    pair, so T is the lcm of the reduced denominators of W / T.
    """
    weights = _tree_weights(rates)
    total = sum(weights)
    if not total:
        vertex = stationary_distribution(rates, denominator)
        total = math.lcm(*(v.denominator for v in vertex))
        weights = [v.numerator * (total // v.denominator) for v in vertex]
    common = math.gcd(total, *weights)
    return total // common, tuple(w // common for w in weights)


def _rate_blocks(game: Game, point: IntegerPoint) -> list[list[list[int]]]:
    """Each player's block of the numerators, with its diagonal zeroed."""
    ys, blocks, offset = point.numerators, [], 0
    for m in game.actions:
        blocks.append([[0 if i == j else ys[offset + i * m + j] for j in range(m)]
                       for i in range(m)])
        offset += m * m
    return blocks


def _stationary_blocks(rates: list[list[list[int]]],
                       denominator: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each player's stationary distribution as stationary_block's (T, W),
    from the player's rate block over the point's denominator: one
    stationary_block per player, uniform where the block is all zero."""
    return [
        stationary_block(block, denominator) if any(map(any, block))
        else (len(block), (1,) * len(block))
        for block in rates
    ]


def stationary_weights(stationary: list[tuple[int, tuple[int, ...]]]) -> IntegerProduct:
    """The stationary product as integers over one denominator: each
    player's (T_p, W_p) from _stationary_blocks brought over D, the lcm of
    the T_p.

    Each T_p is the lcm of player p's reduced denominators, so D and
    X_p = W_p D / T_p are the pair ProductDistribution.integer_weights gives
    for the same distribution, with no Fraction formed on the way.
    """
    d = math.lcm(*(total for total, _ in stationary))
    return IntegerProduct(d, tuple(
        tuple(w * (d // total) for w in weights) for total, weights in stationary))


def _stationary_x(stationary: list[tuple[int, tuple[int, ...]]]) -> ProductDistribution:
    """The stationary product as Fractions, each player's W_p / T_p: the
    distribution stationary_weights holds over D."""
    return ProductDistribution(tuple(
        tuple(Fraction(w, total) for w in weights) for total, weights in stationary))


def _checked_point(game: Game, y: DualPoint) -> IntegerPoint:
    point = integer_point(y)
    check_dual_vector(game, point.numerators)
    return point


def _nonnegative_point(game: Game, y: DualPoint) -> IntegerPoint:
    point = _checked_point(game, y)
    if any(v < 0 for v in point.numerators):
        raise ValueError("dual vector must be nonnegative")
    return point


# ---------- purification ----------


class DualValue:
    """The y-weighted incentive value of product distributions, as integers.

    For a product x the value is V(x) = sum_r y_r E_x[row r]. Summing row
    (p, i, j) = x_p(i) (C_p(i) - C_p(j)) over j, with C_p(i) player p's
    conditional expected payoff for action i, gives

        V(x) = sum_p sum_i C_p(i) w_p(i),
        w_p(i) = x_p(i) sum_{j != i} y_{p,i,j} - sum_{k != i} x_p(k) y_{p,k,i},

    action i's y-weighted outflow minus its inflow. y is read as Y / L
    (integer_point), and x as integer weights X over one denominator D,
    x.integer_weights(): a ProductDistribution's lcm of denominators, or the
    D an IntegerProduct already carries. D is fixed when the object is
    built, so fixing a player to action a later means the weights D e_a
    (point_mass). On the weights X the game's integer kernel gives
    conditional_scale(D) C_p and the flows carry D L, so every term of V
    carries the same positive factor `scale`: scores(X) returns V(x) * scale
    exactly, and its sign and order are those of V.

    V is affine in each player's weights, since C_p does not read X_p and
    every other C_q is linear in it. Rounding uses that to score all of one
    player's branches from one linear form; scores, which evaluates V from
    scratch, is the reference those forms are tested against. The rate
    blocks are read from y unless the caller passes the ones it has already
    built from the same point (_rates).
    """

    def __init__(self, game: Game, y: DualPoint, x: ProductDistribution | IntegerProduct,
                 _rates: list[list[list[int]]] | None = None):
        self.game = game
        self.d, self.start = x.integer_weights()
        point = integer_point(y)
        # per player: L y_{p,i,j}, or the blocks the caller built from point
        self.rates = _rate_blocks(game, point) if _rates is None else _rates
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
        state = Rounding(self, weights, welfare=True)
        return state.value, state.welfare


class Rounding:
    """Integer state of the conditioning in purify, kept up to date as players
    are fixed one at a time.

    It holds the weights X, the flows w_q, the value V that DualValue.scores
    returns on X and, when built with welfare=True, the welfare W it returns
    too (else welfare is None). With C_q = conditional_payoff_ints(q, X) and
    M_qp the game's conditional payoff jacobian, V and W at X_p' = D e_a are
    V + D h(a) - <X_p, h> and W + D k(a) - <X_p, k>, where

        h(a) = C_p(a) out_p(a) - sum_i L y_{p,a,i} C_p(i)
               + sum_{q != p} sum_i w_q(i) M_qp[i][a],
        k(a) = C_p(a) + sum_{q != p} sum_i X_q(i) M_qp[i][a].

    So step needs only the kernel C_p of the player being fixed, which it
    builds from the current weights, and the M_qp of the players q with
    nonzero flows (of every q under welfare, since k reads every X_q). No
    other kernel is kept: each is linear in every other player's weights,
    so one built when its turn comes equals one moved along as the players
    before it were fixed. At a stationary start every flow is zero, so V = 0
    needs no kernel, and the open players' jacobians are not read until
    their turn; a fixed player's point mass has nonzero flows in general.
    k is formed only when welfare is tracked.

    step(p, choose) scores every branch of p from that one linear form,
    instead of one evaluation of the whole game per branch, and then fixes
    p to the branch choose picks.
    """

    def __init__(self, dual: DualValue, weights: Sequence[Sequence[int]], welfare: bool):
        game = dual.game
        self.dual = dual
        self.weights = [tuple(mine) for mine in weights]
        self.flows = [dual.flows(q, mine) for q, mine in enumerate(weights)]
        kernels = [game.conditional_payoff_ints(q, weights) if welfare or any(flows) else None
                   for q, flows in enumerate(self.flows)]
        self.value = sum(_inner(c, w) for c, w in zip(kernels, self.flows) if c is not None)
        self.welfare = (sum(_inner(c, mine) for c, mine in zip(kernels, weights))
                        if welfare else None)

    def step(self, player: int, choose: Callable[[list[tuple[int, int | None]]], int]) -> int:
        """Fix player to the action choose picks and return that action.

        choose gets (value, welfare) after fixing player to each of its
        actions, the integers scores returns on those weights; welfare is
        None when it is not tracked.
        """
        dual, weights = self.dual, self.weights
        game, welfare = dual.game, self.welfare is not None
        own = game.conditional_payoff_ints(player, weights)
        h = [c * out - _inner(row, own)
             for c, out, row in zip(own, dual.outflows[player], dual.rates[player])]
        k = list(own) if welfare else None
        for q, flows in enumerate(self.flows):
            if q == player or not (welfare or any(flows)):
                continue
            jacobian = game.conditional_payoff_jacobian(q, player, weights)
            for flow, mass, row in zip(flows, weights[q], jacobian):
                if flow:
                    h = [ha + flow * v for ha, v in zip(h, row)]
                if mass and welfare:
                    k = [ka + mass * v for ka, v in zip(k, row)]
        mine, d = weights[player], dual.d
        value = self.value - _inner(mine, h)
        if welfare:
            total = self.welfare - _inner(mine, k)
            branches = [(value + d * ha, total + d * ka) for ha, ka in zip(h, k)]
        else:
            branches = [(value + d * ha, None) for ha in h]
        action = choose(branches)

        weights[player] = dual.point_mass(player, action)
        self.flows[player] = dual.flows(player, weights[player])
        self.value, self.welfare = branches[action]
        return action


def _choose(tie_break: str, branches: list[tuple[int, int | None]]) -> int:
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
    x: ProductDistribution | IntegerProduct,
    tie_break: str = "first",
    _rates: list[list[list[int]]] | None = None,
) -> PureProfile:
    """Round a product distribution to a pure profile, conditioning player by
    player, so the y-weighted incentive value never goes negative.

    The value at x is a convex combination, weighted by player p's mix, of the
    values after fixing p to each action; a nonnegative branch therefore
    always exists, and fixing players in ascending order keeps the invariant
    until the distribution is a point mass. tie_break picks among nonnegative
    branches: "first" takes the lowest action, "max-value" the branch with the
    largest value, "welfare" the branch with the largest total expected payoff.

    x is a ProductDistribution or, from purified_separation, the integer
    weights of its stationary product (IntegerProduct); both give the same
    D and X. Rounding scores all of one player's branches from one linear
    form in that player's weights: one integer value per branch, and under
    "welfare", the only tie break that reads it, one integer welfare, each
    equal to what DualValue.scores returns on those weights and each the
    exact quantity times a positive factor that depends only on y's
    denominator and the starting x. The sign tests and the comparisons are
    therefore exact and pick the same branches as the rational values would.
    Scaling the integer point Y by a positive constant multiplies every
    branch value and welfare by that constant too, so the branches picked do
    not depend on the denominator y comes with.
    purified_separation passes _rates, the rate blocks of the point it has
    already checked, with the stationary product they give; the point and x
    are then not checked again, and the value must be exactly zero.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie break {tie_break!r}")
    if _rates is None:
        y = _nonnegative_point(game, y)
        x.check_for(game)
    dual = DualValue(game, y, x, _rates)
    state = Rounding(dual, dual.start, welfare=tie_break == "welfare")
    if _rates is not None and state.value != 0:
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
    rates = _rate_blocks(game, point)
    x = stationary_weights(_stationary_blocks(rates, point.denominator))
    profile = purify(game, point, x, tie_break, _rates=rates)
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
    stationary = _stationary_blocks(_rate_blocks(game, point), point.denominator)
    direction, unit = incentive_row_values(game, stationary_weights(stationary))
    if _dot(direction, point.numerators) != 0:
        raise SolverError(_STATIONARY_FAILED)
    return ProductCut(x=_stationary_x(stationary), direction=direction, unit=unit)
