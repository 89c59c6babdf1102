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
trees directly for two and three actions, and for more read off the LP
core's one fraction-free elimination (exact_lp._gauss_jordan). A positive
total means one closed class, hence a unique stationary distribution,
which is the weights over their total. Only a block with several closed
classes goes to the simplex (exact_lp.stationary_distribution) on the
same integer rates, whose vertex then picks one. The weights stay
integers: each player's are reduced by one gcd against their total
(stationary_block), giving (T, W), the integer form of a product
distribution (ProductDistribution.pairs).
The product oracle computes its row values from the pairs, over the
denominator the game type picks (Game.kernel_weights), and its cut
holds them as its roster key: each is reduced, so two cuts have equal pairs
exactly when their products are equal. Fractions, weights over total, are
formed (_stationary_x) only when the cut's x is read: for a transcript
line, or for a component of the reported mixture. The purified oracle
reads the point's rate blocks once, for the stationary step and the
rounding both.

The rounding (purify) starts at the stationary product and keeps each
player's own (T, W); it never forms D. A fixed player is a point mass, and
every open player's flows are zero, so step p scores its branches over the
open players' denominators only: L prod_{q > p} T_q for normal form, whose
kernels are products over the players, and L lcm_{q > p} T_q for
polymatrix, whose kernels are sums. Each branch is one Python integer, the
branch's value V times that positive factor, so its sign tests and
comparisons are exact integer ones, with no gcd and no row vector. V is
affine in each player's mix, so all of one player's branches are scored
from one linear form: the kernel of the player being fixed and, for normal
form, the conditional payoff jacobians of the players already fixed, or,
for polymatrix, two running sums over the fixed players' flows. The
welfare, scored only under the "welfare" tie break, the one that reads it,
needs every jacobian. The exactness guard is on the flows: each player's
must vanish at its stationary weights, which makes V zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Sequence

from .errors import SolverError
from .exact_lp import _gauss_jordan, stationary_distribution
from .games import Game, Mix, ProductDistribution, PureProfile, over_lcm
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

    x itself is held as stationary, one (T_p, W_p) pair per player as
    stationary_block gives it: player p plays action i with probability
    W_p[i] / T_p, T_p positive and gcd(T_p, W_p) = 1. A distribution has one
    such form, so the pairs are the roster key, and the property x forms the
    Fractions only when it is read.
    """

    stationary: tuple[Mix, ...]
    direction: tuple[int, ...]
    unit: Fraction

    kind = "product"
    rhs = Fraction(-1)

    @property
    def x(self) -> ProductDistribution:
        return _stationary_x(self.stationary)

    def normal(self) -> tuple[int, ...]:
        return self.direction

    def roster_key(self):
        return ("product", self.stationary)

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
    lcm, numerators = over_lcm(y)
    return IntegerPoint(numerators, lcm)


def normal_violation(normal: Sequence[int], unit: Rational, rhs: Fraction,
                     point: IntegerPoint) -> tuple[int, int]:
    """unit * normal . y - rhs as an exact pair (num, den) with den > 0, from
    one integer dot product with the numerators; no Fraction is built."""
    scale = unit.denominator * point.denominator
    return (unit.numerator * _dot(normal, point.numerators) * rhs.denominator
            - rhs.numerator * scale, scale * rhs.denominator)


# ---------- product construction ----------


_STATIONARY_FAILED = "stationary construction failed its exactness check"


def _tree_weights(rates: list[list[int]]) -> list[int]:
    """Action i's weight is the determinant of the rate Laplacian with row
    and column i deleted: the total rate of the spanning trees directed into
    i, by the Markov chain tree theorem. The diagonal of rates must be zero.
    For two and three actions the trees are summed directly, with no
    determinant: j -> i alone for two, and for three the trees into i over
    the other two actions j and k. For more, each minor is the |det| that
    exact_lp._gauss_jordan leaves: a sum of tree weights is never negative,
    so it is the determinant itself."""
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
    minors = [_gauss_jordan([row[:i] + row[i + 1:] for k, row in enumerate(laplacian) if k != i],
                            m - 1) for i in range(m)]
    return [0 if minor is None else minor.det for minor in minors]


def stationary_block(rates: list[list[int]], denominator: int) -> Mix:
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
        total, weights = over_lcm(stationary_distribution(rates, denominator))
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


def _stationary_blocks(rates: list[list[list[int]]], denominator: int) -> list[Mix]:
    """Each player's stationary distribution as stationary_block's (T, W),
    from the player's rate block over the point's denominator: one
    stationary_block per player, uniform where the block is all zero."""
    return [
        stationary_block(block, denominator) if any(map(any, block))
        else (len(block), (1,) * len(block))
        for block in rates
    ]


def _stationary_x(stationary: Sequence[Mix]) -> ProductDistribution:
    """The stationary product as Fractions, each player's W_p / T_p: the
    distribution whose pairs() are the stationary pairs."""
    return ProductDistribution(tuple(
        tuple(Fraction(w, total) for w in weights) for total, weights in stationary))


def _checked_point(game: Game, y: DualPoint) -> IntegerPoint:
    point = integer_point(y)
    check_dual_vector(game, point.numerators)
    return point


# ---------- purification ----------


def _flows(rates: list[list[int]], outflows: list[int], mine: Sequence[int]) -> list[int]:
    """w_p at the player's weights: each action's outflow minus its inflow."""
    return [w * out - _inner(mine, column)
            for w, out, column in zip(mine, outflows, zip(*rates))]


def _unit_flows(rates: list[list[int]], outflows: list[int], action: int) -> list[int]:
    """w_p at the 0/1 point mass on action."""
    unit = [-r for r in rates[action]]
    unit[action] += outflows[action]
    return unit


def _branches(game: Game, player: int, own: list[int], held: list[Sequence[int]],
              flows: list[Sequence[int]], rates: list[list[int]], outflows: list[int],
              welfare: bool) -> tuple[list[int], list[int] | None]:
    """(h, k) of player against the others' held weights X_q:

        h(a) = C_p(a) out_p(a) - sum_i L y_{p,a,i} C_p(i)
               + sum_{q != p} sum_i w_q(i) M_qp[i][a],
        k(a) = C_p(a) + sum_{q != p} sum_i X_q(i) M_qp[i][a],

    with own = C_p = conditional_payoff_ints(player, held), M_qp the
    jacobian on held and w_q the flows given (all zero for a q whose flows
    are counted elsewhere). M_qp is fetched only for a q with nonzero flows,
    or for every q when welfare is asked for; k is None otherwise.
    """
    h = [c * out - _inner(row, own) for c, out, row in zip(own, outflows, rates)]
    k = list(own) if welfare else None
    for q, flow in enumerate(flows):
        if q == player or not (welfare or any(flow)):
            continue
        jacobian = game.conditional_payoff_jacobian(q, player, held)
        for w, mass, row in zip(flow, held[q], jacobian):
            if w:
                h = [ha + w * v for ha, v in zip(h, row)]
            if mass and welfare:
                k = [ka + mass * v for ka, v in zip(k, row)]
    return h, k


def _point_mass(m: int, action: int, mass: int = 1) -> tuple[int, ...]:
    return tuple(mass if a == action else 0 for a in range(m))


def _normal_form_steps(game, rates, outflows, mixes, profile, welfare):
    """Each step's (values, welfare) for a normal-form game. Its kernels are
    products over the other players, so each can keep its own scale: fixed
    players are held at 0/1 point masses and open ones at their own W_q, and
    step p scores over L prod_{q > p} T_q. V is linear in X_p, so h(a) is
    branch a's value itself. After yielding step p, reads the action picked
    for player p from profile[p]."""
    held = [weights for _, weights in mixes]
    flows = [(0,) * m for m in game.actions]
    for p, m in enumerate(game.actions):
        own = game.conditional_payoff_ints(p, held)
        yield _branches(game, p, own, held, flows, rates[p], outflows[p], welfare)
        held[p] = _point_mass(m, profile[p])
        flows[p] = _unit_flows(rates[p], outflows[p], profile[p])


def _polymatrix_steps(game, rates, outflows, mixes, profile, welfare):
    """Each step's (values, welfare) for a polymatrix game, whose kernels
    are sums over the other players, so every player is held over one
    scale: E_p = lcm_{q > p} T_q. Open players sit at W_q E_p / T_q, a
    fixed player q at E_p e_{s_q} and p at E_p e_a. Branch a, over L E_p, is

        E_p F + sum_{q > p} J_q . X_q + E_p J_p[a] + h(a),

    where the fixed players' unit flows f_r = w_r(e_{s_r}) enter through
    J_q = sum_{r < p} f_r M_rq and F = sum of f_r M_rt[.][s_t] over fixed
    r != t. A third running sum, G_p = sum_{t < p} M_pt[.][s_t], gives the
    fixed players' share of C_p. The open players' flows are zero and the
    fixed players' enter through these sums, so _branches gets zero flows."""
    n, matrices = game.players, game.blocks
    scales = [1] * n
    for p in range(n - 1, 0, -1):
        scales[p - 1] = math.lcm(scales[p], mixes[p][0])
    zeros = [(0,) * m for m in game.actions]
    # the docstring's J, G and F
    incoming = [[0] * m for m in game.actions]
    outgoing = [[0] * m for m in game.actions]
    fixed = 0
    for p, m in enumerate(game.actions):
        e = scales[p]
        # the fixed players' masses are read only by k
        held = ([_point_mass(game.actions[q], s, e) for q, s in enumerate(profile)]
                if welfare else zeros[:p])
        held += [zeros[p]] + [[w * (e // t) for w in weights] for t, weights in mixes[p + 1:]]
        own, base = [e * g for g in outgoing[p]], e * fixed
        for q in range(p + 1, n):
            base += _inner(incoming[q], held[q])
            own = [c + _inner(row, held[q]) for c, row in zip(own, matrices[p][q])]
        h, k = _branches(game, p, own, held, zeros, rates[p], outflows[p], welfare)
        yield [base + e * j + v for j, v in zip(incoming[p], h)], k
        a = profile[p]
        unit = _unit_flows(rates[p], outflows[p], a)
        fixed += incoming[p][a] + _inner(unit, outgoing[p])
        for q in range(p + 1, n):
            incoming[q] = [j + _inner(unit, column)
                           for j, column in zip(incoming[q], zip(*matrices[p][q]))]
            outgoing[q] = [g + row[a] for g, row in zip(outgoing[q], matrices[q][p])]


def _choose(tie_break: str, values: list[int], welfare: list[int] | None) -> int:
    """The action purify fixes, among the branches with nonnegative value."""
    kept = [a for a, v in enumerate(values) if v >= 0]
    if not kept:
        raise SolverError("no nonnegative branch while purifying; invariant broken")
    # max keeps the first of equal scores, so ties go to the lowest action
    if tie_break == "max-value":
        return max(kept, key=values.__getitem__)
    if tie_break == "welfare":
        return max(kept, key=welfare.__getitem__)
    return kept[0]


def purify(game: Game, y: DualPoint, tie_break: str = "first") -> PureProfile:
    """Round the stationary product of y >= 0 to a pure profile, conditioning
    player by player, so the y-weighted incentive value never goes negative.

    The rounding starts at the stationary product, whose value is exactly
    zero. The value at x is a convex combination, weighted by player p's mix,
    of the values after fixing p to each action; a nonnegative branch
    therefore always exists, and fixing players in ascending order keeps the
    invariant until the distribution is a point mass. tie_break picks among
    nonnegative branches: "first" takes the lowest action, "max-value" the
    branch with the largest value, "welfare" the branch with the largest
    total expected payoff.

    Every player keeps its own stationary weights W_q over T_q
    (_stationary_blocks), and a fixed player is a point mass, so step p
    scores its branches over the open players' denominators only: one
    integer value per branch, the exact value times a positive factor of
    that step (_normal_form_steps, _polymatrix_steps), and under "welfare",
    the only tie break that reads it, one integer welfare, the exact welfare
    times a positive factor of the step plus a term equal for every branch
    of it. Branches are compared only within a step, so the sign tests and
    the comparisons are exact and pick the same branches as the rational
    values would; scaling the integer point Y by a positive constant scales
    every branch too, so the choice does not depend on the denominator y
    comes with. Every player's flows must vanish exactly at its stationary
    weights. A y with a negative coordinate is refused; purified_separation
    answers such a point with a nonnegativity cut before it rounds.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie break {tie_break!r}")
    point = _checked_point(game, y)
    if any(v < 0 for v in point.numerators):
        raise ValueError("dual vector must be nonnegative")
    rates = _rate_blocks(game, point)
    stationary = _stationary_blocks(rates, point.denominator)
    outflows = [[sum(row) for row in block] for block in rates]
    if any(any(_flows(block, out, weights))
           for block, out, (_, weights) in zip(rates, outflows, stationary)):
        raise SolverError(_STATIONARY_FAILED)

    steps = _polymatrix_steps if game.family == "polymatrix" else _normal_form_steps
    profile: list[int] = []
    for values, welfare in steps(game, rates, outflows, stationary, profile,
                                 tie_break == "welfare"):
        profile.append(_choose(tie_break, values, welfare))
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
    column = profile_column(game, purify(game, point, tie_break))
    if column.dot(point.numerators) < 0:
        raise SolverError("purified profile fails its nonnegativity guarantee")
    return ProfileCut(column=column)


def product_separation(game: Game, y: DualPoint) -> Cut:
    """Cut from the stationary product itself, without purification."""
    point = _checked_point(game, y)
    negative = _negative_coordinate(game, point)
    if negative is not None:
        return negative
    stationary = tuple(_stationary_blocks(_rate_blocks(game, point), point.denominator))
    direction, unit = incentive_row_values(game, stationary)
    if _dot(direction, point.numerators) != 0:
        raise SolverError(_STATIONARY_FAILED)
    return ProductCut(stationary=stationary, direction=direction, unit=unit)
