"""Incentive-constraint rows and exact certificate checking.

A game with action counts (m_0, ..., m_{n-1}) has one incentive row per
(player, recommended action, deviation action) triple, ordered player-major
and then row-major over the action pair. Rows with equal recommended and
deviation actions are identically zero but keep their slot, so every row
vector has fixed length N = sum(m_p * m_p).

The row value at a pure profile s is the payoff loss of the deviation:
u_p(s) - u_p(deviation, rest of s) when s recommends the row's action to p,
and zero otherwise. A distribution over profiles is a correlated equilibrium
exactly when every row has nonnegative expectation under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Sequence

from .errors import CertificateError, CertificateMismatchError
from .games import Game, Mix, PureProfile, is_int, rational_from_text, rational_text


class RowIndex(NamedTuple):
    player: int
    action: int
    deviation: int


def row_count(game: Game) -> int:
    return sum(m * m for m in game.actions)


def row_offsets(game: Game) -> tuple[int, ...]:
    offsets = []
    total = 0
    for m in game.actions:
        offsets.append(total)
        total += m * m
    return tuple(offsets)


def row_at(game: Game, position: int) -> RowIndex:
    if not 0 <= position < row_count(game):
        raise ValueError(f"row position {position} out of range")
    for p, m in enumerate(game.actions):
        if position < m * m:
            return RowIndex(p, position // m, position % m)
        position -= m * m
    raise AssertionError("unreachable")


def check_dual_vector(game: Game, y: Sequence[Fraction]) -> None:
    if len(y) != row_count(game):
        raise ValueError(f"dual vector has length {len(y)}, expected {row_count(game)}")


# ---------- columns ----------


@dataclass(frozen=True)
class IncentiveColumn:
    """Sparse column of the incentive system at one pure profile.

    entries hold (flat position, value) for the nonzero rows only; all of
    them sit at rows whose recommended action matches the profile (row_at
    reads a position's row).
    """

    profile: PureProfile
    n_rows: int
    entries: tuple[tuple[int, int], ...]

    def dense(self) -> list[int]:
        out = [0] * self.n_rows
        for pos, value in self.entries:
            out[pos] = value
        return out

    def dot(self, y: Sequence[Rational]) -> Rational:
        return sum(y[pos] * value for pos, value in self.entries)


def profile_column(game: Game, profile: Sequence[int]) -> IncentiveColumn:
    """Column at a profile, from one lookup per player and deviation.

    game.deviation_payoffs gives player p's payoff from every own action
    against the rest of s, which is each deviation's payoff.
    """
    s = game.check_profile(profile)
    offsets = row_offsets(game)
    entries = []
    for p, (m, a) in enumerate(zip(game.actions, s)):
        payoffs = game.deviation_payoffs(p, s)
        start, base = offsets[p] + a * m, payoffs[a]
        for j, deviation in enumerate(payoffs):
            if deviation != base:
                entries.append((start + j, base - deviation))
    return IncentiveColumn(profile=s, n_rows=row_count(game), entries=tuple(entries))


class RowValues(NamedTuple):
    """An exact rational vector as unit * direction.

    direction holds coprime integers and unit is a positive Fraction, so the
    split is unique. The zero vector is the zero direction with unit 1.
    """

    direction: tuple[int, ...]
    unit: Fraction


def incentive_row_values(game: Game, pairs: Sequence[Mix]) -> RowValues:
    """Expected value of every incentive row when play follows the product
    whose per-player (T_p, W_p) are pairs, each reduced and summing to T_p as
    stationary_block builds them; they are not checked again here.

    Row (p, i, j) gets x_p(i) times the gap between p's conditional expected
    payoff from playing i and from playing j, everyone else drawn from x.
    The game picks the integer weights X and the scale S
    (Game.kernel_weights) such that, with K_p the integer kernel
    conditional_payoff_ints(p, X), every row is X_p(i) (K_p(i) - K_p(j))
    over S: normal form keeps each player's own W_p, over prod_p T_p, and
    polymatrix brings every player over D = lcm_p T_p, over D^2. The vector
    is returned split once into its coprime direction and unit, which are
    unique, so they do not depend on S.
    """
    weights, scale = game.kernel_weights(pairs)
    out = [0] * row_count(game)
    offsets = row_offsets(game)
    for p, m in enumerate(game.actions):
        conditional = game.conditional_payoff_ints(p, weights)
        for i, weight in enumerate(weights[p]):
            if weight:
                start, own = offsets[p] + i * m, conditional[i]
                out[start:start + m] = [weight * (own - c) for c in conditional]
    common = math.gcd(*out) or scale  # the zero vector gets unit 1
    return RowValues(tuple(v // common for v in out), Fraction(common, scale))


# ---------- certificates ----------


@dataclass(frozen=True)
class SparseCE:
    """Correlated equilibrium candidate: finitely many weighted pure profiles."""

    atoms: tuple[tuple[PureProfile, Fraction], ...]

    def __post_init__(self):

        object.__setattr__(
            self, "atoms", tuple(sorted(self.atoms, key=lambda item: item[0]))
        )

    @property
    def support(self) -> int:
        return len(self.atoms)

    def distribution_problems(self) -> list[str]:
        problems = []
        seen = set()
        for s, prob in self.atoms:
            if s in seen:
                problems.append(f"profile {list(s)} appears more than once")
            seen.add(s)
            if prob < 0:
                problems.append(f"profile {list(s)} has negative probability {prob}")
        total = sum((prob for _, prob in self.atoms), Fraction(0))
        if total != 1:
            problems.append(f"probabilities sum to {rational_text(total)}, not 1")
        return problems

    def check_profiles(self, game: Game) -> None:
        for s, _ in self.atoms:
            try:
                game.check_profile(s)
            except ValueError as exc:
                raise CertificateMismatchError(str(exc)) from exc

    def max_probability_bits(self) -> int:
        """Bits needed for the widest atom, numerator plus denominator."""
        return max(
            (prob.numerator.bit_length() + prob.denominator.bit_length() for _, prob in self.atoms),
            default=0,
        )

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"profile": list(s), "prob": str(prob)} for s, prob in self.atoms
            ]
        }

    @classmethod
    def from_json(cls, document: dict) -> "SparseCE":
        if not isinstance(document, dict) or not isinstance(document.get("atoms"), list):
            raise CertificateError("certificate must be an object with an 'atoms' list")
        atoms = []
        for k, atom in enumerate(document["atoms"]):
            if not isinstance(atom, dict):
                raise CertificateError(f"atom {k}: must be an object")
            profile = atom.get("profile")
            if not isinstance(profile, list) or not all(map(is_int, profile)):
                raise CertificateError(f"atom {k}: profile must be a list of integers")
            raw = atom.get("prob")
            if isinstance(raw, bool) or not isinstance(raw, (int, str)):
                raise CertificateError(f"atom {k}: prob must be an integer or rational string")
            try:
                prob = rational_from_text(raw) if isinstance(raw, str) else Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise CertificateError(f"atom {k}: bad rational {raw!r}: {exc}") from exc
            atoms.append((tuple(profile), prob))
        return cls(atoms=tuple(atoms))


class VerifyResult(NamedTuple):
    verdict: bool
    worst_row: RowIndex
    worst_value: Fraction


def verify_ce(game: Game, ce: SparseCE) -> VerifyResult:
    """Exact check of every incentive row against a sparse certificate.

    The verdict is True iff the expectation of each row under ce is
    nonnegative. worst_row is the first row attaining the minimum expectation,
    which for a passing certificate is simply the least comfortable row.
    """
    ce.check_profiles(game)
    problems = ce.distribution_problems()
    if problems:
        raise CertificateError("; ".join(problems))
    totals = [Fraction(0)] * row_count(game)
    for s, prob in ce.atoms:
        for pos, value in profile_column(game, s).entries:
            totals[pos] += prob * value
    worst_pos = 0
    for pos in range(1, len(totals)):
        if totals[pos] < totals[worst_pos]:
            worst_pos = pos
    return VerifyResult(totals[worst_pos] >= 0, row_at(game, worst_pos), totals[worst_pos])
