"""Compact game representations with exact integer payoffs.

Two families are supported: full normal-form tables and polymatrix games,
where a player's payoff is the sum of bilinear interactions with every other
player. Rational input utilities are integerized at load time by a per-player
positive scale (clearing denominators), then a nonnegative shift of each table
or block. An incentive constraint is one player's payoff difference between
two of that player's actions, so the scale multiplies it by a positive number
and the shift cancels from it: the set of correlated equilibria is unchanged.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from operator import mul
from typing import Iterator, Sequence

from .errors import GameFormatError

PureProfile = tuple[int, ...]

FAMILIES = ("nfg", "polymatrix")

# The most payoffs a game may store: players * prod(m) entries of a
# normal-form table, or sum over ordered pairs p != q of m_p * m_q polymatrix
# block entries. Larger games are refused before anything is allocated.
MAX_STORED_PAYOFFS = 1 << 20


# ---------- mixed strategy profiles ----------


Mix = tuple[int, tuple[int, ...]]


def over_lcm(values: Sequence[Rational]) -> Mix:
    """(T, V): the lcm T of the values' denominators and the values times T."""
    lcm = math.lcm(*(v.denominator for v in values))
    return lcm, tuple(v.numerator * (lcm // v.denominator) for v in values)


@dataclass(frozen=True)
class ProductDistribution:
    """One independent mixed strategy per player, all probabilities exact.

    Row values and purify read the integer form (T_p, W_p) per player that
    oracles.stationary_block builds, not this one."""

    strategies: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for p, strat in enumerate(self.strategies):
            if not strat:
                raise ValueError(f"player {p}: empty strategy")
            if any(prob < 0 for prob in strat):
                raise ValueError(f"player {p}: negative probability")
            if sum(strat) != 1:
                raise ValueError(f"player {p}: probabilities sum to {sum(strat)}, not 1")


# ---------- integerization ----------


def rational_from_text(text: str) -> Fraction:
    """Fraction(text), refused before it is built if it would be too large.

    Python converts an int to or from a decimal string only up to
    sys.get_int_max_str_digits() digits. Fraction's own digit strings hit
    that limit by themselves, but an exponent builds 10**e: "1e5000" could
    never be printed, and "1e10000000" takes seconds to build. So the
    mantissa digits and the exponent bound the numerator and denominator
    first, and a value either would have beyond the limit raises ValueError.
    """
    limit = sys.get_int_max_str_digits()
    mantissa, marker, exponent = text.lower().partition("e")
    if limit and marker:
        try:
            shift = int(exponent)
        except ValueError:
            shift = 0  # malformed: Fraction rejects it below
        fraction_digits = sum(c.isdigit() for c in mantissa.partition(".")[2])
        shift -= fraction_digits
        digits = sum(c.isdigit() for c in mantissa)
        if max(digits, digits + shift, 1 - shift) > limit:
            raise ValueError(f"more than {limit} decimal digits")
    return Fraction(text)


def rational_text(value: Fraction) -> str:
    """str(value), or its size in digits if Python would refuse to print it.

    A sum of printable rationals can have a denominator past the digit limit.
    """
    limit = sys.get_int_max_str_digits()
    digits = max(value.numerator.bit_length(), value.denominator.bit_length()) * math.log10(2)
    if limit and digits >= limit:
        return f"a rational of about {digits:.0f} decimal digits"
    return str(value)


def _check_printable(payoffs, where: str) -> None:
    """Refuse stored payoffs that Python could not print as decimal ints.

    Each rational string passes rational_from_text, but scaling a player's
    table by the lcm of its denominators and shifting it can still pass the
    limit: "1e3000" and "1e-3000" in one table store 10**6000. An int in a
    parsed document is stored as given, so a long one is refused only here.
    """
    limit = sys.get_int_max_str_digits()
    top = max(payoffs)
    # 2**(3 limit) < 10**limit, so only a long value pays for the power
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise GameFormatError(
            f"{where}: scaled payoffs have more than {limit} decimal digits"
        )


def _parse_utility(value, where: str, index: int) -> int | Fraction:
    """An int utility as that int, a rational string as a Fraction.

    where names the utility's row in an error, with {} for its index, so a
    valid utility costs no message.
    """
    if isinstance(value, bool):
        raise GameFormatError(f"{where.format(index)}: boolean is not a utility")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return rational_from_text(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(
                f"{where.format(index)}: bad rational string {value!r}: {exc}") from exc
    raise GameFormatError(
        f"{where.format(index)}: utilities must be integers or rational strings, "
        f"got {type(value).__name__}"
    )


def _integerize(
    blocks: Sequence[Sequence[Sequence[int | Fraction]]],
) -> list[tuple[tuple[int, ...], ...]]:
    """One player's utilities on integers, in whatever type each one holds.

    Every value is scaled by the lcm of all the denominators (an int's is 1),
    and each block is shifted by its negated minimum when that is positive.
    """
    scale = math.lcm(*{v.denominator for block in blocks for row in block for v in row})
    stored = []
    for block in blocks:
        scaled = [[v.numerator * (scale // v.denominator) for v in row] for row in block]
        low = min(min(row) for row in scaled)
        shift = -low if low < 0 else 0
        stored.append(tuple(tuple(v + shift for v in row) for row in scaled))
    return stored


def _nonnegative_ints(rows: Sequence[Sequence]) -> bool:
    """Whether every entry of the rows is an int and none is negative: one
    isinstance map over all of them, then one min, at C level. A bool counts
    as an int here, unlike is_int, on purpose: refusing it would cost a
    second pass over every stored payoff."""
    flat = itertools.chain.from_iterable
    return (all(map(isinstance, flat(rows), itertools.repeat(int)))
            and min(flat(rows), default=0) >= 0)


def is_int(value) -> bool:
    """An int and not a bool, although a bool is an int too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return is_int(value) and value >= 1


# ---------- game types ----------


@dataclass(frozen=True)
class Game:
    """Base type: immutable game with nonnegative integer payoffs."""

    actions: tuple[int, ...]

    family = "abstract"

    def __post_init__(self):
        if not self.actions:
            raise GameFormatError("a game needs at least one player")
        if not all(map(_is_count, self.actions)):
            raise GameFormatError("every player needs a positive action count")

    @property
    def players(self) -> int:
        return len(self.actions)

    @cached_property
    def num_profiles(self) -> int:
        return math.prod(self.actions)

    def profiles(self) -> Iterator[PureProfile]:
        """All pure profiles, player 0 varying slowest."""
        return itertools.product(*(range(m) for m in self.actions))

    def check_profile(self, profile: Sequence[int]) -> PureProfile:
        s = tuple(profile)
        if len(s) != self.players:
            raise ValueError(f"profile length {len(s)} != {self.players} players")
        for p, a in enumerate(s):
            if not is_int(a) or not 0 <= a < self.actions[p]:
                raise ValueError(f"player {p}: action {a!r} out of range")
        return s

    def payoff(self, player: int, profile: Sequence[int]) -> int:
        """player's payoff at a pure profile, checked first."""
        s = self.check_profile(profile)
        return self.deviation_payoffs(player, s)[s[player]]

    # subclass surface
    def deviation_payoffs(self, player: int, profile: PureProfile) -> list[int]:
        """player's payoff from each own action against the rest of a checked
        profile: conditional_payoff_ints on the profile's 0/1 point masses."""
        raise NotImplementedError

    def conditional_payoff_ints(
        self, player: int, weights: Sequence[Sequence[int]]
    ) -> list[int]:
        """Own-action payoffs against nonnegative integer weights on the other
        players' actions: entry a sums payoff(player, a, rest) times the
        product of the weights of rest, over every assignment rest of the
        others. With each other player q's weights summing to T_q, this is
        the conditional expected payoffs under x_q = weights_q / T_q times
        prod_{q != player} T_q for normal form; a polymatrix kernel is a sum
        of one block per other player, so it is T times them when every T_q
        is one T. Either way it is exact with no denominators. The player's
        own weights are not read."""
        raise NotImplementedError

    def kernel_weights(self, pairs: Sequence[Mix]) -> tuple[Sequence[Sequence[int]], int]:
        """(X, S) for checked pairs (T_p, W_p): integer weights X_p, a positive
        multiple of W_p, and one positive scale S such that the product's
        row (p, i, j) is X_p(i) (K_p(i) - K_p(j)) / S, with K_p the kernel
        conditional_payoff_ints(p, X)."""
        raise NotImplementedError

    def conditional_payoff_jacobian(
        self, player: int, other: int, weights: Sequence[Sequence[int]]
    ) -> Sequence[Sequence[int]]:
        """The derivative of conditional_payoff_ints(player, weights) with
        respect to the other player's weights: entry [i][a] sums player's
        payoff where player plays i, other plays a and the remaining players
        play rest, times the product of the weights of rest, over every
        assignment rest. The kernel is linear in each other player's weights,
        so moving that player from weights X to X' moves the kernel by exactly
        this matrix times X' - X. Neither player's own weights are read."""
        raise NotImplementedError

    @property
    def u_max(self) -> int:
        """Largest stored utility entry."""
        raise NotImplementedError

    def payoff_ceiling(self) -> int:
        """Exact maximum of any player's payoff over all pure profiles."""
        raise NotImplementedError

    def to_document(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class NormalFormGame(Game):
    """One flat payoff table per player, row-major with player 0 outermost."""

    tables: tuple[tuple[int, ...], ...] = ()

    family = "nfg"

    def __post_init__(self):
        super().__post_init__()
        if len(self.tables) != self.players:
            raise GameFormatError("one payoff table per player required")
        m = self.num_profiles
        for p, table in enumerate(self.tables):
            if len(table) != m:
                raise GameFormatError(f"player {p}: table has {len(table)} entries, expected {m}")
        if not _nonnegative_ints(self.tables):
            p = next(p for p, table in enumerate(self.tables) if not _nonnegative_ints((table,)))
            raise GameFormatError(f"player {p}: stored payoffs must be nonnegative integers")

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.players
        for p in range(self.players - 2, -1, -1):
            strides[p] = strides[p + 1] * self.actions[p + 1]
        return tuple(strides)

    def flat_index(self, profile: PureProfile) -> int:
        return sum(a * st for a, st in zip(profile, self._strides))

    def deviation_payoffs(self, player: int, profile: PureProfile) -> list[int]:
        """One table lookup per own action."""
        stride = self._strides[player]
        rest = self.flat_index(profile) - profile[player] * stride
        table = self.tables[player]
        return [table[rest + a * stride] for a in range(self.actions[player])]

    def _assignments(
        self, weights: Sequence[Sequence[int]], skip: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        """(flat index, weight product) of every assignment of the players
        not in skip, skipping zero weights, so point-mass-heavy weights cost
        far less than the table."""
        partial = [(0, 1)]
        for q, theirs in enumerate(weights):
            if q not in skip:
                stride = self._strides[q]
                partial = [
                    (idx + a * stride, w * wa)
                    for idx, w in partial
                    for a, wa in enumerate(theirs)
                    if wa
                ]
        return partial

    def conditional_payoff_ints(
        self, player: int, weights: Sequence[Sequence[int]]
    ) -> list[int]:
        """One sweep over the other players' assignments."""
        table = self.tables[player]
        partial = self._assignments(weights, (player,))
        own_stride = self._strides[player]
        return [
            sum(w * table[idx + a * own_stride] for idx, w in partial)
            for a in range(self.actions[player])
        ]

    def conditional_payoff_jacobian(
        self, player: int, other: int, weights: Sequence[Sequence[int]]
    ) -> list[list[int]]:
        """One sweep over the assignments of the players other than both."""
        if player == other:
            raise ValueError("the jacobian needs two distinct players")
        table = self.tables[player]
        partial = self._assignments(weights, (player, other))
        own_stride, other_stride = self._strides[player], self._strides[other]
        return [
            [
                sum(w * table[idx + i * own_stride + a * other_stride] for idx, w in partial)
                for a in range(self.actions[other])
            ]
            for i in range(self.actions[player])
        ]

    def kernel_weights(self, pairs: Sequence[Mix]) -> tuple[Sequence[Sequence[int]], int]:
        """Each player's own W_p, unscaled: K_p carries prod_{q != p} T_q, so
        every row is over S = prod_p T_p."""
        return [mix for _, mix in pairs], math.prod(total for total, _ in pairs)

    @cached_property
    def u_max(self) -> int:
        return max(max(t) for t in self.tables)

    def payoff_ceiling(self) -> int:
        return self.u_max

    def to_document(self) -> dict:
        return {
            "type": "nfg",
            "players": self.players,
            "actions": list(self.actions),
            "payoffs": [list(t) for t in self.tables],
        }


@dataclass(frozen=True)
class PolymatrixGame(Game):
    """Pairwise game: u_p(s) sums one bilinear block per other player.

    blocks[p][q] is an |A_p| x |A_q| integer matrix for p != q and None on the
    diagonal. Every ordered pair is present; absent interactions are zero
    matrices.
    """

    blocks: tuple[tuple[tuple[tuple[int, ...], ...] | None, ...], ...] = ()

    family = "polymatrix"

    def __post_init__(self):
        super().__post_init__()
        n = self.players
        if len(self.blocks) != n:
            raise GameFormatError("blocks must be an n x n grid")
        rows = []
        for p in range(n):
            if len(self.blocks[p]) != n:
                raise GameFormatError("blocks must be an n x n grid")
            for q in range(n):
                block = self.blocks[p][q]
                if p == q:
                    if block is not None:
                        raise GameFormatError("diagonal blocks must be None")
                    continue
                if block is None or len(block) != self.actions[p]:
                    raise GameFormatError(f"block ({p},{q}) must have {self.actions[p]} rows")
                for row in block:
                    if len(row) != self.actions[q]:
                        raise GameFormatError(
                            f"block ({p},{q}) rows must have {self.actions[q]} entries"
                        )
                rows += block
        if not _nonnegative_ints(rows):
            p, q = next((p, q) for p in range(n) for q in range(n)
                        if p != q and not _nonnegative_ints(self.blocks[p][q]))
            raise GameFormatError(f"block ({p},{q}): stored payoffs must be nonnegative integers")

    def deviation_payoffs(self, player: int, profile: PureProfile) -> list[int]:
        """One entry of each block per own action."""
        out = [0] * self.actions[player]
        for q, (block, theirs) in enumerate(zip(self.blocks[player], profile)):
            if q != player:
                out = [total + row[theirs] for total, row in zip(out, block)]
        return out

    def conditional_payoff_ints(
        self, player: int, weights: Sequence[Sequence[int]]
    ) -> list[int]:
        """Own-action payoffs straight off the pairwise blocks."""
        out = [0] * self.actions[player]
        for q, theirs in enumerate(weights):
            if q != player:
                for i, row in enumerate(self.blocks[player][q]):
                    out[i] += sum(map(mul, theirs, row))
        return out

    def conditional_payoff_jacobian(
        self, player: int, other: int, weights: Sequence[Sequence[int]]
    ) -> tuple[tuple[int, ...], ...]:
        """The pairwise block itself: the kernel is a sum of one block per
        other player, so no weights enter its derivative."""
        if player == other:
            raise ValueError("the jacobian needs two distinct players")
        return self.blocks[player][other]

    def kernel_weights(self, pairs: Sequence[Mix]) -> tuple[Sequence[Sequence[int]], int]:
        """Every player over D = lcm_p T_p, as X_p = D x_p: each block row is
        weighted by one other player's X_q, so K_p carries D and every row is
        over S = D^2."""
        d = math.lcm(*(total for total, _ in pairs))
        return [[w * (d // total) for w in mix] for total, mix in pairs], d * d

    @cached_property
    def u_max(self) -> int:
        best = 0
        for p in range(self.players):
            for q in range(self.players):
                if p != q:
                    best = max(best, max(max(row) for row in self.blocks[p][q]))
        return best

    def payoff_ceiling(self) -> int:
        # Coordinates of the other players are independent, so for a fixed own
        # action the profile maximum is the sum of per-block row maxima.
        best = 0
        for p in range(self.players):
            for own in range(self.actions[p]):
                total = 0
                for q in range(self.players):
                    if q != p:
                        total += max(self.blocks[p][q][own])
                best = max(best, total)
        return best

    def to_document(self) -> dict:
        edges = []
        for p in range(self.players):
            for q in range(self.players):
                if p != q:
                    edges.append(
                        {"p": p, "q": q, "matrix": [list(row) for row in self.blocks[p][q]]}
                    )
        return {
            "type": "polymatrix",
            "players": self.players,
            "actions": list(self.actions),
            "edges": edges,
        }


# ---------- loading ----------


def _size_error(family: str, players: int) -> GameFormatError:
    return GameFormatError(
        f"a {family} game of {players} players stores more than "
        f"{MAX_STORED_PAYOFFS} payoffs"
    )


def _check_size(family: str, actions: Sequence[int]) -> None:
    """Refuse a game that would store more than MAX_STORED_PAYOFFS payoffs."""
    if family == "nfg":
        stored = len(actions)
        for m in actions:
            stored *= m
            if stored > MAX_STORED_PAYOFFS:
                break
    else:
        stored = sum(actions) ** 2 - sum(m * m for m in actions)
    if stored > MAX_STORED_PAYOFFS:
        raise _size_error(family, len(actions))


def _check_header(doc: dict, family: str) -> tuple[int, ...]:
    players = doc.get("players")
    if not _is_count(players):
        raise GameFormatError("players must be a positive integer")
    actions = doc.get("actions")
    if not isinstance(actions, list) or len(actions) != players:
        raise GameFormatError("actions must list one entry per player")
    for p, m in enumerate(actions):
        if not _is_count(m):
            raise GameFormatError(f"player {p}: action count must be a positive integer")
    _check_size(family, actions)
    return tuple(actions)


def _load_nfg(doc: dict) -> NormalFormGame:
    actions = _check_header(doc, "nfg")
    payoffs = doc.get("payoffs")
    m = math.prod(actions)
    if not isinstance(payoffs, list) or len(payoffs) != len(actions):
        raise GameFormatError("payoffs must list one table per player")
    tables = []
    for p, raw in enumerate(payoffs):
        if not isinstance(raw, list) or len(raw) != m:
            raise GameFormatError(f"player {p}: payoff table must have exactly {m} entries")
        where = f"player {p} entry {{}}"
        values = [_parse_utility(v, where, k) for k, v in enumerate(raw)]
        ((table,),) = _integerize([[values]])
        _check_printable(table, f"player {p}")
        tables.append(table)
    return NormalFormGame(actions=actions, tables=tuple(tables))


def _load_polymatrix(doc: dict) -> PolymatrixGame:
    actions = _check_header(doc, "polymatrix")
    n = len(actions)
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise GameFormatError("edges must be a list")
    raw: dict[tuple[int, int], list[list[int | Fraction]]] = {}
    for k, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise GameFormatError(f"edge {k}: must be an object")
        p, q = edge.get("p"), edge.get("q")
        if not (is_int(p) and is_int(q) and 0 <= p < n and 0 <= q < n):
            raise GameFormatError(f"edge {k}: bad player pair ({p!r}, {q!r})")
        if p == q:
            raise GameFormatError(f"edge {k}: self edge on player {p}")
        if (p, q) in raw:
            raise GameFormatError(f"edge {k}: duplicate edge ({p}, {q})")
        matrix = edge.get("matrix")
        if not isinstance(matrix, list) or len(matrix) != actions[p]:
            raise GameFormatError(f"edge {k}: matrix must have {actions[p]} rows")
        parsed = []
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != actions[q]:
                raise GameFormatError(f"edge {k} row {i}: expected {actions[q]} entries")
            where = f"edge {k} entry ({i},{{}})"
            parsed.append([_parse_utility(v, where, j) for j, v in enumerate(row)])
        raw[(p, q)] = parsed

    blocks: list[list[tuple[tuple[int, ...], ...] | None]] = [[None] * n for _ in range(n)]
    for p in range(n):
        others = [q for q in range(n) if q != p]
        # an absent interaction is a zero matrix
        stored = _integerize(
            [raw.get((p, q), [[0] * actions[q]] * actions[p]) for q in others])
        for q, block in zip(others, stored):
            _check_printable([max(row) for row in block], f"player {p} block ({p},{q})")
            blocks[p][q] = block
    return PolymatrixGame(actions=actions, blocks=tuple(tuple(row) for row in blocks))


def load_game(document: dict | str) -> Game:
    """Build a Game from a parsed JSON document (or raw JSON text)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # an int literal past the digit limit too
            raise GameFormatError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise GameFormatError("not valid JSON: nested too deeply to decode") from exc
    if not isinstance(document, dict):
        raise GameFormatError("game document must be a JSON object")
    kind = document.get("type")
    if kind == "nfg":
        return _load_nfg(document)
    if kind == "polymatrix":
        return _load_polymatrix(document)
    raise GameFormatError(f"unknown game type {kind!r}")


def load_game_file(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_game(text)


# ---------- generation ----------


def check_random_setting(family: str, players: int, actions, u_max: int) -> tuple[int, ...]:
    """The action counts of random_game's setting, or GameFormatError.

    Nothing is allocated before the size check, so an oversize setting is
    refused at once.
    """
    if family not in FAMILIES:
        raise GameFormatError(f"unknown family {family!r}")
    if not _is_count(players):
        raise GameFormatError("players must be a positive integer")
    if players > MAX_STORED_PAYOFFS:
        # checked before counts is built: with two players or more, either
        # family stores at least one payoff per player
        raise _size_error(family, players)
    if isinstance(actions, int):
        counts = (actions,) * players
    else:
        counts = tuple(actions)
        if len(counts) != players:
            raise GameFormatError("actions must be an int or one count per player")
    if not all(map(_is_count, counts)):
        raise GameFormatError("action counts must be positive integers")
    if not is_int(u_max) or u_max < 0:
        raise GameFormatError("u_max must be a nonnegative integer")
    _check_size(family, counts)
    return counts


def random_game(family: str, players: int, actions, u_max: int, seed: int) -> Game:
    """Deterministic random game; every drawn utility is uniform on {0..u_max}.

    The draw order is fixed (players ascending, then entries row-major; for
    polymatrix, ordered pairs ascending), so a seed pins the game exactly.
    """
    counts = check_random_setting(family, players, actions, u_max)
    rng = random.Random(seed)
    if family == "nfg":
        m = math.prod(counts)
        tables = tuple(
            tuple(rng.randint(0, u_max) for _ in range(m)) for _ in range(players)
        )
        return NormalFormGame(actions=counts, tables=tables)
    blocks: list[list[tuple[tuple[int, ...], ...] | None]] = [
        [None] * players for _ in range(players)
    ]
    for p in range(players):
        for q in range(players):
            if p != q:
                blocks[p][q] = tuple(
                    tuple(rng.randint(0, u_max) for _ in range(counts[q]))
                    for _ in range(counts[p])
                )
    return PolymatrixGame(actions=counts, blocks=tuple(tuple(row) for row in blocks))
