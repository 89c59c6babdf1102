"""Independent check of solver outputs, computed from the game document alone.

Nothing here calls into exactce. Payoffs are read from the JSON game document
with this module's own indexing, and every incentive row is recounted in exact
rationals: row (p, a, b) of a distribution is the expected gain of player p
from playing a rather than b, over the profiles where p is told a.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class DocumentGame:
    """Payoff lookup straight from a game document."""

    def __init__(self, document: dict):
        self.actions = tuple(document["actions"])
        players = len(self.actions)
        if document["type"] == "nfg":
            tables = [[Fraction(v) for v in table] for table in document["payoffs"]]
            self._payoffs = {}
            for flat, profile in enumerate(product(*(range(m) for m in self.actions))):
                self._payoffs[profile] = tuple(tables[p][flat] for p in range(players))
        elif document["type"] == "polymatrix":
            blocks = {}
            for edge in document["edges"]:
                blocks[edge["p"], edge["q"]] = [[Fraction(v) for v in row] for row in edge["matrix"]]
            self._payoffs = {}
            for profile in product(*(range(m) for m in self.actions)):
                self._payoffs[profile] = tuple(
                    sum(
                        (blocks[p, q][profile[p]][profile[q]]
                         for q in range(players) if q != p and (p, q) in blocks),
                        Fraction(0),
                    )
                    for p in range(players)
                )
        else:
            raise ValueError(f"unknown game type {document['type']!r}")

    def gains(self, profile: tuple[int, ...]):
        """(player, deviation, gain) for every unilateral deviation at profile."""
        for p, m in enumerate(self.actions):
            own = self._payoffs[profile][p]
            for b in range(m):
                if b != profile[p]:
                    deviated = profile[:p] + (b,) + profile[p + 1:]
                    yield p, b, own - self._payoffs[deviated][p]

    def profiles(self):
        return self._payoffs.keys()

    def support_bound(self) -> int:
        return 1 + sum(m * (m - 1) for m in self.actions)


def _rows(game: DocumentGame) -> dict:
    return {
        (p, a, b): Fraction(0)
        for p, m in enumerate(game.actions)
        for a in range(m)
        for b in range(m)
        if a != b
    }


def check_certificate(game: DocumentGame, atoms, claimed_epsilon) -> list[str]:
    """Problems with a purified certificate [(profile, probability), ...]."""
    problems = []
    profiles = [tuple(s) for s, _ in atoms]
    if len(set(profiles)) != len(profiles):
        problems.append("a profile appears twice")
    for s in profiles:
        if s not in game.profiles():
            problems.append(f"profile {list(s)} is not a profile of the game")
    if problems:
        return problems
    if any(prob <= 0 for _, prob in atoms):
        problems.append("a probability is not positive")
    total = sum((prob for _, prob in atoms), Fraction(0))
    if total != 1:
        problems.append(f"probabilities sum to {total}")
    if len(atoms) > game.support_bound():
        problems.append(f"support {len(atoms)} exceeds {game.support_bound()}")
    rows = _rows(game)
    for s, prob in atoms:
        for p, b, gain in game.gains(tuple(s)):
            rows[p, s[p], b] += prob * gain
    worst = min(rows.values(), default=Fraction(0))
    if worst < 0:
        problems.append(f"an incentive row has value {worst}")
    if claimed_epsilon != 0:
        problems.append(f"claimed epsilon {claimed_epsilon}, expected 0")
    return problems


def check_mixture(game: DocumentGame, components, claimed_epsilon) -> list[str]:
    """Problems with a product mixture [(weight, strategies), ...]; epsilon,
    the largest shortfall of an incentive row, must equal the claim exactly."""
    problems = []
    if any(w < 0 for w, _ in components):
        problems.append("a mixture weight is negative")
    total = sum((w for w, _ in components), Fraction(0))
    if total != 1:
        problems.append(f"mixture weights sum to {total}")
    rows = _rows(game)
    for weight, strategies in components:
        if [len(x) for x in strategies] != list(game.actions):
            problems.append("a component does not match the action counts")
            continue
        if any(p < 0 for x in strategies for p in x) or any(sum(x) != 1 for x in strategies):
            problems.append("a component strategy is not a distribution")
            continue
        for s in game.profiles():
            prob = weight
            for player, action in enumerate(s):
                prob *= strategies[player][action]
                if not prob:
                    break
            if prob:
                for p, b, gain in game.gains(s):
                    rows[p, s[p], b] += prob * gain
    if problems:
        return problems
    epsilon = max(Fraction(0), -min(rows.values(), default=Fraction(0)))
    if epsilon != claimed_epsilon:
        problems.append(f"claimed epsilon {claimed_epsilon}, recomputed {epsilon}")
    return problems
