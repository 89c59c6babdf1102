"""The benchmark's workloads: pinned games, presented afresh for every seed.

Each workload is a fixed list of games, named by the arguments of
`exactce.random_game` plus the solve configuration. The workload seed does not
change which games are solved. It draws a presentation of each game document:

* a constant added to every payoff of one player (normal form) or of one edge
  matrix (polymatrix). Every incentive row is a difference of two payoffs of
  the same player against the same opponents, so the constant cancels and the
  correlated-equilibrium program is unchanged;
* the order of the edges in a polymatrix document;
* the order in which the games are solved within a round.

The games themselves stay pinned because per-game solve times are heavy-tailed
(one polymatrix 4x3 game takes a quarter of the acceptance suite's time, and a
6x3 game takes 0.8 s at one seed and 45 s at another). A total over freshly
drawn games would swing by more than any useful bound from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

U_MAX = 10
OFFSET_MAX = 10

# The acceptance suite's family/size cycle (tests/helpers.py::suite_specs),
# copied so that a change to the tests cannot silently change the benchmark.
SUITE_COMBOS = [
    (family, players, actions)
    for family in ("nfg", "polymatrix")
    for players in (2, 3, 4)
    for actions in (2, 3)
]


def suite_game(index: int) -> tuple[str, int, int, int]:
    family, players, actions = SUITE_COMBOS[index % len(SUITE_COMBOS)]
    return family, players, actions, index


def product_caps(n_rows: int) -> tuple[int, int]:
    """Iteration cap and probe stride of acceptance criterion 10
    (tests/test_acceptance.py::_product_caps)."""
    if n_rows <= 12:
        return 60, 3
    if n_rows <= 20:
        return 48, 4
    if n_rows <= 30:
        return 32, 6
    return 24, 8


@dataclass(frozen=True)
class GameSpec:
    family: str
    players: int
    actions: int
    game_seed: int
    oracle: str = "purified"

    @property
    def label(self) -> str:
        return f"{self.family} {self.players}x{self.actions} seed {self.game_seed}"

    @property
    def n_rows(self) -> int:
        return self.players * self.actions * self.actions

    def config_kwargs(self) -> dict:
        if self.oracle == "product":
            iters, stride = product_caps(self.n_rows)
            return dict(oracle="product", max_iters=iters, probe_stride=stride,
                        precision_bits=96, seed=self.game_seed)
        return dict(seed=self.game_seed)


# suite: the acceptance suite without its sixteen 4-player 3-action games.
# Those games take 43 s of the suite's 51 s, more than a run can hold; the
# costliest of them (seed 95) is the first rung of the ladder.
SUITE = tuple(
    GameSpec(*suite_game(index))
    for index in range(100)
    if suite_game(index)[1:3] != (4, 3)
)

# ladder: polymatrix games of growing row count. 4x3 is seed 95, the game
# criterion 01 times; the other rungs take game seed 0, except 6x3, whose
# seed 0 alone takes 45 s, so seed 1 (17 s) is used.
LADDER = (
    GameSpec("polymatrix", 4, 3, 95),
    GameSpec("polymatrix", 5, 3, 0),
    GameSpec("polymatrix", 6, 3, 1),
    GameSpec("polymatrix", 8, 2, 0),
)

# product: two whole cycles of the suite (game seeds 66-89) under the product
# oracle with criterion 10's caps. The window holds two of the three suite
# games whose mixture reaches epsilon = 0 (66 and 88), so both the
# mixture_feasible hit and the min_violation_mixture fallback run.
PRODUCT = tuple(
    GameSpec(*suite_game(index), oracle="product") for index in range(66, 90)
)

WORKLOADS = {"suite": SUITE, "ladder": LADDER, "product": PRODUCT}


def present(document: dict, rng: random.Random) -> dict:
    """A copy of the document with seeded payoff offsets and edge order."""
    if document["type"] == "nfg":
        payoffs = []
        for table in document["payoffs"]:
            offset = rng.randint(0, OFFSET_MAX)
            payoffs.append([v + offset for v in table])
        return {**document, "payoffs": payoffs}
    edges = []
    for edge in document["edges"]:
        offset = rng.randint(0, OFFSET_MAX)
        matrix = [[v + offset for v in row] for row in edge["matrix"]]
        edges.append({**edge, "matrix": matrix})
    rng.shuffle(edges)
    return {**document, "edges": edges}


def documents(exactce, specs, seed: int) -> tuple[list[dict], list[int]]:
    """The presented game documents and the order to solve them in."""
    rng = random.Random(seed)
    docs = []
    for spec in specs:
        game = exactce.random_game(spec.family, spec.players, spec.actions,
                                   u_max=U_MAX, seed=spec.game_seed)
        docs.append(present(game.to_document(), rng))
    order = list(range(len(specs)))
    rng.shuffle(order)
    return docs, order
