"""Hash every pinned solver output, one line per solve, to check that a
change leaves reports and transcripts byte-identical.

    PYTHONPATH=src python3 scripts/output_hashes.py > hashes.txt
    PYTHONPATH=src python3 scripts/output_hashes.py product > product.txt

Run it on two checkouts and diff the files. Each line names the solve and
gives the sha256 of its JSON report (keys sorted, without the wall-clock
`wall_ms`) and of its transcript JSONL. The first word of each label names
its group, and the optional arguments pick groups; with none, all 471 solves
run. The groups are:

* `default`: the 100 acceptance-suite games under the default configuration;
* `product`: the same games under the product oracle with acceptance
  criterion 10's iteration caps and probe strides;
* `welfare` and `max-value`: the 84 suite games below 4 players x 3 actions
  under those tie breaks;
* `ladder`: the polymatrix ladder rungs 5x3, 6x3 and 8x2 of the benchmark
  (its 4x3 rung, seed 95, is a suite game);
* `rescue`: the suite games capped at 2 iterations and finished with
  colgen, which prices on the probe program past the cap (84 of them reach
  it).

A solve that raises prints its error message in place of the hashes, and
the script then exits 1 once every solve has run, so that a failure on both
checkouts does not diff as unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from exactce import SolveConfig, SolverError, compute_exact_ce, random_game, row_count  # noqa: E402


GROUPS = ("default", "product", "welfare", "max-value", "ladder", "rescue")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def solves():
    """(label, game, config) for every pinned solve, in a fixed order."""
    suite = [workloads.suite_game(index) for index in range(100)]
    for family, players, actions, seed in suite:
        game = random_game(family, players, actions, u_max=workloads.U_MAX, seed=seed)
        yield f"default {family} {players}x{actions} seed {seed}", game, SolveConfig(seed=seed)
    for family, players, actions, seed in suite:
        game = random_game(family, players, actions, u_max=workloads.U_MAX, seed=seed)
        iters, stride = workloads.product_caps(row_count(game))
        config = SolveConfig(oracle="product", max_iters=iters, probe_stride=stride,
                             precision_bits=96, seed=seed)
        yield f"product {family} {players}x{actions} seed {seed}", game, config
    for tie_break in ("welfare", "max-value"):
        for family, players, actions, seed in suite:
            if (players, actions) == (4, 3):
                continue
            game = random_game(family, players, actions, u_max=workloads.U_MAX, seed=seed)
            config = SolveConfig(tie_break=tie_break, seed=seed)
            yield f"{tie_break} {family} {players}x{actions} seed {seed}", game, config
    for spec in workloads.LADDER[1:]:
        game = random_game(spec.family, spec.players, spec.actions,
                           u_max=workloads.U_MAX, seed=spec.game_seed)
        yield f"ladder {spec.label}", game, SolveConfig(**spec.config_kwargs())
    for family, players, actions, seed in suite:
        game = random_game(family, players, actions, u_max=workloads.U_MAX, seed=seed)
        config = SolveConfig(max_iters=2, finish_with_colgen=True, seed=seed)
        yield f"rescue {family} {players}x{actions} seed {seed}", game, config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash the pinned solver outputs.")
    parser.add_argument("groups", nargs="*", metavar="group",
                        help=f"solve only these groups: {', '.join(GROUPS)} (default: all)")
    groups = set(parser.parse_args(argv).groups or GROUPS)
    unknown = sorted(groups.difference(GROUPS))
    if unknown:
        parser.error(f"unknown group {unknown[0]!r}; choose from {', '.join(GROUPS)}")
    failed = False
    for label, game, config in solves():
        if label.split(" ", 1)[0] not in groups:
            continue
        try:
            report = compute_exact_ce(game, config)
        except SolverError as exc:
            print(f"{label}: error {exc}", flush=True)
            failed = True
            continue
        document = report.to_json()
        del document["wall_ms"]
        report_hash = _sha(json.dumps(document, sort_keys=True))
        transcript_hash = _sha(report.transcript.to_jsonl())
        print(f"{label}: report {report_hash} transcript {transcript_hash}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
