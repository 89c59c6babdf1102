"""Command line front end: solve, verify, gen, and bench subcommands.

main is the one exit: every error that ends a subcommand reaches it, and it
prints one `error:` line and returns 2. SolveConfig owns every solve
setting's default and check: a setting comes from its flag or that default
alone, and nothing outside the command line sets one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace

from .errors import CertificateError, SolverError
from .games import FAMILIES, Game, check_random_setting, load_game_file, random_game, rational_text
from .incentives import SparseCE, row_count, verify_ce
from .oracles import TIE_BREAKS
from .solver import (
    MODES,
    ORACLES,
    SolveConfig,
    SolveReport,
    check_row_count,
    compute_exact_ce,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2

BENCH_COLUMNS = [
    "family",
    "n",
    "actions",
    "u",
    "seed",
    "oracle",
    "tie_break",
    "iterations",
    "distinct_cuts",
    "support",
    "exact_epsilon",
    "wall_ms",
]


def bench_row(report: SolveReport, game: Game, seed: int) -> dict:
    """One CSV row; actions are joined with x so the cell stays atomic."""
    return {
        "family": game.family,
        "n": game.players,
        "actions": "x".join(str(m) for m in game.actions),
        "u": game.u_max,
        "seed": seed,
        "oracle": report.oracle,
        "tie_break": report.tie_break,
        "iterations": report.iterations,
        "distinct_cuts": report.distinct_cuts,
        "support": report.support,
        "exact_epsilon": str(report.exact_epsilon),
        "wall_ms": f"{report.wall_ms:.3f}",
    }


def write_bench_csv(stream, rows: list[dict]) -> None:
    writer = csv.DictWriter(stream, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def _write_text(path: str | None, text: str) -> None:
    """Write text, ending in one newline, to path, or to stdout for no path or -."""
    if not text.endswith("\n"):
        text += "\n"
    if not path or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _check_outputs(*paths: str | None) -> None:
    """Refuse, before any work is done, an output path that is a directory
    or in a missing one, and two outputs to one destination: the same file
    twice, or stdout (-) twice. None or an empty path is not written."""
    seen = set()
    for path in filter(None, paths):
        if path != "-":
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise ValueError(f"cannot write {path}: no directory {directory}")
        destination = "-" if path == "-" else os.path.realpath(path)
        if destination in seen:
            raise ValueError("cannot write two outputs to "
                             + ("stdout" if path == "-" else path))
        seen.add(destination)


def _config_from(args: argparse.Namespace, **fields) -> SolveConfig:
    """SolveConfig from the flags named after its fields and then fields,
    each checked by SolveConfig alone."""
    flags = {f.name: getattr(args, f.name)
             for f in dataclass_fields(SolveConfig) if f.name in args}
    return SolveConfig(**flags, **fields)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if args.ce_output and config.oracle != "purified":
        raise ValueError("--ce-output needs the purified oracle: "
                         f"the {config.oracle} oracle gives a mixture, not a certificate")
    # the report goes to stdout unless --output names a file
    _check_outputs(args.output or "-", args.ce_output, args.transcript)
    game = load_game_file(args.input)

    print(
        f"solving: family={game.family} players={game.players} "
        f"actions={list(game.actions)} rows={row_count(game)} "
        f"profiles={game.num_profiles}",
        file=sys.stderr,
    )
    try:
        report = compute_exact_ce(game, config)
    except SolverError as exc:
        # the failed run's cut log is still written; main reports the error
        if args.transcript and exc.transcript is not None:
            _write_text(args.transcript, exc.transcript.to_jsonl())
            print(f"transcript written to {args.transcript}", file=sys.stderr)
        raise

    print(
        f"done: iterations={report.iterations} distinct_cuts={report.distinct_cuts} "
        f"support={report.support} epsilon={rational_text(report.exact_epsilon)} "
        f"verified={report.verified} wall_ms={report.wall_ms:.1f}",
        file=sys.stderr,
    )
    _write_text(args.output, json.dumps(report.to_json(), indent=2))
    if args.ce_output:
        _write_text(args.ce_output, json.dumps(report.certificate.to_json(), indent=2))
    if args.transcript:
        _write_text(args.transcript, report.transcript.to_jsonl())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    game = load_game_file(args.input)
    with open(args.ce, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except RecursionError as exc:
            raise CertificateError("certificate is nested too deeply to decode") from exc
    ce = SparseCE.from_json(document)
    ce.check_profiles(game)

    problems = ce.distribution_problems()
    if problems:
        for problem in problems:
            print(f"not a distribution: {problem}", file=sys.stderr)
        return EXIT_VERIFY_FAILED

    result = verify_ce(game, ce)
    worst = rational_text(result.worst_value)
    if result.verdict:
        print(
            f"exact correlated equilibrium: support={ce.support} "
            f"worst_row={list(result.worst_row)} worst_value={worst}",
            file=sys.stderr,
        )
        return EXIT_OK
    print(f"violated: row={list(result.worst_row)} value={worst}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _cmd_gen(args: argparse.Namespace) -> int:
    game = random_game(args.family, args.players, args.actions,
                       u_max=args.umax, seed=args.seed)
    _write_text(args.output, json.dumps(game.to_document(), indent=2))
    return EXIT_OK


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        players, _, actions = chunk.strip().partition("x")
        sizes.append((int(players), int(actions)))
    return sizes


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        seeds = list(range(int(lo), int(hi)))
        if not seeds:
            raise ValueError(f"empty seed range {text!r}")
        return seeds
    return [int(chunk) for chunk in text.split(",")]


def _bench_configs(args: argparse.Namespace) -> list[SolveConfig]:
    """One SolveConfig per distinct (oracle, tie break), in the order given.

    SolveConfig checks every name given, although only the purified oracle
    reads a tie break: any other oracle runs once, at "first".
    """
    configs: list[SolveConfig] = []
    for oracle in args.oracles.split(","):
        for tie_break in args.tie_breaks.split(","):
            config = _config_from(args, oracle=oracle.strip(), tie_break=tie_break.strip())
            if config.oracle != "purified":
                config = replace(config, tie_break="first")
            if config not in configs:
                configs.append(config)
    return configs


def _cmd_bench(args: argparse.Namespace) -> int:
    families = (FAMILIES if args.family == "both"
                else [f.strip() for f in args.family.split(",")])
    try:
        sizes = _parse_sizes(args.sizes)
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        raise ValueError(f"bad --sizes or --seeds: {exc}") from exc
    configs = _bench_configs(args)
    for family in families:
        for players, actions in sizes:
            counts = check_random_setting(family, players, actions, args.umax)
            # gen writes such games; only a solve refuses them
            check_row_count(sum(m * m for m in counts))
    _check_outputs(args.csv)

    rows = []
    failed = 0
    for family in families:
        for players, actions in sizes:
            for seed in seeds:
                game = random_game(family, players, actions, u_max=args.umax, seed=seed)
                for config in configs:
                    try:
                        report = compute_exact_ce(game, replace(config, seed=seed))
                        rows.append(bench_row(report, game, seed))
                    except (SolverError, ValueError) as exc:
                        # keep sweeping; the failure still sets the exit code
                        failed += 1
                        print(
                            f"error: family={family} "
                            f"players={players} actions={actions} seed={seed} "
                            f"oracle={config.oracle}: {exc}",
                            file=sys.stderr,
                        )
                        continue
                    print(
                        f"bench: {family} n={players} a={actions} "
                        f"seed={seed} oracle={config.oracle} "
                        f"iters={report.iterations} eps={rational_text(report.exact_epsilon)} "
                        f"wall={report.wall_ms:.1f}ms",
                        file=sys.stderr,
                    )

    if args.csv and args.csv != "-":
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            write_bench_csv(handle, rows)
    else:
        write_bench_csv(sys.stdout, rows)
    return EXIT_ERROR if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactce",
        description="Exact rational correlated equilibria for structured games.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    defaults = SolveConfig()
    # the settings solve and bench share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--precision", dest="precision_bits", type=int,
                     default=defaults.precision_bits, metavar="BITS",
                     help="working precision in bits, default %(default)s")
    run.add_argument("--max-iters", type=int, default=defaults.max_iters,
                     help="iteration cap, default %(default)s; theoretical mode "
                          "ignores it and stops by its certified iteration bound")
    run.add_argument("--probe-stride", type=int, default=defaults.probe_stride)

    solve = subs.add_parser("solve", parents=[run],
                            help="solve a game file and emit a JSON report")
    solve.add_argument("--input", required=True, help="path to a game JSON document")
    solve.add_argument("--mode", choices=MODES, default=defaults.mode)
    solve.add_argument("--oracle", choices=ORACLES, default=defaults.oracle)
    solve.add_argument("--tie-break", choices=TIE_BREAKS, default=defaults.tie_break)
    solve.add_argument("--finish-with-colgen", action="store_true",
                       help="on iteration cap, finish by pricing profiles on the "
                            "collected columns (purified oracle only)")
    solve.add_argument("--output", "-o", default=None, help="report path, - for stdout")
    solve.add_argument("--ce-output", default=None,
                       help="also write the bare certificate JSON here")
    solve.add_argument("--transcript", default=None, help="write the cut log as JSONL")
    solve.set_defaults(func=_cmd_solve)

    verify = subs.add_parser("verify", help="check a certificate against a game")
    verify.add_argument("--input", required=True, help="path to a game JSON document")
    verify.add_argument("--ce", required=True, help="path to a certificate JSON document")
    verify.set_defaults(func=_cmd_verify)

    gen = subs.add_parser("gen", help="generate a seeded random game document")
    gen.add_argument("--family", choices=FAMILIES, default="nfg")
    gen.add_argument("--players", type=int, default=2)
    gen.add_argument("--actions", type=int, default=2)
    gen.add_argument("--umax", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", default=None)
    gen.set_defaults(func=_cmd_gen)

    bench = subs.add_parser("bench", parents=[run], help="run a sweep and emit CSV timings")
    bench.add_argument("--family", default="both",
                       help="nfg, polymatrix, both, or a comma list")
    bench.add_argument("--sizes", default="2x2,3x2",
                       help="comma list of PLAYERSxACTIONS")
    bench.add_argument("--seeds", default="0:3", help="LO:HI range or comma list")
    bench.add_argument("--oracles", default="purified", help="comma list")
    bench.add_argument("--tie-breaks", default="first", help="comma list")
    bench.add_argument("--umax", type=int, default=10)
    bench.add_argument("--csv", default=None, help="CSV path, - for stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, SolverError) as exc:
        # a refused setting, an unusable input or an unwritable path: the
        # decode, format and digit-limit errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
