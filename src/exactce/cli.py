"""Command line front end: solve, verify, gen, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from .errors import GameFormatError, SolverError
from .games import Game, check_random_setting, load_game_file, random_game, rational_text
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

PRECISION_ENV = "EXACTCE_PRECISION"

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


def _precision(args: argparse.Namespace) -> int:
    """--precision, else $EXACTCE_PRECISION, else 256."""
    if args.precision is not None:
        return args.precision
    raw = os.environ.get(PRECISION_ENV, "256")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None


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
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _check_output_dirs(*paths: str | None) -> None:
    """Refuse an output path in a missing directory before any work is done."""
    for path in paths:
        if path is None or path == "-":
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {path}: no directory {directory}")


def _add_solve_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=MODES, default="practical")
    sub.add_argument("--oracle", choices=ORACLES, default="purified")
    sub.add_argument("--tie-break", choices=TIE_BREAKS, default="first")
    sub.add_argument("--precision", type=int, default=None, metavar="BITS",
                     help=f"working precision; default 256 or ${PRECISION_ENV}")
    sub.add_argument("--max-iters", type=int, default=2000)
    sub.add_argument("--probe-stride", type=int, default=1)
    sub.add_argument("--brute-force-fallback", action="store_true",
                     help="on iteration cap, fall back to the full LP for small games")


def _config_from(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(
        mode=args.mode,
        oracle=args.oracle,
        tie_break=args.tie_break,
        precision_bits=_precision(args),
        max_iters=args.max_iters,
        brute_force_fallback=args.brute_force_fallback,
        probe_stride=args.probe_stride,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = _config_from(args)
        _check_output_dirs(args.output, args.ce_output, args.transcript)
        game = load_game_file(args.input)
    except ValueError as exc:  # GameFormatError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(
        f"solving: family={game.family} players={game.players} "
        f"actions={list(game.actions)} rows={row_count(game)} "
        f"profiles={game.num_profiles}",
        file=sys.stderr,
    )
    try:
        report = compute_exact_ce(game, config)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.transcript and exc.transcript is not None:
            _write_text(args.transcript, exc.transcript.to_jsonl())
            print(f"transcript written to {args.transcript}", file=sys.stderr)
        return EXIT_ERROR

    print(
        f"done: iterations={report.iterations} distinct_cuts={report.distinct_cuts} "
        f"support={report.support} epsilon={report.exact_epsilon} "
        f"verified={report.verified} wall_ms={report.wall_ms:.1f}",
        file=sys.stderr,
    )
    _write_text(args.output, json.dumps(report.to_json(), indent=2))
    if args.ce_output and report.certificate is not None:
        _write_text(args.ce_output, json.dumps(report.certificate.to_json(), indent=2))
    if args.transcript:
        _write_text(args.transcript, report.transcript.to_jsonl())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        game = load_game_file(args.input)
        with open(args.ce, encoding="utf-8") as handle:
            document = json.load(handle)
        ce = SparseCE.from_json(document)
        ce.check_profiles(game)
    except ValueError as exc:  # the format errors and JSON past the digit limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

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
    try:
        game = random_game(args.family, args.players, args.actions,
                           u_max=args.umax, seed=args.seed)
    except (ValueError, GameFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
        return list(range(int(lo), int(hi)))
    return [int(chunk) for chunk in text.split(",")]


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.family == "both":
        families = ["nfg", "polymatrix"]
    else:
        families = [f.strip() for f in args.family.split(",")]
    try:
        sizes = _parse_sizes(args.sizes)
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"error: bad --sizes or --seeds: {exc}", file=sys.stderr)
        return EXIT_ERROR
    oracles = [o.strip() for o in args.oracles.split(",")]
    tie_breaks = [t.strip() for t in args.tie_breaks.split(",")]
    # each distinct (oracle, tie break) pair runs once, in the order given
    runs = list(dict.fromkeys(
        (oracle, tie_break if oracle == "purified" else "first")
        for oracle in oracles
        for tie_break in tie_breaks
    ))
    try:
        # checked here: a non-purified oracle runs with "first" and never sees them
        unknown = [t for t in tie_breaks if t not in TIE_BREAKS]
        if unknown:
            raise ValueError(f"unknown tie break {unknown[0]!r}")
        bits = _precision(args)
        configs = [
            SolveConfig(oracle=oracle, tie_break=tie_break, precision_bits=bits,
                        max_iters=args.max_iters, probe_stride=args.probe_stride)
            for oracle, tie_break in runs
        ]
        for family in families:
            for players, actions in sizes:
                counts = check_random_setting(family, players, actions, args.umax)
                # gen writes such games; only a solve refuses them
                check_row_count(sum(m * m for m in counts))
        _check_output_dirs(args.csv)
    except (ValueError, SolverError) as exc:  # GameFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    rows = []
    failed = 0
    for family in families:
        for players, actions in sizes:
            for seed in seeds:
                game = random_game(family, players, actions, u_max=args.umax, seed=seed)
                for config in configs:
                    try:
                        report = compute_exact_ce(game, replace(config, seed=seed))
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
                    rows.append(bench_row(report, game, seed))
                    print(
                        f"bench: {rows[-1]['family']} n={players} a={actions} "
                        f"seed={seed} oracle={config.oracle} "
                        f"iters={report.iterations} eps={report.exact_epsilon} "
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

    solve = subs.add_parser("solve", help="solve a game file and emit a JSON report")
    solve.add_argument("--input", required=True, help="path to a game JSON document")
    _add_solve_options(solve)
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
    gen.add_argument("--family", choices=["nfg", "polymatrix"], default="nfg")
    gen.add_argument("--players", type=int, default=2)
    gen.add_argument("--actions", type=int, default=2)
    gen.add_argument("--umax", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", default=None)
    gen.set_defaults(func=_cmd_gen)

    bench = subs.add_parser("bench", help="run a sweep and emit CSV timings")
    bench.add_argument("--family", default="both",
                       help="nfg, polymatrix, both, or a comma list")
    bench.add_argument("--sizes", default="2x2,3x2",
                       help="comma list of PLAYERSxACTIONS")
    bench.add_argument("--seeds", default="0:3", help="LO:HI range or comma list")
    bench.add_argument("--oracles", default="purified", help="comma list")
    bench.add_argument("--tie-breaks", default="first", help="comma list")
    bench.add_argument("--umax", type=int, default=10)
    bench.add_argument("--max-iters", type=int, default=2000)
    bench.add_argument("--probe-stride", type=int, default=1)
    bench.add_argument("--precision", type=int, default=None, metavar="BITS")
    bench.add_argument("--csv", default=None, help="CSV path, - for stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        # an input that cannot be read as UTF-8 text, or an output path
        # that cannot be written, wherever the subcommand opens it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
