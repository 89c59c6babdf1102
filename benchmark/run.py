"""Benchmark for exactce: solve one workload's games in a closed loop, check
every output independently, and print the metrics.

    python3 benchmark/run.py --workload suite --seed 1 --seconds 20 --trace 0

One process and one thread: each solve starts when the previous one has
returned. A run sets up several times, then solves whole rounds (every game
of the workload once, in a seeded order) until --seconds have passed, and
always at least one round. With --trace 1 the rounds alternate between
untraced and traced, at least one of each, and the per-layer metrics come
from the traced ones. Every solve is checked by checker.py, which reads the
game document and nothing of exactce, and every repeat of a game must return
the same certificate and iteration count. A solve that raises or fails a
check counts as failed. Times are in reference seconds: wall time scaled by
the machine speed sampled meanwhile (speed.py). The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checker
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# a solve this long (10 speed samples) is scaled by its own samples; a
# shorter one by those of its whole round
OWN_SPEED_S = 0.25


def import_exactce():
    """A fresh import of exactce (and of mpmath under it) from this checkout."""
    init = SRC / "exactce" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    for name in [n for n in sys.modules if n.split(".")[0] in ("exactce", "mpmath")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    exactce = importlib.import_module("exactce")
    if Path(exactce.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported exactce from {exactce.__file__}, not {init}")
    return exactce


@dataclass
class Bench:
    exactce: object
    specs: tuple
    documents: list
    order: list
    games: list
    configs: list
    load_s: float


def set_up(specs, seed: int, clock=time.perf_counter) -> Bench:
    """Import exactce, build and parse the game documents, warm up."""
    exactce = import_exactce()
    docs, order = workloads.documents(exactce, specs, seed)
    start = clock()
    games = [exactce.load_game(doc) for doc in docs]
    load_s = clock() - start
    configs = [exactce.SolveConfig(**spec.config_kwargs()) for spec in specs]
    # one solve of the smallest suite game under each configuration kind fills
    # mpmath's lazily computed constants at the working precisions in use
    tiny = exactce.random_game("nfg", 2, 2, u_max=workloads.U_MAX, seed=0)
    for oracle in sorted({spec.oracle for spec in specs}):
        warm = workloads.GameSpec("nfg", 2, 2, 0, oracle)
        exactce.compute_exact_ce(tiny, exactce.SolveConfig(**warm.config_kwargs()))
    return Bench(exactce, specs, docs, order, games, configs, load_s)


def certificate_of(report):
    """(atoms or mixture components as exact rationals, their bit count)."""
    if report.certificate is not None:
        atoms = tuple((tuple(s), p) for s, p in report.certificate.atoms)
        bits = sum(p.numerator.bit_length() + p.denominator.bit_length() for _, p in atoms)
        return atoms, bits
    components = tuple((w, d.strategies) for w, d in report.mixture.components)
    bits = sum(
        x.numerator.bit_length() + x.denominator.bit_length()
        for w, strategies in components
        for x in (w, *(p for strat in strategies for p in strat))
    )
    return components, bits


def check(spec, doc_game, report) -> list[str]:
    """Independent verdict on one report; an empty list means it passed."""
    if spec.oracle == "purified":
        if report.certificate is None:
            return ["purified solve returned no certificate"]
        atoms, _ = certificate_of(report)
        problems = checker.check_certificate(doc_game, atoms, report.exact_epsilon)
        if report.support != len(atoms) or not report.verified:
            problems.append("report support or verified flag disagrees with the certificate")
        return problems
    if report.mixture is None:
        return ["product solve returned no mixture"]
    components, _ = certificate_of(report)
    problems = checker.check_mixture(doc_game, components, report.exact_epsilon)
    if report.mixture.epsilon != report.exact_epsilon:
        problems.append("mixture epsilon differs from the report's epsilon")
    if report.verified != (report.exact_epsilon == 0) or report.support != len(components):
        problems.append("report support or verified flag disagrees with the mixture")
    return problems


@dataclass
class Round:
    traced: bool
    solve_s: list = field(default_factory=list)  # reference seconds, see speed.py
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    certificate_bits: int = 0
    support_atoms: int = 0
    iterations: int = 0
    nonneg_cuts: int = 0
    fresh_cuts: int = 0
    tracer: tracing.Tracer | None = None
    speed: float = 1.0  # over the whole round; scales short solves and layer times

    @property
    def total_s(self) -> float:
        return sum(self.solve_s)


def solve_round(bench: Bench, doc_games, fingerprints: dict, traced: bool,
                probe: speed.SpeedProbe, solve=None) -> Round:
    """Solve every game once, in the bench's order, and check each result.

    fingerprints maps a game index to the certificate and iteration count of
    its first solve in this run; a later solve that differs is a failure.
    """
    result = Round(traced=traced)
    walls, own_speeds = [], []
    round_mark = probe.mark()
    solve = solve or bench.exactce.compute_exact_ce
    if traced:
        result.tracer = tracing.Tracer(probe.clock)
        solve = result.tracer.span("solver.self", solve)
    with result.tracer.installed(bench.exactce) if traced else nullcontext():
        for index in bench.order:
            spec = bench.specs[index]
            result.attempted += 1
            mark = probe.mark()
            start = probe.clock()
            try:
                report = solve(bench.games[index], bench.configs[index])
                failure = None
            except Exception as exc:  # a solve that raises is a failed operation
                failure = exc
            wall = probe.clock() - start
            walls.append(wall)
            own_speeds.append(probe.speed(mark) if wall >= OWN_SPEED_S else None)
            if failure is not None:
                result.failed += 1
                print(f"FAILED {spec.label}: {type(failure).__name__}: {failure}", file=sys.stderr)
                continue
            problems = check(spec, doc_games[index], report)
            if not problems:
                certificate, bits = certificate_of(report)
                fingerprint = (report.iterations, certificate)
                if fingerprints.setdefault(index, fingerprint) != fingerprint:
                    problems.append("a repeat solve returned another certificate or iteration count")
            if problems:
                result.failed += 1
                result.wrong += 1
                print(f"WRONG {spec.label}: {'; '.join(problems)}", file=sys.stderr)
                continue
            entries = report.transcript.entries
            result.certificate_bits += bits
            result.support_atoms += report.support
            result.iterations += len(entries)
            result.nonneg_cuts += sum(1 for e in entries if e.cut.kind == "nonneg")
            result.fresh_cuts += len(report.transcript.roster)
    result.speed = probe.speed(round_mark)
    result.wall_s = sum(walls)
    result.solve_s = [w * (s or result.speed) for w, s in zip(walls, own_speeds)]
    return result


def end_to_end(setups, rounds) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "total_s": (median([r.total_s for r in rounds]), "s"),
        "solve_s_p50": (median([t for r in rounds for t in r.solve_s]), "s"),
        "certificate_bits": (median([r.certificate_bits for r in rounds]), "bits"),
        "support_atoms": (median([r.support_atoms for r in rounds]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# traced layers (other than the root), and whether their call count is reported
TIMED_LAYERS = {
    "exact_lp.probe": True,
    "exact_lp.mixture": True,
    "ellipsoid.loop": False,
    "ellipsoid.update": False,
    "ellipsoid.log_det": False,
    "ellipsoid.snapshot": False,
    "oracles.separation": True,
    "oracles.purify": False,
    "oracles.stationary": True,
    "incentives.row_values": True,
    "incentives.verify": False,
}


def per_layer(load_times, rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]

    def med(fn):
        return median([fn(r) for r in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "games.load_s": (median(load_times), "s"),
        "trace.solve_s": (med(lambda r: r.wall_s * r.speed), "s"),
        "trace.overhead_s": (
            med(lambda r: r.wall_s * r.speed) - median([r.wall_s * r.speed for r in plain]), "s"),
        "solver.self_s": (med(lambda r: r.tracer.self_s["solver.self"] * r.speed), "s"),
        "ellipsoid.iterations": (med(lambda r: r.iterations), "count"),
        "ellipsoid.nonneg_cuts": (med(lambda r: r.nonneg_cuts), "count"),
        "ellipsoid.fresh_cuts": (med(lambda r: r.fresh_cuts), "count"),
        "ellipsoid.fresh_ratio": (
            med(lambda r: ratio(r.fresh_cuts, r.iterations - r.nonneg_cuts)), "ratio"),
        "exact_lp.probe_columns": (med(lambda r: r.tracer.counts["exact_lp.probe_columns"]), "count"),
        "exact_lp.probe_hit_ratio": (
            med(lambda r: ratio(r.tracer.counts["exact_lp.probe_hits"],
                                r.tracer.calls["exact_lp.probe"])), "ratio"),
    }
    for layer, calls in TIMED_LAYERS.items():
        metrics[f"{layer}_s"] = (med(lambda r: r.tracer.self_s[layer] * r.speed), "s")
        if calls:
            metrics[f"{layer}_calls"] = (med(lambda r: r.tracer.calls[layer]), "count")
    return metrics


def run(specs, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure, and return the result object."""
    with speed.SpeedProbe() as probe:
        setups, load_times = [], []
        mark = probe.mark()
        for _ in range(setup_repeats):
            start = probe.clock()
            bench = set_up(specs, seed, probe.clock)
            setups.append(probe.clock() - start)
            load_times.append(bench.load_s)
        setup_speed = probe.speed(mark)
        digest = hashlib.sha256(json.dumps(bench.documents, sort_keys=True).encode()).hexdigest()
        print(f"{len(specs)} games, game documents sha256 {digest}")
        doc_games = [checker.DocumentGame(doc) for doc in bench.documents]

        rounds, fingerprints = [], {}
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
            traced = trace and len(rounds) % 2 == 1
            rounds.append(solve_round(bench, doc_games, fingerprints, traced, probe))
    print(f"{len(rounds)} rounds in {time.perf_counter() - start:.1f} s; per round, wall seconds "
          "of solving and machine speed: "
          + ", ".join(f"{r.wall_s:.2f} {r.speed:.3f}" for r in rounds))
    setups = [t * setup_speed for t in setups]
    load_times = [t * setup_speed for t in load_times]

    metrics = per_layer(load_times, rounds) if trace else end_to_end(setups, rounds)
    return {
        "correct": not any(r.wrong for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
