"""End-to-end solves: configs, certificates, fallbacks, product mode."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import exactce
import helpers
from exactce import (
    SolveConfig,
    SolverError,
    SparseCE,
    brute_force_ce,
    compute_exact_ce,
    load_game,
    random_game,
    row_count,
    verify_ce,
)
from exactce import exact_lp, oracles, solver
from exactce.ellipsoid import MAX_PRECISION_BITS, certified_stop, iteration_bound
from exactce.solver import probability_bit_bound, support_bound

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

F = Fraction

# run in a child process with the benchmark directory as its argument
TRACE_ROUND_TRIP = textwrap.dedent("""
    import sys
    import time

    sys.path.insert(0, sys.argv[1])
    import run
    import tracing

    exactce = run.import_exactce()
    points = tracing.wrap_points(exactce)
    missing = [(owner, name) for owner, name, _, _ in points
               if not callable(owner.__dict__.get(name))]
    assert not missing, missing
    originals = [owner.__dict__[name] for owner, name, _, _ in points]
    with tracing.Tracer(time.perf_counter).installed(exactce):
        for (owner, name, _, _), original in zip(points, originals):
            assert owner.__dict__[name] is not original, name
    for (owner, name, _, _), original in zip(points, originals):
        assert owner.__dict__[name] is original, name
    print(len(points))
""")


def dominant_game():
    # action 0 strictly dominates for both players; the CE polytope is the
    # single point mass on (0, 0), confirmed below by the brute-force LP
    return load_game({
        "type": "nfg", "players": 2, "actions": [2, 2],
        "payoffs": [[1, 5, 0, 3], [1, 0, 5, 3]],
    })


class TestConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.mode == "practical" and cfg.oracle == "purified"
        assert cfg.tie_break == "first" and cfg.precision_bits == 256
        assert cfg.max_iters == 2000

    @pytest.mark.parametrize("kwargs", [
        {"mode": "magic"},
        {"oracle": "saddle"},
        {"tie_break": "random"},
        {"mode": "theoretical", "oracle": "product"},
        {"max_iters": 0},
        {"probe_stride": 0},
        {"precision_bits": 15},
        {"precision_bits": (1 << 16) + 1},
        {"precision_bits": 99999999999},
        {"precision_bits": 256.0},
        {"precision_bits": True},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"probe_stride": 1.5},
        {"probe_stride": True},
        {"probe_stride": "2"},
        {"seed": "x"},
        {"seed": 1.5},
        {"seed": True},
        {"finish_with_colgen": "no"},
        {"finish_with_colgen": 1},
        {"finish_with_colgen": None},
        {"oracle": "product", "finish_with_colgen": True},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"precision_bits": 8}, "at least 16"),
        ({"precision_bits": MAX_PRECISION_BITS + 1}, "at most"),
        ({"precision_bits": 256.0}, "must be an integer"),
        ({"precision_bits": True}, "must be an integer"),
        ({"max_iters": 2.5}, "must be an integer"),
    ])
    def test_rejection_says_why(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolveConfig(**kwargs)

    def test_accepts_the_bounds(self):
        # both precision bounds are inclusive, and one iteration is a cap
        assert SolveConfig(precision_bits=16).precision_bits == 16
        assert SolveConfig(precision_bits=MAX_PRECISION_BITS).precision_bits == 1 << 16
        assert SolveConfig(max_iters=1).max_iters == 1


class TestStandardLibraryOnly:
    def test_solves_without_mpmath(self):
        # a None entry in sys.modules makes every import of mpmath fail
        script = textwrap.dedent("""
            import sys
            sys.modules["mpmath"] = None
            from exactce import SolveConfig, compute_exact_ce, load_game, random_game
            game = random_game("nfg", 2, 2, u_max=10, seed=0)
            assert compute_exact_ce(game, SolveConfig()).verified
            two = load_game({"type": "nfg", "players": 2, "actions": [1, 1],
                             "payoffs": [[4], [9]]})
            assert compute_exact_ce(two, SolveConfig(mode="theoretical")).verified
            print("ok")
        """)
        package_root = str(Path(exactce.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestBruteForce:
    def test_unique_ce_of_dominant_game(self):
        ce = brute_force_ce(dominant_game())
        assert ce.atoms == (((0, 0), F(1)),)

    def test_matching_pennies_uniform_feasible(self):
        g = load_game({
            "type": "nfg", "players": 2, "actions": [2, 2],
            "payoffs": [[1, 0, 0, 1], [0, 1, 1, 0]],
        })
        # the uniform distribution clears every row, so the program is
        # feasible and whatever vertex comes back must verify
        uniform = SparseCE(atoms=tuple((s, F(1, 4)) for s in g.profiles()))
        assert verify_ce(g, uniform).verdict
        ce = brute_force_ce(g)
        assert verify_ce(g, ce).verdict

    def test_one_player_picks_better_action(self):
        g = load_game({"type": "nfg", "players": 1, "actions": [2],
                       "payoffs": [[5, 3]]})
        ce = brute_force_ce(g)
        assert ce.atoms == (((0,), F(1)),)

    def test_constant_game_any_vertex(self):
        g = load_game({"type": "nfg", "players": 2, "actions": [2, 2],
                       "payoffs": [[2, 2, 2, 2], [2, 2, 2, 2]]})
        ce = brute_force_ce(g)
        assert verify_ce(g, ce).verdict

    def test_profile_cap(self):
        g = random_game("nfg", 13, 2, u_max=1, seed=0)  # 8192 profiles
        with pytest.raises(SolverError, match="cap"):
            brute_force_ce(g)


class ColdVerdict:
    """A reference MinViolation that decides every probe with a cold mixture LP."""

    def __init__(self):
        self.directions, self.units = [], []

    @property
    def added(self):
        return len(self.directions)

    def add(self, direction, unit=1):
        self.directions.append(direction)
        self.units.append(unit)

    def feasible(self):
        return exact_lp.mixture_feasible(self.directions, self.units) is not None


class AlwaysFeasible:
    """A broken stand-in MinViolation that finds every probe feasible."""

    added = 0

    def add(self, direction, unit=1):
        pass

    def feasible(self):
        return True


def report_without_wall(report):
    """The report document without its wall time, and the transcript."""
    document = report.to_json()
    del document["wall_ms"]
    return document, report.transcript.to_jsonl()


class TestPurifiedSolve:
    def test_dominant_game_point_mass(self):
        for tie_break in ("first", "max-value", "welfare"):
            report = compute_exact_ce(
                dominant_game(), SolveConfig(tie_break=tie_break))
            assert report.certificate.atoms == (((0, 0), F(1)),)
            assert report.verified and report.exact_epsilon == 0

    def test_constant_game_first_cut(self):
        g = load_game({"type": "nfg", "players": 2, "actions": [2, 2],
                       "payoffs": [[7, 7, 7, 7], [7, 7, 7, 7]]})
        report = compute_exact_ce(g)
        assert report.iterations == 1
        assert report.certificate.support == 1

    def test_one_player_game(self):
        g = load_game({"type": "nfg", "players": 1, "actions": [2],
                       "payoffs": [[5, 3]]})
        report = compute_exact_ce(g)
        assert report.certificate.atoms == (((0,), F(1)),)

    def test_seeded_games_verify_exactly(self):
        for family in ("nfg", "polymatrix"):
            for seed in (0, 1, 2):
                g = random_game(family, 3, 2, u_max=10, seed=seed)
                report = compute_exact_ce(g)
                assert report.verified
                assert verify_ce(g, report.certificate).verdict
                assert report.certificate.support <= support_bound(g)
                assert report.exact_epsilon == 0
                assert report.mixture is None

    def test_agreement_with_brute_force(self):
        g = random_game("polymatrix", 3, 2, u_max=10, seed=6)
        fast = compute_exact_ce(g).certificate
        slow = brute_force_ce(g)
        assert verify_ce(g, fast).verdict and verify_ce(g, slow).verdict

    def test_all_probabilities_rational(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        report = compute_exact_ce(g)
        assert all(isinstance(p, F) for _, p in report.certificate.atoms)
        assert report.certificate.max_probability_bits() <= probability_bit_bound(g)

    def test_certificate_round_trips(self):
        g = random_game("nfg", 3, 3, u_max=10, seed=9)
        ce = compute_exact_ce(g).certificate
        assert SparseCE.from_json(ce.to_json()) == ce

    def test_iteration_cap_raises_with_transcript(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)  # needs several cuts
        with pytest.raises(SolverError) as info:
            compute_exact_ce(g, SolveConfig(max_iters=2))
        assert info.value.transcript is not None
        assert len(info.value.transcript.entries) == 2

    def test_capped_solve_numbers_its_transcript_lines(self):
        # a failed solve's transcript is numbered like a finished one's
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        with pytest.raises(SolverError, match="iteration cap 6") as info:
            compute_exact_ce(g, SolveConfig(max_iters=6))
        lines = info.value.transcript.to_jsonl().splitlines()
        assert [json.loads(line)["iter"] for line in lines] == [1, 2, 3, 4, 5, 6]

    def test_probe_stride_still_finishes(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        a = compute_exact_ce(g, SolveConfig(probe_stride=3))
        assert a.verified
        assert verify_ce(g, a.certificate).verdict

    def test_theoretical_mode_one_action_games(self):
        # N <= 2 territory: every column is zero, so the first cut already
        # certifies dual infeasibility
        g = load_game({"type": "nfg", "players": 2, "actions": [1, 1],
                       "payoffs": [[4], [9]]})
        report = compute_exact_ce(g, SolveConfig(mode="theoretical"))
        assert report.certificate.atoms == (((0, 0), F(1)),)
        assert report.iterations == 1
        assert not report.transcript.capped

    def test_theoretical_mode_matches_practical(self):
        # the same loop with a floor the probe outruns: every suite game
        # below 4x3 gets practical mode's certificate, within the bound
        for family, players, actions, u_max, seed in helpers.suite_specs():
            if (players, actions) == (4, 3):
                continue
            g = random_game(family, players, actions, u_max=u_max, seed=seed)
            practical = compute_exact_ce(g, SolveConfig())
            theoretical = compute_exact_ce(g, SolveConfig(mode="theoretical"))
            assert theoretical.certificate == practical.certificate
            assert theoretical.iterations == practical.iterations
            assert theoretical.iterations <= iteration_bound(
                row_count(g), g.payoff_ceiling())

    @pytest.mark.parametrize("family, players, actions, u_max, seed", [
        ("nfg", 2, 2, 10, 0), ("nfg", 2, 3, 10, 1), ("nfg", 3, 2, 0, 2),
        ("nfg", 4, 2, 1, 3), ("polymatrix", 3, 3, 10, 4), ("polymatrix", 4, 3, 10, 95),
        ("polymatrix", 2, 1, 10, 5),
    ])
    def test_theoretical_params_match_the_certified_formula(self, family, players,
                                                             actions, u_max, seed):
        # bit for bit the floor the certified radius gives, moved down to 2**10
        g = random_game(family, players, actions, u_max=u_max, seed=seed)
        stop, cap = certified_stop(row_count(g), g.payoff_ceiling())
        floor, want_cap = helpers.reference_theoretical_params(g)
        assert (stop.hex(), cap) == (floor.hex(), want_cap)

    def test_theoretical_mode_ignores_max_iters(self):
        # the certified cap takes max_iters' place: a cap of 3 fails in
        # practical mode, and theoretical mode still gives its default answer
        g = random_game("polymatrix", 3, 3, u_max=10, seed=33)
        with pytest.raises(SolverError, match="iteration cap 3 "):
            compute_exact_ce(g, SolveConfig(max_iters=3))
        default = compute_exact_ce(g, SolveConfig(mode="theoretical"))
        report = compute_exact_ce(g, SolveConfig(mode="theoretical", max_iters=3))
        assert report.certificate == default.certificate
        assert report.iterations == default.iterations == 32

    def test_report_json_shape(self):
        g = random_game("nfg", 2, 2, u_max=10, seed=3)
        report = compute_exact_ce(g)
        doc = report.to_json()
        assert doc["status"] == "ok"
        assert doc["exact_epsilon"] == "0"
        assert doc["certificate"]["atoms"]
        assert doc["mixture"] is None
        assert set(doc["game"]) == {"family", "players", "actions", "u_max"}
        assert len(report.transcript.to_jsonl().splitlines()) == report.iterations

    def test_determinism_bit_identical(self):
        g = random_game("polymatrix", 3, 3, u_max=10, seed=12)
        a = compute_exact_ce(g)
        b = compute_exact_ce(g)
        assert a.certificate == b.certificate
        assert a.iterations == b.iterations
        assert a.transcript.to_jsonl() == b.transcript.to_jsonl()

    @pytest.mark.parametrize("family, players, actions, seed, config", [
        ("polymatrix", 4, 3, 95, SolveConfig()),
        ("polymatrix", 3, 3, 33, SolveConfig()),
        ("polymatrix", 3, 3, 33, SolveConfig(tie_break="max-value")),
        ("polymatrix", 3, 3, 33, SolveConfig(tie_break="welfare")),
        ("polymatrix", 3, 3, 33, SolveConfig(probe_stride=3)),
        # a stride-3 solve whose certificate needs columns of an earlier batch
        ("polymatrix", 3, 3, 3, SolveConfig(probe_stride=3)),
    ], ids=["4x3-95", "3x3-33", "3x3-33-max-value", "3x3-33-welfare", "3x3-33-stride-3",
            "3x3-3-stride-3"])
    def test_cold_lp_only_for_the_probe_that_succeeds(self, family, players, actions,
                                                      seed, config):
        # The incremental MinViolation alone decides each probe; the cold LP
        # runs once, after the run, and yields the certificate. A stand-in
        # that decides every probe with a cold LP gives the same certificate
        # and transcript.
        g = random_game(family, players, actions, u_max=10, seed=seed)
        cold = exactce.exact_lp.try_feasible_bfs
        with mock.patch.object(solver, "try_feasible_bfs", wraps=cold) as spy:
            report = compute_exact_ce(g, config)
        assert spy.call_count == 1
        with mock.patch.object(solver, "MinViolation", ColdVerdict):
            reference = compute_exact_ce(g, config)
        assert report.certificate == reference.certificate
        assert report.transcript.to_jsonl() == reference.transcript.to_jsonl()

    def test_feasible_verdict_without_certificate_raises(self):
        # seed 95's first profile column admits no distribution on its own
        g = random_game("polymatrix", 4, 3, u_max=10, seed=95)
        with mock.patch.object(solver, "MinViolation", AlwaysFeasible):
            with pytest.raises(SolverError, match="admit no distribution") as info:
                compute_exact_ce(g)
        assert len(info.value.transcript.roster) == 1  # the run ended at its first probe


def assert_certified(game, report):
    """The certificate of a solve passes every check the solver makes, and
    is a vertex over the columns the report counts."""
    assert report.verified and verify_ce(game, report.certificate).verdict
    assert report.support <= support_bound(game)
    assert report.certificate.max_probability_bits() <= probability_bit_bound(game)
    assert report.support <= report.distinct_cuts


class TestFinishWithColgen:
    """A capped purified run finished by pricing on its probe program."""

    def test_rescues_the_cap(self):
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        report = compute_exact_ce(g, SolveConfig(max_iters=2, finish_with_colgen=True))
        assert report.used_fallback
        assert_certified(g, report)

    @pytest.mark.parametrize("family", ["polymatrix", "nfg"])
    def test_past_the_brute_force_cap(self, family):
        # 2^13 profiles, more than the brute-force reference takes. The
        # rescue writes no transcript line: the report's transcript is the
        # one the failed run attaches, and iterations stays the cap, while
        # distinct_cuts counts the profiles priced after it too
        g = random_game(family, 13, 2, u_max=10, seed=0)
        assert g.num_profiles > solver.BRUTE_FORCE_PROFILE_CAP
        with pytest.raises(SolverError, match="iteration cap 10") as info:
            compute_exact_ce(g, SolveConfig(max_iters=10))
        report = compute_exact_ce(g, SolveConfig(max_iters=10, finish_with_colgen=True))
        assert report.used_fallback
        assert report.transcript.to_jsonl() == info.value.transcript.to_jsonl()
        assert report.iterations == 10
        assert report.distinct_cuts > len(report.transcript.roster)
        assert_certified(g, report)

    def test_probe_stride_with_a_cap(self):
        # the columns the stride left unprobed join the program first
        g = random_game("polymatrix", 4, 3, u_max=10, seed=95)
        config = SolveConfig(max_iters=50, probe_stride=3, finish_with_colgen=True)
        with mock.patch.object(solver.MinViolation, "dual",
                               autospec=True, side_effect=exact_lp.MinViolation.dual) as spy:
            report = compute_exact_ce(g, config)
        assert report.used_fallback and spy.call_count > 0
        assert len(report.transcript.roster) % 3
        assert_certified(g, report)

    def test_repeated_profile_raises(self, monkeypatch):
        # an oracle that answers the rescue with a profile already collected
        g = random_game("nfg", 4, 2, u_max=10, seed=7)
        cuts = []

        def repeating(game, y, tie_break):
            cuts.append(oracles.purified_separation(game, y, tie_break))
            if len(cuts) <= 2:  # the ellipsoid's two iterations
                return cuts[-1]
            assert len(cuts) < 10, "the rescue went on after a repeat"
            return next(cut for cut in cuts if isinstance(cut, oracles.ProfileCut))

        monkeypatch.setattr(solver, "purified_separation", repeating)
        with pytest.raises(SolverError, match="repeated profile"):
            compute_exact_ce(g, SolveConfig(max_iters=2, finish_with_colgen=True))

    @pytest.mark.parametrize("tie_break", oracles.TIE_BREAKS)
    def test_every_suite_game(self, tie_break):
        for family, players, actions, u_max, seed in helpers.suite_specs():
            g = random_game(family, players, actions, u_max=u_max, seed=seed)
            for cap in (2, 10, 50):
                config = SolveConfig(max_iters=cap, tie_break=tie_break,
                                     finish_with_colgen=True)
                report = compute_exact_ce(g, config)
                assert report.iterations <= cap
                assert_certified(g, report)


class TestRowCeiling:
    @pytest.mark.parametrize("actions", [(33,), (32, 1)], ids=["1089-rows", "1025-rows"])
    def test_refused_before_the_run(self, actions):
        g = random_game("nfg", len(actions), actions, u_max=10, seed=0)
        assert row_count(g) > solver.MAX_INCENTIVE_ROWS
        with mock.patch.object(solver, "run") as spy:
            with pytest.raises(SolverError, match="incentive rows exceed"):
                compute_exact_ce(g, SolveConfig(max_iters=1))
        assert spy.call_count == 0

    def test_boundary_runs(self):
        g = random_game("nfg", 1, 32, u_max=10, seed=0)
        assert row_count(g) == solver.MAX_INCENTIVE_ROWS == 1024
        with pytest.raises(SolverError, match="iteration cap 1"):
            compute_exact_ce(g, SolveConfig(max_iters=1))


class TestPublicSurface:
    def test_all_names(self):
        assert sorted(exactce.__all__) == sorted([
            "__version__",
            "CertificateError", "CertificateMismatchError", "GameFormatError",
            "PrecisionError", "SolverError",
            "Game", "SolveConfig", "SolveReport", "SparseCE", "VerifyResult",
            "brute_force_ce", "compute_exact_ce", "load_game", "load_game_file",
            "random_game", "row_count", "verify_ce",
        ])
        for name in exactce.__all__:
            assert hasattr(exactce, name)

    def test_traced_modules_are_attributes(self):
        for name in ("solver", "ellipsoid", "oracles"):
            assert getattr(exactce, name).__name__ == f"exactce.{name}"

    def test_traced_call_sites_resolve(self):
        # benchmark/run.py --trace wraps each of these where its caller looks
        # it up, so a rename must fail here rather than in the traced run:
        # after run.py's own fresh import of the checkout, every point must
        # resolve, and the tracer wraps each and puts back the original on
        # exit. A child process, so this session's modules stay.
        proc = subprocess.run([sys.executable, "-c", TRACE_ROUND_TRIP, str(BENCHMARK)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0


class TestProductSolve:
    def test_reports_exact_epsilon(self):
        g = random_game("nfg", 2, 2, u_max=10, seed=1)
        report = compute_exact_ce(
            g, SolveConfig(oracle="product", max_iters=40, precision_bits=96))
        assert report.certificate is None
        assert report.mixture is not None
        assert report.exact_epsilon >= 0
        assert isinstance(report.exact_epsilon, F)
        assert report.verified == (report.exact_epsilon == 0)
        weights = [w for w, _ in report.mixture.components]
        assert sum(weights) == 1 and all(w > 0 for w in weights)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_constant_game(self, stride):
        # every row value is zero, so the first cut has the zero direction;
        # stride 1 ends on the feasible probe, stride 2 on the zero normal
        # before any probe, with no row kept in the min-violation program
        g = load_game({"type": "nfg", "players": 2, "actions": [2, 2],
                       "payoffs": [[3, 3, 3, 3], [3, 3, 3, 3]]})
        report = compute_exact_ce(g, SolveConfig(oracle="product", probe_stride=stride))
        assert report.iterations == 1
        assert report.exact_epsilon == 0 and report.verified
        assert report.mixture.components == (
            (F(1), helpers.uniform_product(g.actions)),)

    def test_feasible_mixture_reaches_zero(self):
        # seed chosen so the mixture probe finds a feasible combination
        g = random_game("nfg", 3, 2, u_max=10, seed=3)
        report = compute_exact_ce(
            g, SolveConfig(oracle="product", max_iters=200, precision_bits=96))
        assert report.exact_epsilon == 0
        assert report.verified

    def test_epsilon_matches_mixture_rows(self):
        g = random_game("polymatrix", 2, 2, u_max=10, seed=5)
        report = compute_exact_ce(
            g, SolveConfig(oracle="product", max_iters=30, precision_bits=96))
        totals = None
        for weight, dist in report.mixture.components:
            values = [
                weight * v
                for v in helpers_incentive_values(g, dist)
            ]
            totals = values if totals is None else [
                a + b for a, b in zip(totals, values)]
        worst = min(totals)
        assert report.exact_epsilon == (-worst if worst < 0 else F(0))

    def test_mixture_json(self):
        g = random_game("nfg", 2, 2, u_max=10, seed=2)
        report = compute_exact_ce(
            g, SolveConfig(oracle="product", max_iters=20, precision_bits=96))
        doc = report.to_json()
        assert doc["certificate"] is None
        assert doc["mixture"]["epsilon"] == str(report.exact_epsilon)
        for item in doc["mixture"]["components"]:
            F(item["weight"])  # rational strings parse
            for block in item["strategies"]:
                assert sum(F(v) for v in block) == 1


    @pytest.mark.parametrize("family, players, actions, seed, max_iters, calls", [
        ("nfg", 3, 2, 3, 200, 1),  # reaches epsilon 0 on its last probe
        ("nfg", 2, 3, 1, 60, 0),  # every probe fails
    ], ids=["nfg-3x2-3", "nfg-2x3-1"])
    def test_cold_mixture_only_for_the_probe_that_succeeds(self, family, players, actions,
                                                           seed, max_iters, calls):
        # The incremental MinViolation alone decides each mixture probe; the
        # cold mixture LP runs once, after a feasible last probe, and its
        # weights are the mixture. A stand-in that decides every probe with a
        # cold LP gives the same report.
        g = random_game(family, players, actions, u_max=10, seed=seed)
        config = SolveConfig(oracle="product", max_iters=max_iters, precision_bits=96)
        cold = exactce.exact_lp.mixture_feasible
        with mock.patch.object(solver, "mixture_feasible", wraps=cold) as spy:
            report = compute_exact_ce(g, config)
        assert spy.call_count == calls
        assert report.verified == (calls == 1)
        with mock.patch.object(solver, "MinViolation", ColdVerdict):
            reference = compute_exact_ce(g, config)
        assert report_without_wall(report) == report_without_wall(reference)

    def test_feasible_verdict_without_mixture_raises(self):
        # both programs are exact, so a feasible verdict that the cold
        # mixture LP contradicts is a bug, not a failed probe
        g = random_game("nfg", 2, 3, u_max=10, seed=1)
        config = SolveConfig(oracle="product", max_iters=60, precision_bits=96)
        with mock.patch.object(solver, "MinViolation", AlwaysFeasible):
            with pytest.raises(SolverError, match="mixture LP did not") as info:
                compute_exact_ce(g, config)
        assert len(info.value.transcript.roster) == 1

    def test_mixture_lp_shortfall_is_checked(self):
        # the LP's t must equal the shortfall recomputed from its weights
        g = random_game("nfg", 2, 3, u_max=10, seed=1)
        config = SolveConfig(oracle="product", max_iters=48, probe_stride=4,
                             precision_bits=96)
        report = compute_exact_ce(g, config)
        assert report.exact_epsilon > 0

        def off(directions, units):
            t, alpha = exactce.exact_lp.min_violation_mixture(directions, units)
            return t + F(1, 2**100), alpha

        with mock.patch.object(solver, "min_violation_mixture", off):
            with pytest.raises(SolverError, match="shortfall"):
                compute_exact_ce(g, config)

    def test_fractions_only_for_the_reported_components(self):
        # the roster is keyed on the integer stationary pairs; a cut's x is
        # formed as Fractions only for a component of the mixture
        g = random_game("polymatrix", 2, 2, u_max=10, seed=66)
        config = SolveConfig(oracle="product", max_iters=60, probe_stride=3,
                             precision_bits=96)
        with mock.patch.object(oracles, "_stationary_x", wraps=oracles._stationary_x) as spy:
            report = compute_exact_ce(g, config)
        assert report.distinct_cuts > report.support
        assert spy.call_count <= report.support


def helpers_incentive_values(game, dist):
    return [
        helpers.enum_row_expectation(game, dist.strategies, row)
        for row in helpers.all_rows(game)
    ]


class TestBounds:
    def test_support_bound_formula(self):
        g = random_game("nfg", 3, 2, u_max=1, seed=0)
        assert support_bound(g) == 1 + 3 * 2 * 1
        g = random_game("nfg", 2, (2, 3), u_max=1, seed=0)
        assert support_bound(g) == 1 + 2 * 1 + 3 * 2

    def test_bit_bound_positive(self):
        g = random_game("nfg", 2, 2, u_max=0, seed=0)
        assert probability_bit_bound(g) >= 4 * 8**3
