"""The helper scripts under scripts/."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import exactce

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN_HASHES = Path(__file__).resolve().parent / "golden" / "output_hashes.txt"

# output_hashes.py on the ladder group, with every solve raising
FAILING_HASHES = textwrap.dedent("""
    import runpy
    import sys

    import exactce

    def fail(game, config):
        raise exactce.SolverError("stub failure")

    exactce.compute_exact_ce = fail
    sys.argv = [sys.argv[1], "ladder"]
    runpy.run_path(sys.argv[0], run_name="__main__")
""")


def test_output_hashes_exits_1_after_a_failed_solve():
    package_root = str(Path(exactce.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_HASHES, str(SCRIPTS / "output_hashes.py")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, lines  # the ladder's three rungs, all reported
    assert all(line.endswith(": error stub failure") for line in lines), lines


def test_output_hashes_match_golden():
    # every pinned report and transcript, byte for byte: a change that
    # alters any solver output shows here as a changed line
    package_root = str(Path(exactce.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "output_hashes.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    want = GOLDEN_HASHES.read_text().splitlines()
    got = proc.stdout.splitlines()
    assert len(got) == len(want) == 471
    # the label before the colon names the group and the solve
    changed = [w.split(":", 1)[0] for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} of {len(want)} lines changed: {', '.join(changed)}"
