"""The helper scripts under scripts/."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import exactce

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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
