"""``tests/simplex_ab.py``, which times two checkouts' reference simplex on
the LPs of a bench workload and checks that their solutions match."""

import subprocess
import sys
from pathlib import Path

from helpers import child_env


def test_simplex_ab_runs_head_against_head():
    # the A/B tool on one instance, one timed solve per LP and side: both
    # sides are this checkout, so every digest matches
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "simplex_ab.py"), "--base", str(root),
         "--workload", "rolling-simplex", "--seed", "3", "--instances", "1", "--repeats", "1"],
        capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("rolling-simplex seed 3: 1 instances, ")
    assert [line.split()[0] for line in lines[2:-1]] == ["under", "100-399", "400", "all"]
    assert lines[-1] == "every solution digest matched"


def test_simplex_ab_runs_a_highs_workload_on_highs():
    # a HiGHS workload's LPs are timed on HiGHS, where both sides are this
    # checkout and every digest matches
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "simplex_ab.py"), "--base", str(root),
         "--workload", "slad-highs", "--seed", "3", "--instances", "1", "--repeats", "1"],
        capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("slad-highs seed 3: 1 instances, ")
    assert " LPs on highs, " in lines[0]
    assert lines[-1] == "every solution digest matched"
