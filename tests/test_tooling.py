"""The benchmark's own self-test runs against the current package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # fails here, not only in a benchmark run, when the benchmark calls a
    # name the package no longer has
    result = subprocess.run([sys.executable, "benchmarks/run.py", "--self-test"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
