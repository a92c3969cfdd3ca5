"""The benchmark's own self-test runs against the current package, and the
package carries what it needs at run time."""

import importlib.resources
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


def test_stencil_source_ships_with_the_package():
    # the kernel is compiled from this file on first use, so an installed
    # package must carry it (pyproject.toml lists it as package data)
    assert (importlib.resources.files("masspcg") / "_stencils.c").is_file()
