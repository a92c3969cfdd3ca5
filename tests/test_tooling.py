"""The benchmark's own self-test runs against the current package, and the
package carries what it needs at run time."""

import importlib.resources
import re
import subprocess
import sys
from pathlib import Path

import masspcg._native as native

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


def test_every_exported_kernel_is_declared():
    # ctypes passes undeclared arguments as C ints: a kernel added to the
    # source without an entry in the declaration table must fail here, not
    # corrupt a solve at run time
    source = native.SOURCE.read_text()
    exported = {name: params for name, params in re.findall(r"^void (masspcg_\w+)\(([^)]*)\)", source, re.M)}
    assert exported, "no masspcg_* function found in the kernel source"
    assert set(exported) == set(native.SIGNATURES)
    for name, params in exported.items():
        assert len(params.split(",")) == len(native.SIGNATURES[name]), name
    assert not re.search(r"^(?!static|void masspcg_)\w[\w\s*]*\bmasspcg_\w+\(", source, re.M)
