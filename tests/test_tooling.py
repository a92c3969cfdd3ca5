"""The benchmark's own self-test runs against the current package, and the
package carries what it needs at run time."""

import ast
import ctypes
import importlib.resources
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import masspcg._native as native
import masspcg._sweeps as sweeps
from test_operators import single_target_source

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # fails here, not only in a benchmark run, when the benchmark calls a
    # name the package no longer has
    result = subprocess.run([sys.executable, "benchmarks/run.py", "--self-test"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("module", ["grid.py", "spectrum.py"])
def test_closed_form_layers_import_no_kernel_or_solver(module):
    # grid geometry and the closed-form spectra stand below the stencils and
    # the solver: they import neither, nor the kernel backends
    tree = ast.parse((ROOT / "src" / "masspcg" / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    leaves = {name.rsplit(".", 1)[-1] for name in imported}
    assert not leaves & {"operators", "solver", "_native", "_sweeps"}, module


def test_solver_allocates_through_operators():
    # operators owns where a vector the kernels write starts (on a page), so
    # the solver allocates none itself
    tree = ast.parse((ROOT / "src" / "masspcg" / "solver.py").read_text())
    allocators = {"empty", "zeros", "ones", "full", "empty_like", "zeros_like"}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"}
    assert not called & allocators


def test_stencil_source_ships_with_the_package():
    # the kernel is compiled from this file on first use, so an installed
    # package must carry it (pyproject.toml lists it as package data)
    assert (importlib.resources.files("masspcg") / "_stencils.c").is_file()


@pytest.mark.parametrize("variant", ["shipped", "without-clones"])
def test_kernel_source_builds_without_warnings(variant, tmp_path):
    # the kernel is built by whichever C compiler a host has, so it stays
    # warning-free standard C: a compiler without some GNU extension would
    # fail the build, and the numpy fallback would serve without a word. A
    # host without target_clones builds the source with KERNEL empty, which
    # the variant without the attribute stands for
    command = native.compiler()
    if command is None:
        pytest.skip("no C compiler on PATH")
    source = native.SOURCE
    if variant == "without-clones":
        source = tmp_path / "_stencils.c"
        source.write_text(single_target_source("default"))
    result = subprocess.run([*command, *native.CFLAGS, "-std=c99", "-pedantic", "-Wall", "-Wextra",
                             "-Werror", "-o", str(tmp_path / "_stencils.so"), str(source)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def c_argtype(param):
    """The ``SIGNATURES`` type that passes a C parameter declaration."""
    if "*" in param:
        return native.Vector
    return {"int64_t": ctypes.c_int64, "double": ctypes.c_double}[param.split()[0]]


def test_every_exported_kernel_is_declared():
    # ctypes passes undeclared arguments as C ints: a kernel added to the
    # source without an entry in the declaration table must fail here, not
    # corrupt a solve at run time, and so must a table entry whose argument
    # types, in order, are not those of the C parameters
    source = native.SOURCE.read_text()
    exported = {name: params for name, params in re.findall(r"^void masspcg_(\w+)\(([^)]*)\)", source, re.M)}
    assert exported, "no masspcg_* function found in the kernel source"
    assert set(exported) == set(native.SIGNATURES)
    for name, params in exported.items():
        assert len(params.split(",")) == len(native.SIGNATURES[name]), name
        assert [c_argtype(param) for param in params.split(",")] == native.SIGNATURES[name], name
    # every kernel is cloned: KERNEL stands on its own line above it, and is
    # the one line a masspcg_ definition may have above its own
    assert len(re.findall(r"^KERNEL\nvoid masspcg_", source, re.M)) == len(exported)
    assert not re.search(r"^(?!static|(?:KERNEL\n)?void masspcg_)\w[\w\s*]*\bmasspcg_\w+\(", source, re.M)


def test_every_kernel_helper_is_inlined():
    # KERNEL clones only the exported kernels: a static helper left out of
    # line is built once, for the baseline target, and runs at that vector
    # width in every clone, as the fused sweep once did, at half speed. So
    # the library has no local symbol named after a static function
    if native.compiler() is None or shutil.which("nm") is None:
        pytest.skip("no C compiler or nm on PATH")
    helpers = set(re.findall(r"^static\b[^;=]*?\b(\w+)\((?!\()", native.SOURCE.read_text(), re.M))
    assert {"lap", "mass_across", "xp", "sweep"} <= helpers
    listing = subprocess.run(["nm", native.load_library()._name], capture_output=True, text=True,
                             check=True, timeout=60).stdout
    local = {fields[-1].split(".")[0] for fields in map(str.split, listing.splitlines())
             if len(fields) >= 2 and fields[-2] == "t"}
    assert not helpers & local


def test_numpy_fallback_implements_the_kernel_table():
    # operators calls whichever backend serves with the same arguments, so
    # every kernel must exist in _sweeps under its table name and arity
    for name, argtypes in native.SIGNATURES.items():
        function = getattr(sweeps, name, None)
        assert inspect.isfunction(function), name
        assert len(inspect.signature(function).parameters) == len(argtypes), name


LAZY_IMPORT_PROBE = """
import ctypes, json, sys
import numpy as np
import masspcg, masspcg.cli
from masspcg import GridSpec, apply_mass, operators
lazy = ("masspcg._native", "masspcg._sweeps")
at_import = [m for m in lazy if m in sys.modules]
apply_mass(GridSpec(2, 4), np.ones(16))
print(json.dumps({"at_import": at_import, "compiled": isinstance(operators._kernels, ctypes.CDLL),
                  "sweeps_after_call": "masspcg._sweeps" in sys.modules}))
"""


def test_kernel_modules_are_imported_lazily():
    # parsing the build code and the numpy fallback at import would add to the
    # start-up time of every command; the fallback is not parsed at all while
    # the compiled kernels serve
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", LAZY_IMPORT_PROBE], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout)
    assert probe["at_import"] == []
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH: the numpy fallback serves")
    assert probe["compiled"]
    assert not probe["sweeps_after_call"]
