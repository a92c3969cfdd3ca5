"""Golden CLI outputs: the sha256 of stdout, the stderr text and the exit code
of each command below are pinned, so a refactor that changes one byte of
what the tool prints fails here.

The digests were recorded on Python 3.11; argparse's help layout can differ
on other Python versions, and the help texts are rendered at 80 columns.
"""

import hashlib

import pytest

import masspcg._native as native
import masspcg._sweeps as sweeps
import masspcg.operators as operators
from masspcg.cli import main

GOLDEN = [
    (("table1",), 0,
     "b8fa49c7dbafbebad5e7bebc1876377decef691d4fbc9e1382a8452df8e17c15", ""),
    (("table1", "--n", "8", "--n", "20", "--format", "markdown"), 0,
     "3ac1f8a3df189d247381c2ca249e8ba610533494ff221f48e5027abc6c2a907d", ""),
    (("condition", "--dim", "1", "--n", "32", "--n", "100", "--n", "512"), 0,
     "ad2bbf053370cafcde94ee80e52fec99d32840297ded3c020cf3a055fd58ad78", ""),
    (("condition", "--dim", "2", "--n", "32", "--n", "100", "--n", "512"), 0,
     "13a03103b219f3f807c3da7bdb147e60326515e2679fd0c51154c503a35f8bb4", ""),
    (("condition", "--dim", "3", "--n", "32", "--n", "100", "--n", "512"), 0,
     "1149b6abd76345983447b2822bb8e9ee3ce0f106437db73be2abdeab92737290", ""),
    # the only 3D sizes whose unpruned scan ran in more than one block of 2**22 tuples
    (("condition", "--dim", "3", "--n", "2049", "--n", "4096"), 0,
     "43b479eb9253a27a596bf7d6abc8b812e92b7f4b385cb89166b8a7d7b3faae56", ""),
    (("spectrum", "--dim", "3", "--n", "20", "--kind", "laplacian"), 0,
     "ceb68918479b59be8334320f984a027c0538363177a1f3a45e4f742504827d7d", ""),
    (("spectrum", "--dim", "3", "--n", "20", "--kind", "mass"), 0,
     "1904016e77b852e7c9a7c6b0da1a63f5f51af669198494d280be37daa42e51f8", ""),
    (("spectrum", "--dim", "2", "--n", "12", "--kind", "preconditioned"), 0,
     "ac4b9d5e4ce64d9bcb52e3ca5160650e17b9e2ac5a3f9ab65632f76b727c9501", ""),
    (("spectrum", "--dim", "3", "--n", "20", "--kind", "preconditioned"), 0,
     "9d39cf6b7c12b38138461a6e43c04c14426e852980b45e9a09b1f66c939bb45c", ""),
    # every 1D eigenvalue is distinct, so each row formats its own value
    (("spectrum", "--dim", "1", "--n", "64", "--kind", "preconditioned"), 0,
     "2d6c6fb4393b502701801d24ef45101561d5a440625e43888cb2d6c665a28f81", ""),
    (("spectrum", "--dim", "2", "--n", "12", "--kind", "laplacian", "--format", "markdown"), 0,
     "c9b1f65aa3ef83df769b2cb5a62ef2cb36362122b2aee2e688040f91fe453394", ""),
    (("solve", "--dim", "2", "--n", "16", "--precond", "mass", "--rhs", "random", "--seed", "3"), 0,
     "aac71d4a31cec679f45e3f32039a924f2080556c91ceb4afb62f0aa9db023c74",
     "converged in 24 iterations\n"),
    (("table2", "--dim", "2", "--n", "16", "--n", "32"), 0,
     "03c286fcb837d305209e3aae1fc81d1bc51bb2995b513e084ba6c427fafd3d10",
     "solving d=2 n=16 (256 unknowns)\nsolving d=2 n=32 (1024 unknowns)\n"),
    # a cap stop and an <z, r> underflow stop: counts marked ">N", ratio nan
    (("table2", "--dim", "2", "--n", "8", "--tol", "1e-300"), 2,
     "db5f14c81f87e0481dddb2a8e9a0159b8134bf747920c2c76b1d3af92f45fe4e",
     "solving d=2 n=8 (64 unknowns)\nd=2 n=8 precond=none: no convergence within 640 iterations\n"
     "d=2 n=8 precond=mass: no convergence within 144 iterations\n"),
    (("spectrum", "--help"), 0,
     "60489aa28e5a020690608fb2861422fa7f44d3e6154a395f3d0ef71a4c2aa70a", ""),
    (("condition", "--help"), 0,
     "5765adfed486d623551d417101c6810a19fb96ac18f4411a5d011e7b21ca1715", ""),
    (("table1", "--help"), 0,
     "5983a5be8b19aa3ccf843dc1bf0d4ec44472137c0526402cc75f31dc4bc1b256", ""),
]


@pytest.mark.parametrize(
    "argv, code, stdout_sha256, stderr", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_cli_output_is_pinned(argv, code, stdout_sha256, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256
    assert captured.err == stderr


SOLVES = [case for case in GOLDEN if case[0][0] in ("solve", "table2")]


@pytest.mark.parametrize(
    "argv, code, stdout_sha256, stderr", SOLVES, ids=[" ".join(case[0]) for case in SOLVES]
)
def test_cli_output_is_pinned_when_the_stencil_build_fails(argv, code, stdout_sha256, stderr,
                                                          capfd, monkeypatch, tmp_path):
    # a stencil source that does not compile: the numpy sweeps give the same
    # bytes, and no compiler message reaches stdout or stderr
    source = tmp_path / "_stencils.c"
    source.write_text("#error deliberately broken\n")
    monkeypatch.setattr(native, "SOURCE", source)
    monkeypatch.setattr(operators, "_kernels", None)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == code
    assert operators._kernels is sweeps
    captured = capfd.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == stdout_sha256
    assert captured.err == stderr
