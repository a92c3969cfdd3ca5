import time
import tracemalloc

import numpy as np
import pytest

import masspcg.cli as cli
import masspcg.experiments as experiments
from masspcg import GridSpec
from masspcg.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from masspcg.spectrum import OperatorKind
from test_solver import counted_kernels, negating


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_trivial_rows(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "1", "--n", "2", "--kind", "laplacian")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(9.0, rel=1e-12)
    assert float(lines[2].split(",")[1]) == pytest.approx(27.0, rel=1e-12)


def test_spectrum_single_preconditioned_value(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "1", "--n", "1", "--kind", "preconditioned")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[1].startswith("1,1.333333")


def test_spectrum_is_deterministic(capsys):
    args = ("spectrum", "--dim", "2", "--n", "5", "--kind", "mass")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_spectrum_cap_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--dim", "3", "--n", "512", "--kind", "laplacian")
    assert code == EXIT_RESOURCE
    assert "cap" in err
    # the cap is raised before the first row, so no file is made
    target = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--dim", "3", "--n", "512", "--kind", "laplacian",
                         "--out", str(target))
    assert code == EXIT_RESOURCE
    assert not target.exists()


def test_spectrum_output_memory_is_bounded_by_a_batch(tmp_path):
    # the rows are formatted and written WRITE_ROWS at a time, so the traced
    # peak is a few copies of the spectrum values (2 MiB here, the bound is
    # 4 of them), not the text: 37.3 MiB when the text was whole in memory
    target = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--dim", "2", "--n", "512", "--kind", "preconditioned", "--out", str(target)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * 512 * 512
    cells = experiments.spectrum_cells(OperatorKind.PRECONDITIONED, GridSpec(2, 512))
    assert target.read_bytes() == experiments.render_table(experiments.SPECTRUM_HEADERS, cells).encode()


def test_condition_trivial_kappa(capsys):
    code, out, _ = run_cli(capsys, "condition", "--dim", "1", "--n", "2")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[2] == "3.0000"


def test_condition_reference_row(capsys):
    code, out, _ = run_cli(capsys, "condition", "--dim", "3", "--n", "32")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[2] == "440.6886"
    assert row[3] == "70.1771"
    assert round(float(row[4]), 1) == 6.3


def test_condition_large_grid_ratio_near_limit(capsys):
    code, out, _ = run_cli(capsys, "condition", "--dim", "2", "--n", "512")
    assert code == EXIT_OK
    ratio = float(out.splitlines()[1].split(",")[4])
    assert ratio == pytest.approx(4.5, rel=0.01)


def test_condition_repeatable_n(capsys):
    code, out, _ = run_cli(capsys, "condition", "--dim", "1", "--n", "8", "--n", "16")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3


def test_solve_writes_history_file(tmp_path, capsys):
    target = tmp_path / "history.csv"
    code, out, err = run_cli(capsys, "solve", "--dim", "2", "--n", "8",
                             "--precond", "mass", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert "converged in" in err
    lines = target.read_text().splitlines()
    assert lines[0] == "iter,residual_norm"
    assert lines[1].startswith("0,")
    assert float(lines[-1].split(",")[1]) < 1e-8 * np.sqrt(64.0)


def test_solve_non_convergence_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--n", "16", "--tol", "1e-300")
    assert code == EXIT_NO_CONVERGENCE
    assert "no convergence" in err
    # the history of all 5120 iterations is written, over more than one batch
    target = tmp_path / "history.csv"
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--n", "512", "--tol", "1e-300", "--out", str(target))
    assert (code, err) == (EXIT_NO_CONVERGENCE, "no convergence within 5120 iterations\n")
    report = experiments.run_solve(GridSpec(1, 512), tol=1e-300)
    expected = experiments.render_table(experiments.RESIDUAL_HEADERS, experiments.residual_cells(report))
    assert expected.count("\n") == 5122 > experiments.WRITE_ROWS
    assert target.read_bytes() == expected.encode()


def test_solve_zr_underflow_is_non_convergence(tmp_path, capsys):
    # <z, r> underflows to 0.0 at the attainable-accuracy floor: the command
    # reports non-convergence and still writes the residual history
    target = tmp_path / "history.csv"
    code, _, err = run_cli(capsys, "solve", "--dim", "1", "--n", "6", "--precond", "mass",
                           "--tol", "1e-300", "--out", str(target))
    assert code == EXIT_NO_CONVERGENCE
    assert "is not positive" not in err
    lines = target.read_text().splitlines()
    assert lines[0] == "iter,residual_norm"
    assert err == f"no convergence within {len(lines) - 2} iterations\n"


def test_solve_breakdown_exit_code(capsys, monkeypatch):
    # a negated Laplacian breaks CG down on its first <p, Ap>: exit 2, no
    # table, and one error line
    counted_kernels(monkeypatch, negating(("laplacian", "xp_laplacian")))
    code, out, err = run_cli(capsys, "solve", "--dim", "2", "--n", "4")
    assert (code, out) == (EXIT_NO_CONVERGENCE, "")
    assert err.startswith("error: <p, Ap> = -") and err.endswith(" is not positive\n")
    assert err.count("\n") == 1


def test_solve_memory_check_before_allocation(capsys):
    # about 1 TB per work vector: refused before the right-hand side exists
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--dim", "3", "--n", "5000")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "physical memory" in err


@pytest.mark.parametrize("argv", [("table2", "--dim", "3", "--n", "5000"),
                                  ("figures", "--out", "figs")])
def test_solve_backed_commands_memory_check(argv, tmp_path, capsys, monkeypatch):
    # figures makes one oversized solve and nothing else
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(experiments, "FIGURE_SPECTRUM_CASES", ())
    monkeypatch.setattr(experiments, "FIGURE_RESIDUAL_CASES", ((3, 5000),))
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_RESOURCE
    assert "physical memory" in err


def test_table2_checks_every_cell_before_solving(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table2", "--dim", "3", "--n", "32", "--n", "5000")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "d=3 n=5000" in err and "physical memory" in err
    assert "solving" not in err and "note" not in err


def test_figures_checks_every_case_before_writing(tmp_path, capsys, monkeypatch):
    # as table2 does: an oversized residual case is refused before the first
    # note, the output directory or any file
    monkeypatch.setattr(experiments, "FIGURE_RESIDUAL_CASES", ((2, 64), (3, 5000)))
    outdir = tmp_path / "figs"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "figures", "--out", str(outdir))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "d=3 n=5000" in err and "physical memory" in err
    assert "wrote" not in err and "spectrum" not in err
    assert not outdir.exists()


def test_condition_scan_cap_exit_code(capsys):
    # 10**12 frequency tuples: refused before the scan starts
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "condition", "--dim", "3", "--n", "1000000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "scan" in err and "cap" in err


def test_solve_random_rhs_depends_on_seed(capsys):
    args = ("solve", "--dim", "1", "--n", "12", "--rhs", "random")
    _, base, _ = run_cli(capsys, *args)
    _, repeat, _ = run_cli(capsys, *args)
    _, reseeded, _ = run_cli(capsys, *args, "--seed", "7")
    assert base == repeat
    assert base != reseeded


def test_table1_default_grid(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "d,n,kappa,kappa_p,ratio,sqrt_ratio"
    assert len(lines) == 10
    assert "440.6886,165.8836" in out
    assert "116.4612,26.3451" in out


def test_table1_markdown(capsys):
    code, out, _ = run_cli(capsys, "table1", "--n", "8", "--format", "markdown")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "| d | n | kappa | kappa_p | ratio | sqrt_ratio |"
    assert lines[1].startswith("| ---")
    assert len(lines) == 5


def test_table2_single_cell(capsys):
    code, out, _ = run_cli(capsys, "table2", "--dim", "2", "--n", "16")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "d,n,mtx-size,itn-unprec,itn-prec,th-itn-ratio,itn-ratio"
    cells = lines[1].split(",")
    assert cells[:3] == ["2", "16", "256"]
    assert cells[5] == "2.12"


def test_table2_selects_cases_in_order(capsys, monkeypatch):
    # --dim alone keeps that dimension's cases in table order; no flag keeps all
    cases = ((2, 5), (3, 2), (2, 3), (3, 3))
    monkeypatch.setattr(cli, "TABLE2_CASES", cases)
    for argv, expected in [(("--dim", "2"), [(2, 5), (2, 3)]), ((), list(cases))]:
        code, out, _ = run_cli(capsys, "table2", *argv)
        assert code == EXIT_OK
        rows = [tuple(map(int, line.split(",")[:2])) for line in out.splitlines()[1:]]
        assert rows == expected


def test_table2_n_requires_dim(capsys):
    code, _, err = run_cli(capsys, "table2", "--n", "16")
    assert code == EXIT_USAGE
    assert "requires --dim" in err


def test_table2_non_convergence_exit_code(capsys):
    # an unreachable tolerance: both solves stop at the 10*N iteration cap,
    # and the table marks both counts as capped, not measured
    code, out, err = run_cli(capsys, "table2", "--dim", "2", "--n", "4", "--tol", "1e-17")
    assert code == EXIT_NO_CONVERGENCE
    assert out.splitlines()[1] == "2,4,16,>160,>160,2.12,nan"
    assert "d=2 n=4 precond=none: no convergence within 160 iterations" in err
    assert "d=2 n=4 precond=mass: no convergence within 160 iterations" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "bogus")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE
    assert run_cli(capsys, "spectrum", "--dim", "5", "--n", "4", "--kind", "mass")[0] == EXIT_USAGE
    assert run_cli(capsys, "spectrum", "--dim", "1", "--kind", "mass")[0] == EXIT_USAGE
    assert run_cli(capsys, "solve", "--dim", "1", "--n", "4", "--n", "8")[0] == EXIT_USAGE
    assert run_cli(capsys, "solve", "--dim", "1", "--n", "4", "--tol", "-1")[0] == EXIT_USAGE
    assert run_cli(capsys, "solve", "--dim", "1", "--n", "0")[0] == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == EXIT_OK
    assert run_cli(capsys, "solve", "--help")[0] == EXIT_OK


def _tiny_figure_cases(monkeypatch):
    # shrink the figure cases so the command stays fast in unit tests; the
    # full-size datasets are exercised by the acceptance suite
    monkeypatch.setattr(experiments, "FIGURE_SPECTRUM_CASES", ((1, 4),))
    monkeypatch.setattr(experiments, "FIGURE_RESIDUAL_CASES", ((1, 6),))


def test_figures_writes_expected_files(tmp_path, capsys, monkeypatch):
    _tiny_figure_cases(monkeypatch)
    outdir = tmp_path / "figs"
    code, _, err = run_cli(capsys, "figures", "--out", str(outdir))
    assert code == EXIT_OK
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "residuals_1d_n6_mass.csv",
        "residuals_1d_n6_none.csv",
        "spectrum_laplacian_1d_n4.csv",
        "spectrum_preconditioned_1d_n4.csv",
    ]
    for p in outdir.iterdir():
        first = p.read_text().splitlines()[0]
        assert first in ("index,eigenvalue", "iter,residual_norm")
    assert "wrote" in err


def test_figures_non_convergence_exit_code(tmp_path, capsys, monkeypatch):
    _tiny_figure_cases(monkeypatch)
    outdir = tmp_path / "figs"
    code, _, err = run_cli(capsys, "figures", "--out", str(outdir), "--tol", "1e-17")
    assert code == EXIT_NO_CONVERGENCE
    assert "residuals_1d_n6_none: no convergence within 60 iterations" in err
    assert "residuals_1d_n6_mass: no convergence within 60 iterations" in err
    assert len(list(outdir.iterdir())) == 4


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # a path that cannot be written ends in exit code 1 and one error line,
    # never in a traceback
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "table1", "--n", "4", "--out", str(missing))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "x.csv" in err
    existing = tmp_path / "file"
    existing.write_text("kept")
    code, out, err = run_cli(capsys, "figures", "--out", str(existing))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and str(existing) in err
    assert existing.read_text() == "kept"
    assert not missing.parent.exists()


OUTPUT_COMMANDS = [
    ("spectrum", "--dim", "1", "--n", "4", "--kind", "mass"),
    ("condition", "--dim", "1", "--n", "4"),
    ("table1", "--n", "4"),
    ("solve", "--dim", "1", "--n", "4"),
    ("table2", "--dim", "3", "--n", "64"),
]
UNWRITABLE = [(argv, "missing/x.csv") for argv in OUTPUT_COMMANDS] + [(OUTPUT_COMMANDS[-1], "."),
                                                                       (OUTPUT_COMMANDS[-1], "")]


@pytest.mark.parametrize("argv, out", UNWRITABLE, ids=[f"{argv[0]} {out or repr(out)}" for argv, out in UNWRITABLE])
def test_unwritable_output_fails_before_any_work(argv, out, tmp_path, capsys, monkeypatch):
    # a missing directory, a path that is a directory, or an empty path is
    # refused while the flags are parsed: no note is printed and nothing is
    # computed
    def started(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("run_solve", "table2_rows", "table1_rows", "spectrum_cells"):
        monkeypatch.setattr(cli, name, started)
    target = str(tmp_path / out) if out else out  # tmp_path / "" is tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", target)
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and target in err


def test_file_output_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "spectrum", "--dim", "2", "--n", "6", "--kind", "preconditioned", "--out", str(a))
    run_cli(capsys, "spectrum", "--dim", "2", "--n", "6", "--kind", "preconditioned", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
