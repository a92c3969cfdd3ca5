import dataclasses
import io
import os
import sys

import numpy as np
import pytest

import masspcg._sweeps as sweeps
import masspcg.operators as operators
from masspcg import GridSpec, apply_laplacian, norm2, ratio_report
from masspcg.experiments import (
    CONDITION_HEADERS,
    ITERATION_HEADERS,
    RESIDUAL_HEADERS,
    SPECTRUM_HEADERS,
    TABLE1_SIZES,
    TABLE2_CASES,
    WRITE_ROWS,
    SolveMemoryError,
    _run_starts,
    check_solve_memory,
    condition_cells,
    iteration_cells,
    iteration_row,
    make_rhs,
    render_table,
    residual_cells,
    rhs_random,
    run_solve,
    spectrum_cells,
    table1_rows,
    write_table,
    write_text,
)
from masspcg.solver import WORK_VECTORS, SolveConfig, SolveReport, cg_solve
from masspcg.spectrum import OperatorKind, SpectrumCapError, full_spectrum
from test_operators import stencil_kernels
from tracing import traced_peak


def test_rhs_random_matches_reference_stream():
    # first three values of the documented SplitMix64 recipe, derived with
    # arbitrary-precision integer arithmetic
    expected = {
        42: [0.7415648787718233, 0.1599103928769201, 0.27860113025513866],
        0: [0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
        12345: [0.1330796686614273, 0.20481663336165912, 0.11954258300911547],
    }
    for seed, values in expected.items():
        u = rhs_random(GridSpec(1, 3), seed=seed)
        np.testing.assert_array_equal(u, values)


def test_rhs_random_is_deterministic_and_in_range():
    spec = GridSpec(2, 20)
    a = rhs_random(spec, seed=7)
    b = rhs_random(spec, seed=7)
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))
    assert not np.array_equal(a, rhs_random(spec, seed=8))


def test_make_rhs_dispatch_and_validation():
    spec = GridSpec(1, 4)
    np.testing.assert_array_equal(make_rhs(spec, "ones"), np.ones(4))
    np.testing.assert_array_equal(make_rhs(spec, "random", seed=3), rhs_random(spec, 3))
    with pytest.raises(ValueError):
        make_rhs(spec, "gaussian")


def test_make_rhs_ones_is_a_read_only_view_of_one_value():
    # a solve only reads b, so "ones" stores one 1.0, not a vector of them
    spec = GridSpec(3, 64)
    b, peak = traced_peak(lambda: make_rhs(spec, "ones"))
    assert peak < 1024
    assert b.shape == (spec.size,) and b.strides == (0,) and not b.flags.writeable
    np.testing.assert_array_equal(b, np.ones(spec.size))
    with pytest.raises(ValueError):
        b[0] = 2.0


@pytest.mark.parametrize("spec, tol, precondition, replacements", [
    (GridSpec(2, 16), 1e-8, "none", 0),
    (GridSpec(2, 16), 1e-8, "mass", 0),
    (GridSpec(2, 7), 1e-15, "none", 3),
    (GridSpec(1, 6), 1e-15, "mass", 1),
], ids=["converged-plain", "converged-mass", "replaced-plain", "replaced-mass"])
def test_run_solve_reads_ones_as_a_stored_vector(spec, tol, precondition, replacements, monkeypatch):
    # the view is read where a vector of ones was: copied into r, in ||b||,
    # and by the drift guard's b - A x, so every bit and count is the same
    ones = np.ones(spec.size)
    config = SolveConfig(tol=tol * norm2(ones), precondition=precondition)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        got = run_solve(spec, tol=tol, precondition=precondition, rhs="ones")
        want = cg_solve(spec, ones, config=config)
        assert got.replacements == replacements, kernels
        for field in dataclasses.fields(SolveReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            same = a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
            assert same, (kernels, field.name)


@pytest.mark.parametrize("precondition", ["none", "mass"])
def test_run_solve_with_ones_holds_its_work_vectors(precondition):
    # x, r, p and Ap, the history and small change: a stored vector of ones
    # made the peak 5.0 vectors
    spec = GridSpec(3, 48)
    report, peak = traced_peak(lambda: run_solve(spec, precondition=precondition))
    assert report.converged
    assert peak <= 4.25 * 8 * spec.size


def test_memory_check_counts_a_stored_rhs(monkeypatch):
    # room for 4.5 vectors: a solve allocates WORK_VECTORS, and a random
    # rhs is one more vector; "ones" is none
    spec = GridSpec(1, 4096)
    pages = int(4.5 * 8 * spec.size) // 4096
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}.__getitem__)
    check_solve_memory(spec, "ones")
    with pytest.raises(SolveMemoryError):
        check_solve_memory(spec, "random")
    with pytest.raises(SolveMemoryError):
        run_solve(spec, rhs="random")


@pytest.mark.parametrize("rhs", ["ones", "random"])
def test_run_solve_uses_relative_threshold(rhs):
    spec = GridSpec(2, 12)
    tol = 1e-7
    report = run_solve(spec, tol=tol, rhs=rhs, seed=5)
    b = make_rhs(spec, rhs, 5)
    assert report.converged
    assert norm2(b - apply_laplacian(spec, report.solution)) <= tol * norm2(b)


def test_condition_cells_format_ratio_report():
    report = ratio_report(GridSpec(2, 16))
    assert condition_cells([report]) == [(
        "2",
        "16",
        f"{report.kappa:.4f}",
        f"{report.kappa_p:.4f}",
        f"{report.r:.4f}",
        f"{report.predicted_iter_ratio:.4f}",
    )]


def test_table1_covers_the_grid():
    rows = table1_rows()
    assert [(r.spec.d, r.spec.n) for r in rows] == [(d, n) for d in (1, 2, 3) for n in TABLE1_SIZES]


def test_table1_formatting_four_decimals():
    cells = condition_cells(table1_rows((8,)))
    by_dim = {row[0]: row for row in cells}
    assert by_dim["1"][2] == "32.1634"
    assert by_dim["1"][3] == "12.6914"
    assert by_dim["2"][3] == "7.6173"
    assert by_dim["3"][3] == "5.5393"


def test_iteration_row_2d_small():
    row = iteration_row(2, 16, tol=1e-8)
    assert row.unknowns == 256
    assert row.converged and row.converged_mass
    assert row.iterations > row.iterations_mass
    assert row.observed_ratio == pytest.approx(row.iterations / row.iterations_mass)
    assert row.limit_ratio == pytest.approx(np.sqrt(4.5), rel=1e-12)
    cells = iteration_cells([row])[0]
    assert cells[2] == "256"
    assert cells[5] == "2.12"


def test_iteration_row_plain_vs_mass_matches_prediction():
    row = iteration_row(2, 24)
    assert row.converged and row.converged_mass
    assert row.iterations > row.iterations_mass
    assert row.observed_ratio == pytest.approx(row.iterations / row.iterations_mass, rel=1e-12)
    # observed should land in the right neighborhood of the prediction
    assert abs(row.observed_ratio - ratio_report(GridSpec(2, 24)).predicted_iter_ratio) < 0.5


def test_table2_case_list():
    assert TABLE2_CASES == ((2, 32), (2, 64), (2, 128), (2, 256), (3, 32), (3, 64), (3, 96), (3, 128))


def test_spectrum_cells_trivial():
    cells = list(spectrum_cells(OperatorKind.PRECONDITIONED, GridSpec(1, 1)))
    assert len(cells) == 1
    index, value = cells[0]
    assert index == "1"
    assert float(value) == pytest.approx(4.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("kind", list(OperatorKind))
@pytest.mark.parametrize("d, n", [(d, n) for d in (1, 2, 3) for n in (1, 2, 7, 12)] + [(2, 256)])
def test_spectrum_cells_format_every_row(kind, d, n):
    # each distinct value is formatted once and repeated over its run; the
    # rows must be those of formatting every value on its own
    spec = GridSpec(d, n)
    naive = [(str(k), repr(v)) for k, v in enumerate(full_spectrum(kind, spec).tolist(), 1)]
    assert list(spectrum_cells(kind, spec)) == naive


def test_spectrum_cells_format_a_run_across_a_block_edge():
    # the values are formatted one block of WRITE_ROWS at a time; at 2D n=91
    # a run of equal Laplacian eigenvalues straddles a block edge, and is
    # formatted once in each block, to the same text
    spec = GridSpec(2, 91)
    values = full_spectrum(OperatorKind.LAPLACIAN, spec)
    bits = values.view(np.int64)
    assert any(bits[k - 1] == bits[k] for k in range(WRITE_ROWS, bits.size, WRITE_ROWS))
    naive = [(str(k), repr(v)) for k, v in enumerate(values.tolist(), 1)]
    assert list(spectrum_cells(OperatorKind.LAPLACIAN, spec)) == naive


def test_run_starts_compares_bits():
    # +0.0 == -0.0, but they print differently, so each starts its own run;
    # two NaNs of one bit pattern print alike and share one, though nan != nan
    values = np.array([-1.0, -1.0, -0.0, 0.0, 0.0, 2.5, np.nan, np.nan, np.inf])
    np.testing.assert_array_equal(_run_starts(values), [0, 2, 3, 5, 6, 8])
    np.testing.assert_array_equal(_run_starts(np.array([3.0])), [0])


def test_residual_cells_requires_history():
    report = run_solve(GridSpec(1, 5), record_history=False)
    with pytest.raises(ValueError):
        residual_cells(report)  # at the call: the rows are lazy, the check is not


def test_residual_cells_shape():
    report = run_solve(GridSpec(1, 5))
    cells = list(residual_cells(report))
    assert cells[0][0] == "0"
    assert len(cells) == report.iterations + 1
    assert float(cells[-1][1]) == report.residual_history[-1]


def test_render_csv():
    text = render_table(("a", "b"), [("1", "2.0"), ("3", "4.5")], "csv")
    assert text == "a,b\n1,2.0\n3,4.5\n"


def test_render_markdown():
    text = render_table(("a", "b"), [("1", "2.0")], "markdown")
    assert text == "| a | b |\n| --- | --- |\n| 1 | 2.0 |\n"


def test_render_rejects_unknown_format(tmp_path):
    # before it reads a row, and write_table before it opens the file
    cells = (row for row in [("1", "2.0")])
    with pytest.raises(ValueError):
        render_table(("a", "b"), cells, "tsv")
    with pytest.raises(ValueError):
        write_table(("a", "b"), cells, str(tmp_path / "t.tsv"), "tsv")
    assert next(cells) == ("1", "2.0")
    assert not (tmp_path / "t.tsv").exists()


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("rows", [[], [("1", "2.0")], [("1", "2.0"), ("3", "4.5"), ("5", "-0.0")]] + [
    [(str(k), repr(k / 7)) for k in range(count)]
    for count in (WRITE_ROWS - 2, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 2 * WRITE_ROWS + 1)
])
def test_render_reads_a_one_shot_iterator_like_a_list(rows, fmt, tmp_path, monkeypatch):
    # write_table writes WRITE_ROWS lines per write (a csv header takes one
    # line, a markdown one two); on each side of a batch edge, from a list or
    # a one-shot iterator, to a file or stdout, it writes render_table's text
    text = render_table(("a", "b"), rows, fmt)
    assert render_table(("a", "b"), (row for row in rows), fmt) == text
    target = tmp_path / "t"
    for cells in (lambda: rows, lambda: (row for row in rows)):
        write_table(("a", "b"), cells(), str(target), fmt)
        assert target.read_bytes() == text.encode()
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        write_table(("a", "b"), cells(), None, fmt)
        assert sys.stdout.getvalue() == text


@pytest.mark.parametrize("kind", list(OperatorKind))
def test_spectrum_cells_raise_the_cap_at_the_call(kind):
    # the cell builders return lazy rows, but they are not generator
    # functions: a grid over the cap fails before anything is iterated
    with pytest.raises(SpectrumCapError):
        spectrum_cells(kind, GridSpec(2, 1025))


@pytest.mark.parametrize("backend", ["default", "numpy"])
def test_iteration_row_holds_one_solve_of_work_vectors(backend, monkeypatch):
    # only the plain solve's counts outlive it: its report, solution vector
    # and all, kept through the mass solve made the peak 6.01 vectors (6.14
    # with the numpy sweeps) when b was stored. In 3D the sweeps' own
    # temporaries, a plane and a chunk, fit in the quarter vector of margin
    if backend == "numpy":
        monkeypatch.setattr(operators, "_kernels", sweeps)
    _, peak = traced_peak(lambda: iteration_row(3, 80), warm_up=lambda: iteration_row(2, 8))
    assert peak <= (WORK_VECTORS + 0.25) * 8 * 80**3


def test_spectrum_render_holds_no_row_list():
    # the rows are joined as they are made: a list of row tuples pushes the
    # traced peak past 8x the text (10.4x; 6.0x without it, 11.4x with a
    # second copy of the text too)
    text, peak = traced_peak(
        lambda: render_table(SPECTRUM_HEADERS, spectrum_cells(OperatorKind.PRECONDITIONED, GridSpec(2, 256)))
    )
    assert text.count("\n") == 256 * 256 + 1
    assert peak <= 8 * len(text)


@pytest.mark.parametrize("fmt, copies", [("csv", 1), ("markdown", 2)])
def test_render_joins_the_text_once(fmt, copies):
    # a one-cell csv row is its cell, not a new string, so the traced peak is
    # the text itself; a markdown row is one new string per row. A second
    # copy of the joined text would add one more text
    rows = [("x" * 2**20,)] * 8
    text, peak = traced_peak(lambda: render_table(("a",), rows, fmt))
    assert len(text) > 8 * 2**20
    assert peak < (copies + 0.5) * len(text)


def test_headers_are_stable_contracts():
    assert SPECTRUM_HEADERS == ("index", "eigenvalue")
    assert RESIDUAL_HEADERS == ("iter", "residual_norm")
    assert CONDITION_HEADERS == ("d", "n", "kappa", "kappa_p", "ratio", "sqrt_ratio")
    assert ITERATION_HEADERS == ("d", "n", "mtx-size", "itn-unprec", "itn-prec", "th-itn-ratio", "itn-ratio")


def test_write_text_to_file_lf_only(tmp_path):
    target = tmp_path / "out.csv"
    write_text("x,y\n1,2\n", str(target))
    raw = target.read_bytes()
    assert raw == b"x,y\n1,2\n"
