"""Reproduction experiments and deterministic table rendering.

Builds the condition-number table, the iteration-count table, and the figure
datasets (sorted spectra, residual histories) as lazy rows of pre-formatted
strings, written WRITE_ROWS lines at a time: CSV and markdown output is
byte-identical across runs, and its text is never whole in memory.

Iteration counts use the relative stopping rule ||r_i|| < tol * ||b||, the
convention the reference iteration counts were produced with. The solver
itself takes an absolute threshold; this layer converts.

The random right-hand side comes from a counter-based SplitMix64 stream so a
seed yields the same vector on any platform; the recipe is documented at
:func:`rhs_random` for reproduction outside this package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from .grid import GridSpec, norm2
from .solver import WORK_VECTORS, SolveConfig, SolveReport, cg_solve
from .spectrum import (
    ASYMPTOTIC_RATIO_LIMIT,
    OperatorKind,
    RatioReport,
    full_spectrum,
    ratio_report,
)

DEFAULT_TOL = 1e-8
DEFAULT_SEED = 42
RHS_KINDS = ("ones", "random")
FORMATS = ("csv", "markdown")
WRITE_ROWS = 4096

#: Grid sizes of the condition-number table, crossed with d in {1, 2, 3}.
TABLE1_SIZES = (8, 16, 32)
#: (d, n) cases of the iteration-count table.
TABLE2_CASES = ((2, 32), (2, 64), (2, 128), (2, 256), (3, 32), (3, 64), (3, 96), (3, 128))
#: (d, n) cases whose full spectra make up the spectrum figure.
FIGURE_SPECTRUM_CASES = ((2, 32),)
#: (d, n) cases whose residual histories make up the convergence figures.
FIGURE_RESIDUAL_CASES = ((2, 128), (2, 256), (3, 64), (3, 128))


def rhs_random(spec: GridSpec, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Seeded uniform [0, 1) right-hand side, reproducible across platforms.

    Entry i (0-based) is produced by the SplitMix64 mix of the 64-bit counter
    seed + (i+1) * 0x9E3779B97F4A7C15, taking the top 53 bits as the mantissa:

        z = (seed + (i+1) * 0x9E3779B97F4A7C15) mod 2**64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2**64
        z = z ^ (z >> 31)
        u_i = (z >> 11) * 2.0**-53
    """
    i = np.arange(1, spec.size + 1, dtype=np.uint64)
    z = np.uint64(seed % 2**64) + i * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def make_rhs(spec: GridSpec, kind: str = "ones", seed: int = DEFAULT_SEED) -> np.ndarray:
    """The right-hand side ``b``: for "ones" a read-only stride-0 view of one
    stored 1.0, for "random" :func:`rhs_random`'s vector. A solve only reads
    ``b``, so the view stores no vector."""
    if kind not in RHS_KINDS:
        raise ValueError(f"rhs kind must be one of {RHS_KINDS}, got {kind!r}")
    if kind == "ones":
        return np.broadcast_to(1.0, spec.size)
    return rhs_random(spec, seed)


class SolveMemoryError(RuntimeError):
    """A solve's work vectors would not fit in physical memory."""


def check_solve_memory(spec: GridSpec, rhs: str):
    """Raise SolveMemoryError when a solve's work vectors, and the vector of a
    "random" rhs kind, exceed physical memory ("ones" stores no vector)."""
    needed = (WORK_VECTORS + (rhs == "random")) * 8 * spec.size
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise SolveMemoryError(
            f"d={spec.d} n={spec.n} solve needs {needed} bytes of work vectors, "
            f"physical memory is {physical} bytes"
        )


def run_solve(
    spec: GridSpec,
    *,
    tol: float = DEFAULT_TOL,
    precondition: str = "none",
    rhs: str = "ones",
    seed: int = DEFAULT_SEED,
    record_history: bool = True,
) -> SolveReport:
    """CG solve with the relative stopping rule ||r_i|| < tol * ||b||.

    Raises SolveMemoryError, before allocating anything, when the solve's
    work vectors would exceed physical memory.
    """
    check_solve_memory(spec, rhs)
    b = make_rhs(spec, rhs, seed)
    config = SolveConfig(
        tol=tol * norm2(b),
        precondition=precondition,
        record_history=record_history,
    )
    return cg_solve(spec, b, config=config)


def table1_rows(sizes=TABLE1_SIZES, dims=(1, 2, 3)) -> list[RatioReport]:
    return [ratio_report(GridSpec(d, n)) for d in dims for n in sizes]


@dataclasses.dataclass(frozen=True)
class IterationRow:
    """One iteration-count table row: plain and mass-preconditioned CG counts
    for the same system, the observed ratio, and the large-n limit of the
    predicted ratio sqrt(kappa / kappa_p)."""

    d: int
    n: int
    unknowns: int
    iterations: int
    iterations_mass: int
    observed_ratio: float
    limit_ratio: float
    converged: bool
    converged_mass: bool


def iteration_row(
    d: int,
    n: int,
    *,
    tol: float = DEFAULT_TOL,
    rhs: str = "ones",
    seed: int = DEFAULT_SEED,
) -> IterationRow:
    """Plain and mass-preconditioned CG on the same system, next to the
    limit of the spectral prediction; non-convergence is flagged in the row,
    not raised, and leaves the observed ratio nan."""
    spec = GridSpec(d, n)
    # only the counts outlive the plain solve: its solution would be a sixth vector
    plain = run_solve(spec, tol=tol, precondition="none", rhs=rhs, seed=seed, record_history=False)
    iterations, converged = plain.iterations, plain.converged
    del plain
    mass = run_solve(spec, tol=tol, precondition="mass", rhs=rhs, seed=seed, record_history=False)
    measured = converged and mass.converged and mass.iterations
    observed = iterations / mass.iterations if measured else math.nan
    return IterationRow(d=d, n=n, unknowns=spec.size, iterations=iterations, iterations_mass=mass.iterations,
                        observed_ratio=observed, limit_ratio=math.sqrt(ASYMPTOTIC_RATIO_LIMIT[d]),
                        converged=converged, converged_mass=mass.converged)


def table2_rows(
    cases=TABLE2_CASES,
    *,
    tol: float = DEFAULT_TOL,
    rhs: str = "ones",
    seed: int = DEFAULT_SEED,
    progress=None,
) -> list[IterationRow]:
    rows = []
    for d, n in cases:
        if progress is not None:
            progress(f"solving d={d} n={n} ({n**d} unknowns)")
        rows.append(iteration_row(d, n, tol=tol, rhs=rhs, seed=seed))
    return rows


def _fmt_fixed(x: float, places: int = 4) -> str:
    return f"{x:.{places}f}"


SPECTRUM_HEADERS = ("index", "eigenvalue")
RESIDUAL_HEADERS = ("iter", "residual_norm")
CONDITION_HEADERS = ("d", "n", "kappa", "kappa_p", "ratio", "sqrt_ratio")
ITERATION_HEADERS = ("d", "n", "mtx-size", "itn-unprec", "itn-prec", "th-itn-ratio", "itn-ratio")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal bit patterns starts in a float64 vector
    (so +0.0 and -0.0 start runs of their own)."""
    bits = values.view(np.int64)
    return np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])


def _value_text(values: np.ndarray) -> list[str]:
    """repr of each value, formatted once per run of equal bits."""
    starts = _run_starts(values)
    text = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return np.repeat(text, np.diff(starts, append=values.size)).tolist()


def spectrum_cells(kind: OperatorKind, spec: GridSpec) -> Iterator[tuple[str, str]]:
    """(index, eigenvalue) string rows of the sorted spectrum, 1-based rank, made as read."""
    # repr of a float round-trips exactly, so data files are bit-faithful. It
    # is the costly step, and the sort puts equal values side by side (permuted
    # frequency indices give equal bits), so each run's value is formatted once
    # per block of WRITE_ROWS rows, and one block's text is held at a time
    values = full_spectrum(kind, spec)
    # an int's repr is its str, and a cheaper call than the str constructor
    blocks = (zip(map(repr, range(i + 1, i + WRITE_ROWS + 1)), _value_text(values[i:i + WRITE_ROWS]))
              for i in range(0, values.size, WRITE_ROWS))
    return itertools.chain.from_iterable(blocks)


def residual_cells(report: SolveReport) -> Iterator[tuple[str, str]]:
    """(iter, residual_norm) string rows from a recorded solve history, made as read."""
    if report.residual_history is None:
        raise ValueError("solve was run without record_history")
    history = report.residual_history.tolist()
    return zip(map(repr, range(len(history))), map(repr, history))


def condition_cells(rows: list[RatioReport]) -> list[tuple[str, ...]]:
    return [
        (
            str(r.spec.d),
            str(r.spec.n),
            _fmt_fixed(r.kappa),
            _fmt_fixed(r.kappa_p),
            _fmt_fixed(r.r),
            _fmt_fixed(r.predicted_iter_ratio),
        )
        for r in rows
    ]


def iteration_cells(rows: list[IterationRow]) -> list[tuple[str, ...]]:
    # th-itn-ratio is the dimension's limiting ratio, the value the per-size
    # prediction sqrt(kappa/kappa_p) approaches from below. A solve that did
    # not converge prints ">N": N iterations ran, and more were needed
    return [
        (
            str(r.d),
            str(r.n),
            str(r.unknowns),
            ("" if r.converged else ">") + str(r.iterations),
            ("" if r.converged_mass else ">") + str(r.iterations_mass),
            _fmt_fixed(r.limit_ratio, 2),
            _fmt_fixed(r.observed_ratio, 2),
        )
        for r in rows
    ]


def _table_lines(headers, cells, fmt: str) -> Iterator[str]:
    """The lines, without newlines, of a CSV or markdown table, made as read."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "csv":
        return itertools.chain([",".join(headers)], map(",".join, cells))
    head = ("| " + " | ".join(headers) + " |", "| " + " | ".join("---" for _ in headers) + " |")
    return itertools.chain(head, map("| {} |".format, map(" | ".join, cells)))


def render_table(headers, cells, fmt: str = "csv") -> str:
    """Render string rows, any iterable read once, as CSV (UTF-8, LF) or a markdown table."""
    lines = list(_table_lines(headers, cells, fmt))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def _output(path: str | None):
    """path opened for writing (UTF-8, LF), or stdout, left open, when path is None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_text(text: str, path: str | None):
    """Write to path (UTF-8, LF) or stdout when path is None."""
    with _output(path) as f:
        f.write(text)


def write_table(headers, cells, path: str | None, fmt: str = "csv"):
    """Write render_table's text to path or stdout, WRITE_ROWS lines per write."""
    lines = _table_lines(headers, cells, fmt)
    with _output(path) as f:
        while batch := list(itertools.islice(lines, WRITE_ROWS)):
            batch.append("")  # each line's newline, without copying the joined batch
            f.write("\n".join(batch))
