"""Command-line front end.

Emits the condition-number table, the iteration-count table, sorted spectra,
and CG residual histories as CSV or markdown, to a file or stdout. Identical
flags give byte-identical output. Solve-backed commands stop at the relative
threshold ||r|| < tol * ||b||.

Exit codes: 0 success, 1 usage or output error, 2 non-convergence or solver
breakdown, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments
from .experiments import (
    CONDITION_HEADERS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    FORMATS,
    ITERATION_HEADERS,
    RESIDUAL_HEADERS,
    RHS_KINDS,
    SPECTRUM_HEADERS,
    SolveMemoryError,
    TABLE1_SIZES,
    TABLE2_CASES,
    check_solve_memory,
    condition_cells,
    iteration_cells,
    residual_cells,
    run_solve,
    spectrum_cells,
    table1_rows,
    table2_rows,
    write_table,
)
from .grid import GridSpec
from .solver import PRECONDITION_KINDS, NumericalBreakdownError
from .spectrum import OperatorKind, SpectrumCapError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() owns the exit-code contract
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be a positive real")
    return value


def _output_file(text: str) -> str:
    # checked at parse time, so no command computes a result it cannot write
    directory = os.path.dirname(text) or os.curdir
    if not text:
        raise argparse.ArgumentTypeError("cannot write an empty path")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"cannot write {text}: it is a directory")
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write {text}: {directory} is not a writable directory")
    return text


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", type=_output_file, default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=FORMATS, default="csv", help="table format (default: csv)")


def _add_solve_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                   help="relative residual tolerance (default: 1e-8)")
    p.add_argument("--rhs", choices=RHS_KINDS, default="ones",
                   help="right-hand side (default: ones)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for --rhs random (default: 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="masspcg",
                     description="Matrix-free Laplacian spectra and mass-preconditioned CG experiments.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="sorted eigenvalues of one operator")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=_positive_int, action="append", required=True,
                   help="grid size per axis")
    p.add_argument("--kind", choices=sorted(k.value for k in OperatorKind), required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("condition", help="condition numbers and their ratio")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=_positive_int, action="append", required=True,
                   help="grid size per axis (repeatable)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_condition)

    p = sub.add_parser("solve", help="CG solve, residual history as output")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=_positive_int, action="append", required=True,
                   help="grid size per axis")
    p.add_argument("--precond", choices=PRECONDITION_KINDS, default="none")
    _add_solve_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table1", help="condition-number table, d in {1,2,3}")
    p.add_argument("--n", type=_positive_int, action="append",
                   help=f"grid sizes (default: {' '.join(map(str, TABLE1_SIZES))})")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_condition, dim=None)

    p = sub.add_parser("table2", help="iteration-count table, 2D and 3D")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None,
                   help="restrict to one dimension")
    p.add_argument("--n", type=_positive_int, action="append",
                   help="grid sizes (requires --dim)")
    _add_solve_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("figures", help="write all figure datasets to a directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=FORMATS, default="csv")
    _add_solve_flags(p)
    p.set_defaults(handler=_cmd_figures)

    return parser


def _single_n(values) -> int:
    if len(values) != 1:
        raise _UsageError("this command takes exactly one --n")
    return values[0]


def _note(message: str):
    print(message, file=sys.stderr)


def _unconverged(label: str, converged: bool, iterations: int) -> int:
    if converged:
        return EXIT_OK
    message = f"no convergence within {iterations} iterations"
    _note(f"{label}: {message}" if label else message)
    return EXIT_NO_CONVERGENCE


def _cmd_spectrum(args) -> int:
    spec = GridSpec(args.dim, _single_n(args.n))
    write_table(SPECTRUM_HEADERS, spectrum_cells(OperatorKind(args.kind), spec), args.out, args.format)
    return EXIT_OK


def _cmd_condition(args) -> int:
    # `condition` names one dimension; `table1` covers d = 1, 2, 3
    dims = (1, 2, 3) if args.dim is None else (args.dim,)
    rows = table1_rows(args.n or TABLE1_SIZES, dims)
    write_table(CONDITION_HEADERS, condition_cells(rows), args.out, args.format)
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = GridSpec(args.dim, _single_n(args.n))
    report = run_solve(spec, tol=args.tol, precondition=args.precond,
                       rhs=args.rhs, seed=args.seed)
    write_table(RESIDUAL_HEADERS, residual_cells(report), args.out, args.format)
    if report.converged:
        _note(f"converged in {report.iterations} iterations")
    return _unconverged("", report.converged, report.iterations)


def _table2_cases(args):
    if args.dim is not None and args.n:
        return [(args.dim, n) for n in args.n]
    if args.dim is not None:
        return [case for case in TABLE2_CASES if case[0] == args.dim]
    if args.n:
        raise _UsageError("--n requires --dim for table2")
    return list(TABLE2_CASES)


def _cmd_table2(args) -> int:
    cases = _table2_cases(args)
    # refuse an oversized cell before any note or solve
    for d, n in cases:
        check_solve_memory(GridSpec(d, n))
    rows = table2_rows(cases, tol=args.tol, rhs=args.rhs, seed=args.seed, progress=_note)
    write_table(ITERATION_HEADERS, iteration_cells(rows), args.out, args.format)
    codes = [_unconverged(f"d={r.d} n={r.n} precond={precond}", converged, iterations)
             for r in rows
             for precond, iterations, converged in (("none", r.iterations, r.converged),
                                                    ("mass", r.iterations_mass, r.converged_mass))]
    return max(codes)


def _cmd_figures(args) -> int:
    # refuse an oversized case before any note, directory or file
    for d, n in experiments.FIGURE_RESIDUAL_CASES:
        check_solve_memory(GridSpec(d, n))
    os.makedirs(args.out, exist_ok=True)
    extension = "csv" if args.format == "csv" else "md"

    def write(name, headers, cells):
        path = os.path.join(args.out, f"{name}.{extension}")
        write_table(headers, cells, path, args.format)
        _note(f"wrote {path}")

    for d, n in experiments.FIGURE_SPECTRUM_CASES:
        for kind in (OperatorKind.LAPLACIAN, OperatorKind.PRECONDITIONED):
            _note(f"spectrum {kind.value} d={d} n={n}")
            write(f"spectrum_{kind.value}_{d}d_n{n}", SPECTRUM_HEADERS, spectrum_cells(kind, GridSpec(d, n)))
    codes = [EXIT_OK]
    for d, n in experiments.FIGURE_RESIDUAL_CASES:
        for precond in PRECONDITION_KINDS:
            _note(f"residual history d={d} n={n} precond={precond}")
            report = run_solve(GridSpec(d, n), tol=args.tol, precondition=precond,
                               rhs=args.rhs, seed=args.seed)
            name = f"residuals_{d}d_n{n}_{precond}"
            write(name, RESIDUAL_HEADERS, residual_cells(report))
            codes.append(_unconverged(name, report.converged, report.iterations))
    return max(codes)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help exits through argparse
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    except (_UsageError, ValueError, OSError, SpectrumCapError, SolveMemoryError,
            NumericalBreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SpectrumCapError, SolveMemoryError)):
            return EXIT_RESOURCE
        if isinstance(exc, NumericalBreakdownError):
            return EXIT_NO_CONVERGENCE
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
