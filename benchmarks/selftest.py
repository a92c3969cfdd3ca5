"""Self-test of the benchmark's output checks, on tiny grids.

Each injected fault (a wrong iteration count, a residual above tol, a changed
output byte, an output file left unwritten) must make at least one check fail and the exit code non-zero;
unmodified passes must pass every check. It also checks that the tracer
counts calls made through from-imported names and restores every binding.

    python3 benchmarks/run.py --self-test
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from tracer import Tracer
from workloads import CGWorkload, CLIWorkload, Command, exit_code, failed_count, fresh_import

TINY_CG = CGWorkload(
    name="pcg3d-tiny",
    cases=((3, 8),),
    rhs="ones",
    expected_counts={(3, 8): (18, 11)},
    expected_sha256="887c24617efe22f5e1e5043d5d3a630a735df95c2aa3531b7d5b0e19feae1b17",
)
TINY_CLI = CLIWorkload(
    name="spectra-tiny",
    commands=(
        Command(("table1", "--n", "4"), "table1.csv",
                "9dcf07ee2e1ee237d546c42374ea1cb7f52462332e02c9e2791a64d6565e5478"),
        Command(("spectrum", "--dim", "2", "--n", "8", "--kind", "preconditioned"), "spectrum.csv",
                "799c8f243077e67821b96b3b3825f6fb2a08301bb680622d3e8104a676066918"),
        Command(("solve", "--dim", "1", "--n", "8", "--precond", "mass"), "residuals.csv",
                "b016d7fb89e146997586f3da029630a26a3d83b1008e79b94caa93cee85c1427"),
    ),
    vector_size=64,
)


def _flip_last_digit(path: Path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x01  # the last character before the final newline
    path.write_bytes(bytes(data))


def residual_above_tol(solves: list) -> list:
    spec, precondition, report = solves[0]
    solves[0] = (spec, precondition, dataclasses.replace(report, solution=report.solution * (1 + 1e-3)))
    return solves


def wrong_iteration_count(inp, rows: list) -> list:
    rows[0] = dataclasses.replace(rows[0], iterations=rows[0].iterations + 1)
    return rows


def changed_table_byte(inp, rows: list) -> list:
    _flip_last_digit(inp.table_path)
    return rows


def table_not_written(inp, rows: list) -> list:
    inp.table_path.unlink()
    return rows


def changed_output_byte(inp, exit_codes: list[int]) -> list[int]:
    _flip_last_digit(inp.paths[1])
    return exit_codes


def output_not_written(inp, exit_codes: list[int]) -> list[int]:
    inp.paths[1].unlink()
    return exit_codes


def _checks(workload, m, workdir: Path, fault_solves=None, fault_pass=None) -> list:
    """The checks of a warm-up and one pass, as a run makes them, with a fault injected."""
    inp = workload.setup(m, 0, workdir)
    if isinstance(workload, CGWorkload):
        solves = workload.reference_solves(inp)
        checks = workload.check_solves(inp, fault_solves(solves) if fault_solves else solves)
    else:
        checks = workload.warm_up(inp)
    workload.clear(inp)
    out = workload.run_pass(inp)
    if fault_pass is not None:
        out = fault_pass(inp, out)
    return checks + workload.summarize(inp, out)[1]


def _check_tracer(m) -> list[str]:
    """Problems found when tracing one small solve; empty when none."""
    originals = {name: getattr(m.solver, name) for name in ("apply_laplacian", "dot", "cg_solve")}
    tracer = Tracer()
    with tracer.installed(m):
        m.experiments.run_solve(m.grid.GridSpec(2, 8))
    problems = []
    for name in ("solver.cg_solve", "operators.apply_laplacian", "grid.dot", "experiments.run_solve"):
        if not tracer.stats[name].calls:
            problems.append(f"tracer saw no call of {name}")
    for name, original in originals.items():
        if getattr(m.solver, name) is not original:
            problems.append(f"masspcg.solver.{name} was not restored")
    return problems


def main(workdir: Path) -> int:
    m = fresh_import()
    cases = [
        ("clean CG run", TINY_CG, {}),
        ("clean CLI run", TINY_CLI, {}),
        ("wrong iteration count", TINY_CG, {"fault_pass": wrong_iteration_count}),
        ("residual above tol", TINY_CG, {"fault_solves": residual_above_tol}),
        ("changed table byte", TINY_CG, {"fault_pass": changed_table_byte}),
        ("table not written", TINY_CG, {"fault_pass": table_not_written}),
        ("changed output byte", TINY_CLI, {"fault_pass": changed_output_byte}),
        ("output not written", TINY_CLI, {"fault_pass": output_not_written}),
    ]
    all_ok = True
    for label, workload, faults in cases:
        checks = _checks(workload, m, workdir, **faults)
        failed, code = failed_count(checks), exit_code(checks)
        ok = (failed > 0 and code != 0) if faults else (failed == 0 and code == 0)
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed} of {len(checks)} checks failed, exit code {code}")
        for check in checks:
            if not check.ok:
                print(f"       failed check: {check.name}: {check.detail}")
    problems = _check_tracer(m)
    all_ok &= not problems
    print(f"{'ok  ' if not problems else 'FAIL'} tracer counts and restores: {'; '.join(problems) or 'as expected'}")
    print("self-test passed" if all_ok else "self-test FAILED")
    return 0 if all_ok else 1
