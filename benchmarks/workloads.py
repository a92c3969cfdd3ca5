"""The three benchmark workloads: how each builds its inputs, warms up, runs
one pass, deletes a pass's output files, and checks what a pass produced.

A workload calls masspcg through attribute lookups on the layer modules
(``m.experiments.run_solve``), never through names bound at import, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

#: masspcg's layer modules, in dependency order; the test-only oracle is not a layer.
LAYERS = ("grid", "operators", "spectrum", "solver", "experiments", "cli")

TOL = 1e-8
PRECONDITIONERS = ("none", "mass")
#: Iterations per solve in the warm-up of a CG workload: enough to fault in
#: the solver's vectors, far below any case's iteration count.
WARM_UP_ITERATIONS = 10


@dataclasses.dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def fresh_import() -> SimpleNamespace:
    """Import masspcg from scratch and return its package and layer modules.

    Earlier imports are dropped from ``sys.modules`` first, so every call pays
    the package's own import cost again (numpy stays imported).
    """
    for name in [name for name in sys.modules if name == "masspcg" or name.startswith("masspcg.")]:
        del sys.modules[name]
    importlib.import_module("masspcg.cli")
    return SimpleNamespace(
        package=sys.modules["masspcg"],
        **{layer: sys.modules[f"masspcg.{layer}"] for layer in LAYERS},
    )


def failed_count(checks: list[Check]) -> int:
    return sum(not check.ok for check in checks)


def exit_code(checks: list[Check]) -> int:
    """0 when every output check passed, else 1."""
    return 1 if failed_count(checks) else 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class CGInputs:
    m: SimpleNamespace
    seed: int
    specs: list
    rhs: list
    table_path: Path
    #: (d, n) -> (plain, mass) iteration counts of the checked reference
    #: solves, filled in by ``warm_up``
    reference_counts: dict = dataclasses.field(default_factory=dict)
    #: (d, n) -> the solver's default iteration cap
    caps: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class CGWorkload:
    """`masspcg table2` on a list of cases: plain and mass-preconditioned CG.

    A pass runs the program's own table path, ``table2_rows``,
    ``iteration_cells``, ``render_table`` and ``write_text``, which drops
    the solutions. The true residuals are therefore checked on the warm-up's
    reference solves, made once per run outside the timed region with the
    same ``run_solve`` arguments ``table2_rows`` uses; every pass must then
    print the reference solves' iteration counts.
    """

    name: str
    cases: tuple[tuple[int, int], ...]
    rhs: str
    #: (d, n) -> (plain, mass) iteration counts of the seed commit; empty when
    #: the counts depend on the benchmark seed
    expected_counts: dict = dataclasses.field(default_factory=dict)
    #: sha256 of the rendered table at the seed commit, None when seed-dependent
    expected_sha256: str | None = None

    @property
    def vector_size(self) -> int:
        return max(n**d for d, n in self.cases)

    def describe(self) -> list[str]:
        return [f"d={d} n={n} rhs={self.rhs} tol={TOL}" for d, n in self.cases]

    def setup(self, m: SimpleNamespace, seed: int, workdir: Path) -> CGInputs:
        specs = [m.grid.GridSpec(d, n) for d, n in self.cases]
        rhs = [m.experiments.make_rhs(spec, self.rhs, seed) for spec in specs]
        return CGInputs(m, seed, specs, rhs, workdir / f"{self.name}.csv")

    def reference_solves(self, inp: CGInputs) -> list:
        """(spec, precondition, SolveReport) of each solve a pass makes, in pass order."""
        return [
            (spec, precondition, inp.m.experiments.run_solve(
                spec, tol=TOL, precondition=precondition, rhs=self.rhs, seed=inp.seed, record_history=False,
            ))
            for spec in inp.specs
            for precondition in PRECONDITIONERS
        ]

    def check_solves(self, inp: CGInputs, solves: list) -> list[Check]:
        """Check the reference solves and record their counts for the passes."""
        m = inp.m
        rhs = {spec: b for spec, b in zip(inp.specs, inp.rhs)}
        checks = []
        for spec, precondition, report in solves:
            label = f"reference d={spec.d} n={spec.n} precond={precondition}"
            b = rhs[spec]
            residual = m.grid.norm2(b - m.operators.apply_laplacian(spec, report.solution)) / m.grid.norm2(b)
            checks += [
                Check(f"{label} converged", report.converged),
                Check(f"{label} true relative residual below tol", residual < TOL, f"{residual:.3e}"),
            ]
            inp.reference_counts.setdefault((spec.d, spec.n), []).append(report.iterations)
            inp.caps[spec.d, spec.n] = m.solver.SolveConfig().resolved_max_iter(spec)
        return checks

    def warm_up(self, inp: CGInputs) -> list[Check]:
        """The checked reference solves; they also fault in the solver's vectors."""
        return self.check_solves(inp, self.reference_solves(inp))

    def clear(self, inp: CGInputs):
        inp.table_path.unlink(missing_ok=True)

    def run_pass(self, inp: CGInputs) -> list:
        ex = inp.m.experiments
        rows = ex.table2_rows(self.cases, tol=TOL, rhs=self.rhs, seed=inp.seed)
        ex.write_text(ex.render_table(ex.ITERATION_HEADERS, ex.iteration_cells(rows)), str(inp.table_path))
        return rows

    def summarize(self, inp: CGInputs, rows: list) -> tuple[int, list[Check]]:
        """Total CG iterations of the pass and the output checks."""
        checks = [Check("one row per case", [(r.d, r.n) for r in rows] == list(self.cases), str(len(rows)))]
        for row in rows:
            label = f"d={row.d} n={row.n}"
            counts = [row.iterations, row.iterations_mass]
            reference = inp.reference_counts.get((row.d, row.n))
            checks += [
                Check(f"{label} converged", row.converged and row.converged_mass),
                Check(f"{label} iterations equal the reference solves'", counts == reference,
                      f"{counts} vs {reference}"),
            ]
            expected = self.expected_counts.get((row.d, row.n))
            if expected is not None:
                checks.append(Check(f"{label} iterations", counts == list(expected),
                                    f"{counts}, expected {list(expected)}"))
        checks += self._check_table(inp, rows)
        return sum(row.iterations + row.iterations_mass for row in rows), checks

    def _check_table(self, inp: CGInputs, rows: list) -> list[Check]:
        """The printed counts are the rows' counts, and none is an iteration cap."""
        if not inp.table_path.is_file():
            return [Check("table written", False, str(inp.table_path))]
        lines = inp.table_path.read_text(encoding="utf-8").splitlines()[1:]
        checks = [Check("table has one line per case", len(lines) == len(self.cases), f"{len(lines)} lines")]
        for line, row in zip(lines, rows):
            cap = inp.caps.get((row.d, row.n), 0)
            solved = [row.iterations, row.iterations_mass]
            fields = line.split(",")[3:5]
            printed = [int(f) for f in fields] if all(f.isdigit() for f in fields) else fields
            checks += [
                Check(f"d={row.d} n={row.n} printed counts match the solves", printed == solved,
                      f"{printed} vs {solved}"),
                Check(f"d={row.d} n={row.n} printed counts below the cap",
                      fields != printed and max(printed) < cap, f"{printed}, cap {cap}"),
            ]
        if self.expected_sha256 is not None:
            digest = sha256_file(inp.table_path)
            checks.append(Check("table sha256", digest == self.expected_sha256, digest))
        return checks


@dataclasses.dataclass(frozen=True)
class Command:
    """One `masspcg` command line, written to ``output`` under the work directory."""

    argv: tuple[str, ...]
    output: str
    sha256: str


@dataclasses.dataclass
class CLIInputs:
    m: SimpleNamespace
    argvs: list
    paths: list


@dataclasses.dataclass(frozen=True)
class CLIWorkload:
    """A list of `masspcg` commands run through ``masspcg.cli.main``."""

    name: str
    commands: tuple[Command, ...]
    #: largest vector the commands handle, for the copy roofline
    vector_size: int

    def describe(self) -> list[str]:
        return ["masspcg " + " ".join(c.argv) for c in self.commands]

    def setup(self, m: SimpleNamespace, seed: int, workdir: Path) -> CLIInputs:
        paths = [workdir / c.output for c in self.commands]
        argvs = [[*c.argv, "--out", str(path)] for c, path in zip(self.commands, paths)]
        return CLIInputs(m, argvs, paths)

    def warm_up(self, inp: CLIInputs) -> list[Check]:
        """One checked pass."""
        self.clear(inp)
        return self.summarize(inp, self.run_pass(inp))[1]

    def clear(self, inp: CLIInputs):
        for path in inp.paths:
            path.unlink(missing_ok=True)

    def run_pass(self, inp: CLIInputs) -> list[int]:
        return [inp.m.cli.main(argv) for argv in inp.argvs]

    def summarize(self, inp: CLIInputs, exit_codes: list[int]) -> tuple[int, list[Check]]:
        """Total CG iterations of the pass (from the residual histories) and the output checks."""
        checks, iterations = [], 0
        for command, path, code in zip(self.commands, inp.paths, exit_codes):
            checks.append(Check(f"{command.output} exit code 0", code == 0, str(code)))
            if not path.is_file():
                checks.append(Check(f"{command.output} written", False, str(path)))
                continue
            digest = sha256_file(path)
            checks.append(Check(f"{command.output} sha256", digest == command.sha256, digest))
            if command.argv[0] == "solve":
                # rows are iter 0..k after the header line
                iterations += len(path.read_text(encoding="utf-8").splitlines()) - 2
        return iterations, checks


WORKLOADS = {
    # The ROADMAP hot path: 2,097,152 unknowns, 16 MB per vector.
    "pcg3d": CGWorkload(
        name="pcg3d",
        cases=((3, 128),),
        rhs="ones",
        expected_counts={(3, 128): (319, 127)},
        expected_sha256="7afb9a80b2449697f3ccca68ce1c39aeefd81d0a4b2287201551821e2bcfcb0b",
    ),
    # `masspcg table2 --dim 2 --rhs random --seed <seed>`: cache-resident
    # vectors, so per-call overhead is a large share.
    "pcg2d": CGWorkload(
        name="pcg2d",
        cases=((2, 32), (2, 64), (2, 128), (2, 256)),
        rhs="random",
    ),
    # No CG to speak of: exact spectrum scans over up to 2048**3 frequency
    # tuples, a 65,536-row spectrum CSV, and the condition table. Formatting
    # a 2**20-row spectrum instead would make the pass mostly interpreted
    # Python, whose speed on a shared machine swings by a third from second
    # to second; the numpy scans stay within a few percent. The two small
    # solves keep this workload's iteration count above zero (under 10 ms).
    "spectra": CLIWorkload(
        name="spectra",
        commands=(
            Command(("table1",), "table1.csv",
                    "b8fa49c7dbafbebad5e7bebc1876377decef691d4fbc9e1382a8452df8e17c15"),
            Command(("condition", "--dim", "3", "--n", "512", "--n", "1024", "--n", "1536", "--n", "2048"),
                    "condition.csv", "54d78f8cf671eb42b81130decb003f52e1ab1661a11d546592d37583504f2b4b"),
            Command(("spectrum", "--dim", "2", "--n", "256", "--kind", "preconditioned"), "spectrum.csv",
                    "c018b1cabb8776dcb3f59974430963b10e0ab7ce47252eb4d555c8421b4b1187"),
            Command(("solve", "--dim", "2", "--n", "32", "--precond", "none"), "residuals_none.csv",
                    "998f8e2d5beccadd729ce88bc7fbca88d0b3bcc495850233e72b6e962326b6ab"),
            Command(("solve", "--dim", "2", "--n", "32", "--precond", "mass"), "residuals_mass.csv",
                    "b0dc3fbaae04f067a74529089d40587db3ef5d3155c84ad033af86cc48816b8c"),
        ),
        # the scans' largest chunk: 2048 rows of 2048 tuples
        vector_size=2048 * 2048,
    ),
}
