import collections
import hashlib
import tracemalloc

import numpy as np
import pytest

import masspcg._sweeps as sweeps
import masspcg.operators as operators
import masspcg.solver as solver
from masspcg import (
    GridSpec,
    NumericalBreakdownError,
    SolveConfig,
    apply_laplacian,
    apply_mass,
    cg_solve,
    dot,
    norm2,
)
from test_operators import stencil_kernels

SPECS = [GridSpec(1, 40), GridSpec(2, 12), GridSpec(3, 5)]


def residual_norm(spec, x, b):
    return norm2(b - apply_laplacian(spec, x))


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("precondition", ["none", "mass"])
def test_cg_reaches_tolerance(spec, precondition):
    rng = np.random.default_rng(13)
    b = rng.standard_normal(spec.size)
    config = SolveConfig(tol=1e-9, precondition=precondition)
    report = cg_solve(spec, b, config=config)
    assert report.converged
    assert report.replacements == 0
    assert residual_norm(spec, report.solution, b) <= 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_both_variants_reach_same_solution(spec):
    rng = np.random.default_rng(19)
    b = rng.standard_normal(spec.size)
    x_plain = cg_solve(spec, b, config=SolveConfig(tol=1e-11)).solution
    x_mass = cg_solve(spec, b, config=SolveConfig(tol=1e-11, precondition="mass")).solution
    np.testing.assert_allclose(x_plain, x_mass, rtol=0, atol=1e-9)


def test_history_starts_at_initial_residual_and_ends_below_tol():
    spec = GridSpec(2, 10)
    b = np.ones(spec.size)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-8))
    h = report.residual_history
    assert h[0] == pytest.approx(norm2(b), rel=1e-15)
    assert len(h) == report.iterations + 1
    assert h[-1] <= 1e-8


def test_single_unknown_converges_in_one_iteration():
    spec = GridSpec(1, 1)
    report = cg_solve(spec, np.ones(1), config=SolveConfig(tol=1e-12))
    assert report.converged
    assert report.iterations == 1
    assert report.residual_history[-1] <= 1e-12


def test_zero_rhs_gives_zero_solution():
    spec = GridSpec(1, 5)
    report = cg_solve(spec, np.zeros(5))
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(report.solution, np.zeros(5))


def test_max_iter_reports_non_convergence():
    spec = GridSpec(2, 16)
    report = cg_solve(spec, np.ones(spec.size), config=SolveConfig(tol=1e-10, max_iter=3))
    assert not report.converged
    assert report.iterations == 3


def test_record_history_off():
    spec = GridSpec(1, 10)
    report = cg_solve(spec, np.ones(10), config=SolveConfig(record_history=False))
    assert report.residual_history is None
    assert report.converged


def test_finite_termination_on_tiny_system():
    # exact-arithmetic CG terminates in at most size steps; with rounding a
    # small cushion suffices
    spec = GridSpec(1, 8)
    b = np.ones(8)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-10))
    assert report.iterations <= 9


def test_identity_preconditioner_equivalence():
    # the plain path is algebraically PCG with the identity operator; check
    # against an independent textbook CG recurrence, history and solution
    spec = GridSpec(2, 9)
    rng = np.random.default_rng(29)
    b = rng.standard_normal(spec.size)
    tol = 1e-9

    x = np.zeros(spec.size)
    r = b.copy()
    p = r.copy()
    rr = dot(r, r)
    history = [np.sqrt(rr)]
    while history[-1] > tol:
        ap = apply_laplacian(spec, p)
        alpha = rr / dot(p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        rr_new = dot(r, r)
        history.append(np.sqrt(rr_new))
        p = r + (rr_new / rr) * p
        rr = rr_new

    report = cg_solve(spec, b, config=SolveConfig(tol=tol))
    assert report.iterations == len(history) - 1
    np.testing.assert_allclose(report.residual_history, history, rtol=1e-10)
    np.testing.assert_allclose(report.solution, x, rtol=0, atol=1e-12)


def test_energy_decreases_monotonically():
    # CG minimizes the energy functional over growing Krylov subspaces, so
    # truncated runs produce strictly decreasing energies until convergence
    spec = GridSpec(2, 8)
    rng = np.random.default_rng(37)
    b = rng.standard_normal(spec.size)

    def energy(x):
        return 0.5 * dot(x, apply_laplacian(spec, x)) - dot(b, x)

    full = cg_solve(spec, b, config=SolveConfig(tol=1e-5))
    energies = []
    for i in range(1, full.iterations + 1):
        x_i = cg_solve(spec, b, config=SolveConfig(tol=1e-5, max_iter=i)).solution
        energies.append(energy(x_i))
    assert all(a > b_ for a, b_ in zip(energies, energies[1:]))


def test_mass_preconditioning_reduces_iterations():
    spec = GridSpec(2, 32)
    b = np.ones(spec.size)
    plain = cg_solve(spec, b, config=SolveConfig(tol=1e-8, record_history=False))
    mass = cg_solve(spec, b, config=SolveConfig(tol=1e-8, precondition="mass", record_history=False))
    assert mass.iterations < plain.iterations


def test_preconditioning_is_multiply_only():
    # the preconditioned step must apply the mass operator to the residual,
    # never solve with it: seed CG with one step and check the first search
    # direction is exactly M r0
    spec = GridSpec(2, 7)
    rng = np.random.default_rng(41)
    b = rng.standard_normal(spec.size)
    one_step = cg_solve(spec, b, config=SolveConfig(tol=1e-16, max_iter=1))
    z0 = b  # plain path: z = r
    alpha0 = dot(b, z0) / dot(z0, apply_laplacian(spec, z0))
    np.testing.assert_allclose(one_step.solution, alpha0 * z0, rtol=1e-13)

    one_step_mass = cg_solve(spec, b, config=SolveConfig(tol=1e-16, max_iter=1, precondition="mass"))
    z0 = apply_mass(spec, b)
    alpha0 = dot(b, z0) / dot(z0, apply_laplacian(spec, z0))
    np.testing.assert_allclose(one_step_mass.solution, alpha0 * z0, rtol=1e-13)


def test_complex_rhs_rejected():
    # the float64 cast would drop the imaginary part and solve for the real
    # part alone, with only a ComplexWarning
    spec = GridSpec(2, 4)
    with pytest.raises(TypeError, match="^b is complex"):
        cg_solve(spec, np.ones(spec.size) + 1j)
    with pytest.raises(TypeError, match="^b is complex"):
        cg_solve(spec, list(np.ones(spec.size) + 0j))


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(tol=-1e-8)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolveConfig(precondition="jacobi")


def test_drift_guard_replaces_residual_at_accuracy_floor(monkeypatch):
    # the CLI's `solve --dim 1 --n 6 --precond none --tol 1e-300`: the
    # recursive residual falls far below what the true residual can reach, so
    # the drift guard fires and CG resumes from the true residual, written
    # into r in place (z is r in plain CG)
    calls = counted_kernels(monkeypatch).calls
    spec = GridSpec(1, 6)
    b = np.ones(spec.size)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-300 * norm2(b)))
    assert not report.converged
    assert report.iterations == 60
    # one sweep per iteration plus one per drift check, and both checks
    # replaced the residual
    assert calls["laplacian"] + calls["xp_laplacian"] == 62
    assert report.replacements == 2
    h = report.residual_history
    jump = int(np.argmax(h[1:] / h[:-1])) + 1
    assert h[jump - 1] < 1e-150
    assert h[jump] == pytest.approx(1.15e-15, rel=0.01, abs=0.0)
    assert h[-1] == pytest.approx(1.15e-15, rel=0.01, abs=0.0)


@pytest.mark.parametrize("precondition, per_iteration", [("none", 2), ("mass", 3)])
def test_residual_norm_shares_the_r_dot_r_reduction(precondition, per_iteration, monkeypatch):
    # per iteration: <p, Ap>, r·r (giving ||r|| and, in plain CG, <z, r>)
    # and <z, r> in mass PCG; never a separate norm2
    calls = {"dot": 0, "norm2": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(solver, "dot", counting("dot", dot))
    monkeypatch.setattr(solver, "norm2", counting("norm2", norm2), raising=False)
    spec = GridSpec(2, 16)
    b = np.ones(spec.size)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-8 * norm2(b), precondition=precondition))
    assert report.converged and report.replacements == 0
    # plus r·r before the loop and in the one drift check; mass PCG also
    # takes <z, r> before the loop but not after the last update
    assert calls["dot"] == per_iteration * report.iterations + 2
    assert calls["norm2"] == 0


def test_zr_underflow_stops_unconverged():
    # mass PCG at a tolerance below the attainable accuracy: <z, r>
    # underflows to 0.0 with a finite residual, which is the accuracy floor,
    # not a breakdown
    spec = GridSpec(1, 6)
    b = np.ones(spec.size)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-300 * norm2(b), precondition="mass"))
    assert not report.converged
    assert 0 < report.iterations < 60
    assert len(report.residual_history) == report.iterations + 1
    assert 0.0 < report.residual_history[-1] < 1e-150
    # with b this small the last step is not lost in x's rounding: the
    # solution has the last residual recorded, not the one before (150x it)
    spec = GridSpec(2, 8)
    b = np.full(spec.size, 1e-154)
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-300, precondition="mass"))
    assert (report.iterations, report.converged) == (8, False)
    last = report.residual_history[-1]
    assert residual_norm(spec, report.solution, b) == pytest.approx(last, rel=0.1, abs=0.0)


class CountedKernels:
    """A kernel table that serves through ``kernels`` and counts the calls of
    each kernel by name, then hands each call's arguments to ``after``."""

    def __init__(self, kernels, after=None):
        self.kernels, self.after, self.calls = kernels, after, collections.Counter()

    def __getattr__(self, name):
        kernel = getattr(self.kernels, name)

        def counted(*args):
            self.calls[name] += 1
            result = kernel(*args)
            if self.after is not None:
                self.after(name, args)
            return result

        return counted


def counted_kernels(monkeypatch, after=None):
    # the kernel table sees every operator application, bound once per solve
    # or made through apply_laplacian and apply_mass
    table = CountedKernels(operators._backend(), after)
    monkeypatch.setattr(operators, "_kernels", table)
    return table


#: Position of the output vector in the arguments of each operator kernel.
OUT_ARGUMENT = {"laplacian": 3, "xp_laplacian": 5, "mass": 3}


def negating(kernels):
    """An ``after`` hook that negates the result of the named kernels in
    place: negative definite, which no SPD operator is, so CG must break
    down rather than iterate."""

    def after(name, args):
        if name in kernels:
            out = args[OUT_ARGUMENT[name]]
            out = getattr(out, "vector", out)  # a bound library vector keeps its array
            np.negative(out, out=out)

    return after


@pytest.mark.parametrize("precondition", ["none", "mass"])
def test_non_finite_rhs_breaks_down(precondition):
    spec = GridSpec(2, 4)
    b = np.ones(spec.size)
    b[5] = np.nan
    with pytest.raises(NumericalBreakdownError, match="non-finite residual norm"):
        cg_solve(spec, b, config=SolveConfig(precondition=precondition))


@pytest.mark.parametrize("operator, precondition, inner", [
    ("apply_laplacian", "none", "<p, Ap>"),
    ("apply_laplacian", "mass", "<p, Ap>"),
    ("apply_mass", "mass", "<z, r>"),
])
def test_negative_definite_operator_breaks_down(operator, precondition, inner, monkeypatch):
    kernels = {"apply_laplacian": ("laplacian", "xp_laplacian"), "apply_mass": ("mass",)}[operator]
    counted_kernels(monkeypatch, negating(kernels))
    spec = GridSpec(2, 4)
    with pytest.raises(NumericalBreakdownError, match=rf"^{inner} = -\S+ is not positive$"):
        cg_solve(spec, np.ones(spec.size), config=SolveConfig(precondition=precondition))


@pytest.mark.parametrize("spec, tol, max_iter, replacements", [
    (GridSpec(2, 16), 1e-8, None, 0),  # converged at the first drift check
    (GridSpec(1, 6), 1e-15, None, 1),  # one replacement, then converged
    (GridSpec(2, 16), 1e-8, 3, 0),  # capped before any drift check
], ids=["converged", "replaced", "capped"])
def test_mass_pcg_calls_per_iteration(spec, tol, max_iter, replacements, monkeypatch):
    # per iteration one Laplacian, one mass multiply and three dots; each
    # drift check adds a Laplacian and a dot
    calls = counted_kernels(monkeypatch).calls
    dots = []
    monkeypatch.setattr(solver, "dot", lambda *args: dots.append(1) or dot(*args))
    b = np.ones(spec.size)
    report = cg_solve(spec, b, config=SolveConfig(tol=tol * norm2(b), max_iter=max_iter,
                                                  precondition="mass"))
    it, converged = report.iterations, report.converged
    assert report.replacements == replacements
    assert converged == (max_iter is None)
    checks = replacements + converged
    assert calls["laplacian"] + calls["xp_laplacian"] == it + checks
    # M r0 before the loop; none after the update that converged
    assert calls["mass"] == 1 + it - converged
    # r·r and <z, r> before the loop; <p, Ap> and r·r per iteration, r·r per
    # drift check, <z, r> per iteration but the one that converged
    assert len(dots) == 2 + 2 * it + checks + (it - converged)


@pytest.mark.parametrize("precondition", ["none", "mass"])
@pytest.mark.parametrize("spec, b, tol, max_iter", [
    (GridSpec(2, 4), 0.0, 1e-8, None),  # r0 passes: no iteration
    (GridSpec(2, 16), 1.0, 1e-8, None),  # converged at the first drift check
    (GridSpec(1, 6), 1.0, 1e-300, None),  # replaced; capped (plain) or <z, r> underflow (mass)
    (GridSpec(1, 6), 1.0, 1e-15, None),  # replaced, then converged in mass PCG
    (GridSpec(2, 16), 1.0, 1e-8, 3),  # capped before any drift check
], ids=["initial", "converged", "accuracy-floor", "replaced", "capped"])
def test_report_counts_the_kernel_calls(spec, b, tol, max_iter, precondition, monkeypatch):
    # the solver counts its own work; the kernel table sees every sweep,
    # bound once per solve or made by name, on every way a solve ends
    calls = counted_kernels(monkeypatch).calls
    b = np.full(spec.size, b)
    report = cg_solve(spec, b, config=SolveConfig(tol=tol * max(norm2(b), 1.0), max_iter=max_iter,
                                                  precondition=precondition))
    it = report.iterations
    assert report.laplacian_applications == calls["laplacian"] + calls["xp_laplacian"]
    assert report.laplacian_applications == it + report.drift_checks
    assert calls["xp_laplacian"] == max(it - 1, 0)
    assert report.mass_applications == calls["mass"]
    assert report.drift_checks == report.replacements + (report.converged and it > 0)
    # M r0 when r0 fails, then one per iteration but one that converged
    expected = 1 + it - report.converged if it else 0
    assert report.mass_applications == (expected if precondition == "mass" else 0)


def test_mass_drift_guard_through_the_shared_buffer(monkeypatch):
    # the drift guard builds its candidate x + p*alpha in the buffer that
    # holds Ap and z = M r, and writes A times it into r; after the
    # replacement x gains p*alpha only in the next direction update. The
    # replacement and every bit of the result are those of a solve with a
    # separate z and x updated with r (digest recorded before either change)
    spec = GridSpec(1, 6)
    b = np.ones(spec.size)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        report = cg_solve(spec, b, config=SolveConfig(tol=1e-15 * norm2(b), precondition="mass"))
        assert (report.iterations, report.converged, report.replacements) == (4, True, 1)
        digest = hashlib.sha256(report.residual_history.tobytes() + report.solution.tobytes())
        assert digest.hexdigest() == "05dcbb5543276dfe11a37b7587298c30bc5520fba7cd4652895b3b172ee3ec52"


@pytest.mark.parametrize("spec, tol, max_iter, precondition, outcome, digest", [
    (GridSpec(1, 6), 1e-300, None, "none", (60, False, 2),
     "b208c7457b469f9b858c0c1c32cfe2f27e0688f2660d06fc8a969346f81b8ff7"),
    (GridSpec(1, 6), 1e-300, None, "mass", (51, False, 0),
     "dadb084a150a34663d466a6d5b3a2234d2b7e006529eb6d55bba65fa8af7d4db"),
    (GridSpec(1, 6), 1e-15, None, "mass", (4, True, 1),
     "46876f28ccc1726131b1ed2c34dfcb20576a628d312783fa8aff6b2b68be630b"),
    (GridSpec(2, 16), 1e-8, 3, "none", (3, False, 0),
     "7c0bd52b73a93c1b186938f2ed4915703016c4b0d84b984b7fbd86fa1ecf5ab2"),
    (GridSpec(2, 16), 1e-8, 3, "mass", (3, False, 0),
     "02d215ab55de87928a2f95f70be80736501f96700474c5f735a5f446bb847fc8"),
    (GridSpec(3, 12), 1e-8, None, "mass", (13, True, 0),
     "168b208ade26628f2b57dd981a67da47c9fb6bf140bba37b55ac15ef0412d85c"),
    (GridSpec(2, 64), 1e-8, None, "none", (119, True, 0),
     "a972a84f192a7feaa27c04de799dc1902a485585311af1b40b806d7d4cd4498f"),
], ids=["capped-replaced", "zr-underflow", "mass-replaced", "max-iter-plain", "max-iter-mass",
        "converged-3d-mass", "converged-2d-plain"])
def test_every_exit_path_keeps_its_bits(spec, tol, max_iter, precondition, outcome, digest,
                                        monkeypatch):
    # the solution, residual history and outcome of each way a solve ends, on
    # every backend and clone; x is updated a pass after r, so an exit that skipped
    # bringing it up to date would change the solution's bits (digests
    # recorded when x and r were updated in one step)
    b = np.ones(spec.size)
    config = SolveConfig(tol=tol * norm2(b), max_iter=max_iter, precondition=precondition)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        report = cg_solve(spec, b, config=config)
        got = (report.iterations, report.converged, report.replacements)
        assert got == outcome, kernels
        data = report.solution.tobytes() + report.residual_history.tobytes() + repr(got).encode()
        assert hashlib.sha256(data).hexdigest() == digest, kernels


def test_work_vectors_start_on_a_page(monkeypatch):
    # the kernels store in place, and a store stalls later loads that map to
    # its address modulo 4096, as in consecutive heap blocks: a solve puts x,
    # r, p and Ap (z too) on pages, where no load maps to a recent store, and
    # so the mass scratch plane
    bound = []
    counted_kernels(monkeypatch, lambda name, args: bound.extend(args) if name == "bind" else None)
    for precondition in ("none", "mass"):
        cg_solve(GridSpec(2, 16), np.ones(256), config=SolveConfig(max_iter=2, precondition=precondition))
    assert len([v for v in bound if v.size == 256]) == 10
    assert all(v.ctypes.data % 4096 == 0 for v in bound)


@pytest.mark.parametrize("precondition", ["none", "mass"])
def test_solve_stays_within_its_work_vectors(precondition, monkeypatch):
    # more than CHUNK values, so the numpy update's temporary is a chunk; the
    # caller's b is allocated before tracing, so a solve may add the other
    # WORK_VECTORS - 1, the mass scratch plane, that chunk and small change
    spec = GridSpec(3, 48)
    assert spec.size > sweeps.CHUNK
    b = np.ones(spec.size)
    config = SolveConfig(tol=1e-8 * norm2(b), precondition=precondition, record_history=False)
    budget = (solver.WORK_VECTORS - 1) * 8 * spec.size + 8 * spec.n**2 + 8 * sweeps.CHUNK + (64 << 10)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        tracemalloc.start()
        try:
            report = cg_solve(spec, b, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak <= budget, (kernels, peak / (8 * spec.size))
