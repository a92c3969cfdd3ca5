import hashlib

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
from test_operators import CountedKernels, stencil_kernels
from tracing import traced_peak

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


def test_bool_is_neither_an_integer_nor_a_tolerance():
    # bool subclasses int: True made the grid n=1 or 1D, a cap of one
    # iteration, or tol 1.0
    for make in (lambda flag: GridSpec(2, flag), lambda flag: GridSpec(flag, 4),
                 lambda flag: SolveConfig(max_iter=flag), lambda flag: SolveConfig(tol=flag)):
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="must be"):
                make(flag)


@pytest.mark.parametrize("field, value", [("tol", "1e-8"), ("tol", None), ("tol", [1e-8]),
                                          ("record_history", "no"), ("record_history", None),
                                          ("record_history", 0)])
def test_config_refuses_a_value_of_another_type(field, value):
    # a string or None tol failed the > comparison with a bare TypeError, and
    # a truthy string recorded the history
    with pytest.raises(ValueError, match=f"{field} must be"):
        SolveConfig(**{field: value})


def test_config_takes_numpy_scalars():
    config = SolveConfig(tol=np.float64(1e-8), record_history=np.False_)
    assert config.tol == 1e-8 and not config.record_history
    assert SolveConfig(tol=np.float32(1e-3), record_history=True).tol > 0


def test_max_iter_must_be_an_integer():
    # a fractional cap would run past itself (2.5 ran 3 iterations, reported
    # as the cap); integers of numpy's types pass, as GridSpec's n does
    for max_iter in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            SolveConfig(max_iter=max_iter)
    spec = GridSpec(2, 16)
    report = cg_solve(spec, np.ones(spec.size), config=SolveConfig(max_iter=np.int64(3)))
    assert (report.iterations, report.stop) == (3, "cap")


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
    # takes <z, r> at the start of each pass, none after the last update
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
    # M r0 in the first pass; none after the update that converged
    assert calls["mass"] == 1 + it - converged
    # r·r before the loop and <z, r> in the first pass; <p, Ap> and r·r per
    # iteration, r·r per drift check, <z, r> per iteration but the one that
    # converged
    assert len(dots) == 2 + 2 * it + checks + (it - converged)


@pytest.mark.parametrize("precondition", ["none", "mass"])
@pytest.mark.parametrize("spec, b, tol, max_iter, stops", [
    (GridSpec(2, 4), 0.0, 1e-8, None, ("tol", "tol")),  # r0 passes: no iteration
    (GridSpec(2, 16), 1.0, 1e-8, None, ("tol", "tol")),  # converged at the first drift check
    # replaced; capped (plain) or <z, r> underflow (mass)
    (GridSpec(1, 6), 1.0, 1e-300, None, ("cap", "underflow")),
    (GridSpec(1, 6), 1.0, 1e-15, None, ("tol", "tol")),  # replaced, then converged in mass PCG
    (GridSpec(2, 16), 1.0, 1e-8, 3, ("cap", "cap")),  # capped before any drift check
], ids=["initial", "converged", "accuracy-floor", "replaced", "capped"])
def test_report_counts_the_kernel_calls(spec, b, tol, max_iter, stops, precondition, monkeypatch):
    # the solver counts its own work; the kernel table sees every sweep,
    # bound once per solve or made by name, on every way a solve ends
    calls = counted_kernels(monkeypatch).calls
    b = np.full(spec.size, b)
    report = cg_solve(spec, b, config=SolveConfig(tol=tol * max(norm2(b), 1.0), max_iter=max_iter,
                                                  precondition=precondition))
    it = report.iterations
    assert report.laplacian_applications == calls["laplacian"] + calls["xp_laplacian"]
    assert report.laplacian_applications == it + report.drift_checks
    assert calls["xp_laplacian"] == it
    assert calls["laplacian"] == report.drift_checks
    assert report.mass_applications == calls["mass"]
    assert report.drift_checks == report.replacements + (report.converged and it > 0)
    # M r0 when r0 fails, then one per iteration but one that converged,
    # each at the start of a pass
    expected = 1 + it - report.converged if it else 0
    assert report.mass_applications == (expected if precondition == "mass" else 0)
    assert report.stop == stops[precondition == "mass"]
    assert report.converged == (report.stop == "tol")


def test_mass_drift_guard_through_the_shared_buffer(monkeypatch):
    # the drift guard builds x + p*alpha in the buffer that holds Ap and
    # z = M r, and writes b - A(x + p*alpha) into r; after the replacement
    # the next direction update adds that p*alpha to x. The replacement and
    # every bit of the result are those of a solve with a separate z and x
    # updated with r (digest recorded before either change)
    spec = GridSpec(1, 6)
    b = np.ones(spec.size)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        report = cg_solve(spec, b, config=SolveConfig(tol=1e-15 * norm2(b), precondition="mass"))
        assert (report.iterations, report.converged, report.replacements) == (4, True, 1)
        digest = hashlib.sha256(report.residual_history.tobytes() + report.solution.tobytes())
        assert digest.hexdigest() == "05dcbb5543276dfe11a37b7587298c30bc5520fba7cd4652895b3b172ee3ec52"


def rhs_pattern(spec, rhs):
    # ones, -0.0 every third entry of ones, or -0.0 everywhere but one entry
    b = np.full(spec.size, -0.0 if rhs == "one" else 1.0)
    if rhs == "thirds":
        b[::3] = -0.0
    elif rhs == "one":
        b[spec.size // 2] = 1.0
    return b


@pytest.mark.parametrize("spec, rhs, tol, max_iter, precondition, outcome, digest", [
    (GridSpec(1, 6), "ones", 1e-300, None, "none", (60, False, 2),
     "b208c7457b469f9b858c0c1c32cfe2f27e0688f2660d06fc8a969346f81b8ff7"),
    (GridSpec(1, 6), "ones", 1e-300, None, "mass", (51, False, 0),
     "dadb084a150a34663d466a6d5b3a2234d2b7e006529eb6d55bba65fa8af7d4db"),
    (GridSpec(1, 6), "ones", 1e-15, None, "mass", (4, True, 1),
     "46876f28ccc1726131b1ed2c34dfcb20576a628d312783fa8aff6b2b68be630b"),
    (GridSpec(2, 16), "ones", 1e-8, 3, "none", (3, False, 0),
     "7c0bd52b73a93c1b186938f2ed4915703016c4b0d84b984b7fbd86fa1ecf5ab2"),
    (GridSpec(2, 16), "ones", 1e-8, 3, "mass", (3, False, 0),
     "02d215ab55de87928a2f95f70be80736501f96700474c5f735a5f446bb847fc8"),
    (GridSpec(3, 12), "ones", 1e-8, None, "mass", (13, True, 0),
     "168b208ade26628f2b57dd981a67da47c9fb6bf140bba37b55ac15ef0412d85c"),
    (GridSpec(2, 64), "ones", 1e-8, None, "none", (119, True, 0),
     "a972a84f192a7feaa27c04de799dc1902a485585311af1b40b806d7d4cd4498f"),
    # signed-zero right-hand sides: the first sweep makes p = 0*0 + z, where
    # a copy of z made p before (digests recorded with that copy)
    (GridSpec(1, 6), "thirds", 1e-300, None, "none", (60, False, 0),
     "2366240af7018682aeb432fcdd69426f4195bfdaf4ec67cad67792bc17ead993"),
    (GridSpec(1, 6), "thirds", 1e-300, None, "mass", (60, False, 1),
     "11651e9111d240423dc47b94814c25bfe69b99d2ad2ecfcb5a1c216f8803fb96"),
    (GridSpec(1, 6), "thirds", 1e-15, None, "mass", (7, True, 1),
     "b1df922c84dfe657dccc9ccbbd81d7c683770e08d00bf683128ecb642833692a"),
    (GridSpec(2, 16), "thirds", 1e-8, 3, "mass", (3, False, 0),
     "86029f978fb72856353ef1e888f22295e33e915060c20e6be9e8e0d98114a6f8"),
    (GridSpec(3, 12), "thirds", 1e-8, None, "mass", (16, True, 0),
     "fb3731caf0e643a907f7b8a372bddedec003921f5c54408d2a8a11955ff56af4"),
    (GridSpec(2, 16), "thirds", 1e-8, None, "none", (38, True, 0),
     "865449bd89042bcd14fa9ed589ee9c2f6ff243f0bfa1f875f20e84dc54ee4d7e"),
    (GridSpec(1, 6), "thirds", 1e-8, 1, "mass", (1, False, 0),
     "14f0da91f3d3ab941c73ed7e4d72ef9df8f4964dcd32c0556e53e7a0971da0a9"),
    (GridSpec(1, 6), "thirds", 1e-8, 1, "none", (1, False, 0),
     "f8b568c3c0b8796b991014e1d61e1ad72c09523db0b0ce0e0850b3a3faa68e12"),
    (GridSpec(1, 6), "one", 1e-300, None, "none", (60, False, 0),
     "3ef062fdfc87e424e53aec5dcdaaca0ee29a975e77062c9b81ae44d025d7df05"),
    (GridSpec(1, 6), "one", 1e-300, None, "mass", (60, False, 1),
     "271eb84706e846ad36f613b4a994ec3d2aa2fe67c587a07d4b08ffea5c750856"),
    (GridSpec(1, 6), "one", 1e-15, None, "mass", (6, True, 0),
     "81373a574e7fe766384449c09714ea7ad3b5c99f7b3f415ddcb512493de0c53f"),
    (GridSpec(2, 16), "one", 1e-8, 3, "mass", (3, False, 0),
     "ecae1f5c1b68bbc73bd3cbdcba69a6dc550152463cd44e4754e37ebf478514b5"),
    (GridSpec(3, 12), "one", 1e-8, None, "mass", (20, True, 0),
     "03a8725d54a6b0dfafcb6e51ed02c6345488fba39bbbf0a92c193c25bdfbae76"),
    (GridSpec(2, 16), "one", 1e-8, None, "none", (52, True, 0),
     "3226d41766abceaff74fb2e34ef89790ef9b2245e2c9a4a55be725ee7b477262"),
    (GridSpec(1, 6), "one", 1e-8, 1, "mass", (1, False, 0),
     "907548f3744718f019b00ae214b00954a5b6c6bfa54a0124ae1fa7e54bb77157"),
    (GridSpec(1, 6), "one", 1e-8, 1, "none", (1, False, 0),
     "3802cb66febae6e61b69a570bfe34b9f8fe1a4fd30e7ed500d3acc8faedf93ee"),
    # the cap right after a replacement: x lacks the p*alpha the drift guard
    # tested, and takes it after the loop (digests recorded when the next
    # sweep added it)
    (GridSpec(1, 6), "ones", 1e-300, 3, "none", (3, False, 1),
     "9d3087ff5c4e20f147bd1719818a2d31197e68c7784ac8e15a28158fa250dac0"),
    (GridSpec(1, 6), "ones", 1e-15, 3, "mass", (3, False, 1),
     "ac66a865b8c680eb9fa032fab03818facd43886e76317786ea39bea4333ac42b"),
    # plain CG converged after replacements: the sweep after each adds the
    # tested p*alpha, and the last is added after the loop (digests recorded
    # when the drift guard added each to x itself)
    (GridSpec(2, 8), "ones", 2e-15, None, "none", (11, True, 1),
     "9983a3368bb77b42f83513ba43727fb785f9a9a6de0428122f369a3a84da31ea"),
    (GridSpec(2, 7), "ones", 1e-15, None, "none", (12, True, 3),
     "369efe6bcba5b8c06bf2849ba4a074eb228e2e4ac4cc7dac6be5821ff9dc0a0c"),
], ids=["capped-replaced", "zr-underflow", "mass-replaced", "max-iter-plain", "max-iter-mass",
        "converged-3d-mass", "converged-2d-plain",
        *(f"{rhs}-{case}" for rhs in ("thirds", "one") for case in (
            "capped-plain", "capped-mass", "converged-1d-mass", "max-iter-mass", "converged-3d-mass",
            "converged-2d-plain", "first-iteration-mass", "first-iteration-plain")),
        "capped-after-replacement-plain", "capped-after-replacement-mass",
        "replaced-then-converged-plain", "replaced-thrice-then-converged-plain"])
def test_every_exit_path_keeps_its_bits(spec, rhs, tol, max_iter, precondition, outcome, digest,
                                        monkeypatch):
    # the solution, residual history and outcome of each way a solve ends, on
    # every backend and clone; x is updated a pass after r, so an exit that skipped
    # bringing it up to date would change the solution's bits (digests
    # recorded when x and r were updated in one step, or when the comment
    # above a case says)
    b = rhs_pattern(spec, rhs)
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
    # r, p and Ap (z too) on pages, where no load maps to a recent store
    bound = []
    counted_kernels(monkeypatch, lambda name, args: bound.extend(args) if name == "bind" else None)
    for precondition in ("none", "mass"):
        cg_solve(GridSpec(2, 16), np.ones(256), config=SolveConfig(max_iter=2, precondition=precondition))
    assert len([v for v in bound if v.size == 256]) == 10
    assert all(v.ctypes.data % 4096 == 0 for v in bound)


@pytest.mark.parametrize("precondition", ["none", "mass"])
def test_solve_stays_within_its_work_vectors(precondition, monkeypatch):
    # more than CHUNK values, so the numpy update's temporary is a chunk; the
    # caller's b is allocated before tracing, so a solve may add its
    # WORK_VECTORS, the numpy mass sweep's plane, that chunk and small change
    spec = GridSpec(3, 48)
    assert spec.size > sweeps.CHUNK
    b = np.ones(spec.size)
    config = SolveConfig(tol=1e-8 * norm2(b), precondition=precondition, record_history=False)
    budget = solver.WORK_VECTORS * 8 * spec.size + 8 * spec.n**2 + 8 * sweeps.CHUNK + (64 << 10)
    for kernels in stencil_kernels():
        monkeypatch.setattr(operators, "_kernels", kernels)
        report, peak = traced_peak(lambda: cg_solve(spec, b, config=config))
        assert report.converged
        assert peak <= budget, (kernels, peak / (8 * spec.size))
