"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL verdict line with
the measured numbers, so the run log doubles as a reproduction report.

Criteria, tolerances as asserted below:
  1. Condition-number table reproduced to 5e-5 absolute, under 1 s.
  2. Ratio r(1023) within 1% of the dimensional limits {8/3, 9/2, 512/81},
     monotone increase over n in {8,...,1023}, under 1 s.
  3. Iteration-count table reproduced within +-10% per count and +-0.15 per
     observed ratio (tol 1e-8, x0 = 0, b = ones, stopping at tol*||b||),
     largest case 2,097,152 unknowns, all under 5 minutes.
  4. Dense oracle agrees with matrix-free applies to 1e-13 relative on 50
     random vectors per case (n <= 8, all d, all kinds) and certifies every
     closed-form eigenvalue with eigenpair residual <= 1e-10.
  5. Symmetric-index closed-form kappa_p either agrees with the exhaustive
     scan to 1e-12 relative or the discrepancy is surfaced in the report's
     closed_form field; the scanned value itself matches full enumeration.
  6. Property suite: symmetry, positive definiteness, linearity, tensor
     factorization identities, energy decrease, identity-preconditioner
     equivalence, byte-identical CSV output.
"""

import time

import numpy as np

from masspcg import (
    GridSpec,
    OperatorKind,
    apply_laplacian,
    apply_mass,
    cg_solve,
    dot,
    eigenvalue,
    full_spectrum,
    ratio_report,
    spectrum_report,
    SolveConfig,
)
from masspcg.cli import main
from masspcg.experiments import iteration_row
from oracle import apply_operator, assemble_dense, rayleigh_eigenvalues

# reference condition numbers: kappa is dimension-independent, kappa_p is not
KAPPA_REF = {8: 32.1634, 16: 116.4612, 32: 440.6886}
KAPPA_P_REF = {
    (1, 8): 12.6914, (1, 16): 44.2414, (1, 32): 165.8836,
    (2, 8): 7.6173, (2, 16): 26.3451, (2, 32): 98.3943,
    (3, 8): 5.5393, (3, 16): 18.8900, (3, 32): 70.1771,
}

# reference iteration table: (d, n) -> (unprec, prec, observed ratio)
ITERATION_REF = {
    (2, 32): (62, 30, 2.07),
    (2, 64): (122, 58, 2.10),
    (2, 128): (231, 110, 2.10),
    (2, 256): (454, 215, 2.11),
    (3, 32): (81, 33, 2.45),
    (3, 64): (158, 63, 2.51),
    (3, 96): (225, 90, 2.50),
    (3, 128): (296, 118, 2.51),
}

RATIO_LIMITS = {1: 8.0 / 3.0, 2: 4.5, 3: 512.0 / 81.0}


def _verdict(num: int, ok: bool, detail: str):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_condition_table():
    start = time.perf_counter()
    worst = 0.0
    for (d, n), kp_ref in KAPPA_P_REF.items():
        report = ratio_report(GridSpec(d, n))
        worst = max(worst, abs(report.kappa - KAPPA_REF[n]), abs(report.kappa_p - kp_ref))
    elapsed = time.perf_counter() - start
    ok = worst < 5e-5 and elapsed < 1.0
    _verdict(1, ok, f"max deviation {worst:.1e} over 9 cells, {elapsed:.2f}s")


def test_criterion_2_asymptotic_limits():
    start = time.perf_counter()
    sizes = (8, 16, 32, 64, 128, 256, 512, 1023)
    ok = True
    gaps = []
    for d, limit in RATIO_LIMITS.items():
        values = [ratio_report(GridSpec(d, n)).r for n in sizes]
        ok = ok and all(a < b for a, b in zip(values, values[1:]))
        gap = abs(values[-1] - limit) / limit
        gaps.append(gap)
        ok = ok and gap < 0.01
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(2, ok, "r increasing; relative gaps to limits "
                    + ", ".join(f"{g:.1e}" for g in gaps) + f"; {elapsed:.2f}s")


def test_criterion_3_iteration_table():
    start = time.perf_counter()
    ok = True
    details = []
    for (d, n), (ref_unprec, ref_prec, ref_ratio) in ITERATION_REF.items():
        row = iteration_row(d, n, tol=1e-8, rhs="ones")
        ok = ok and row.converged and row.converged_mass
        dev_unprec = abs(row.iterations - ref_unprec) / ref_unprec
        dev_prec = abs(row.iterations_mass - ref_prec) / ref_prec
        dev_ratio = abs(row.observed_ratio - ref_ratio)
        ok = ok and dev_unprec <= 0.10 and dev_prec <= 0.10 and dev_ratio <= 0.15
        details.append(f"{d}D n={n}: {row.iterations}/{row.iterations_mass} "
                       f"(ref {ref_unprec}/{ref_prec}, ratio {row.observed_ratio:.2f} vs {ref_ratio})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(3, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_apply = 0.0
    worst_residual = 0.0
    worst_value = 0.0
    for d in (1, 2, 3):
        for n in range(1, 9):
            spec = GridSpec(d, n)
            for kind in OperatorKind:
                D = assemble_dense(kind, spec)
                for _ in range(50):
                    u = rng.standard_normal(spec.size)
                    dense = D @ u
                    free = apply_operator(kind, spec, u)
                    worst_apply = max(worst_apply,
                                      float(np.linalg.norm(free - dense) / np.linalg.norm(dense)))
                for entry in rayleigh_eigenvalues(kind, spec):
                    closed = eigenvalue(kind, spec, entry.index)
                    worst_value = max(worst_value, abs(entry.value - closed) / abs(closed))
                    worst_residual = max(worst_residual, entry.residual)
    elapsed = time.perf_counter() - start
    ok = worst_apply <= 1e-13 and worst_residual <= 1e-10 and worst_value <= 1e-12
    _verdict(4, ok, f"apply dev {worst_apply:.1e}, eigenpair residual {worst_residual:.1e}, "
                    f"value dev {worst_value:.1e}, {elapsed:.1f}s")


def test_criterion_5_closed_form_vs_enumeration():
    agree = 0
    surfaced = 0
    ok = True
    worst_scan_dev = 0.0
    for d in (1, 2, 3):
        for n in range(8, 65):
            spec = GridSpec(d, n)
            report = spectrum_report(OperatorKind.PRECONDITIONED, spec)
            check = report.closed_form
            # the scanned extremes must equal full enumeration
            values = full_spectrum(OperatorKind.PRECONDITIONED, spec)
            kappa_enum = float(values[-1] / values[0])
            worst_scan_dev = max(worst_scan_dev, abs(report.kappa - kappa_enum) / kappa_enum)
            ok = ok and worst_scan_dev <= 1e-12
            if check.agrees:
                agree += 1
                ok = ok and abs(check.kappa - report.kappa) / report.kappa <= 1e-12
            else:
                # the discrepancy must be surfaced, small, and one-sided: the
                # symmetric index can only miss the max from below
                surfaced += 1
                ok = ok and check.rel_gap > 1e-12 and check.rel_gap < 0.1
                ok = ok and check.kappa < check.scan_kappa
                ok = ok and report.kappa == check.scan_kappa
    _verdict(5, ok, f"scan matches enumeration to {worst_scan_dev:.1e} on 171 cases; "
                    f"closed form agrees on {agree}, integer-part discrepancy surfaced on {surfaced}")


def test_criterion_6_property_suite(tmp_path, capsys):
    rng = np.random.default_rng(202)
    ok = True

    # symmetry and positive definiteness of both stencil operators
    for kind in (OperatorKind.LAPLACIAN, OperatorKind.MASS):
        for spec in (GridSpec(1, 7), GridSpec(2, 5), GridSpec(3, 3)):
            for _ in range(20):
                u = rng.standard_normal(spec.size)
                v = rng.standard_normal(spec.size)
                left = dot(apply_operator(kind, spec, u), v)
                right = dot(u, apply_operator(kind, spec, v))
                ok = ok and abs(left - right) <= 1e-12 * (1 + abs(left))
                ok = ok and dot(apply_operator(kind, spec, u), u) > 0

    # linearity
    spec = GridSpec(2, 6)
    u = rng.standard_normal(spec.size)
    v = rng.standard_normal(spec.size)
    for kind in OperatorKind:
        lhs = apply_operator(kind, spec, 3.0 * u - 2.0 * v)
        rhs = 3.0 * apply_operator(kind, spec, u) - 2.0 * apply_operator(kind, spec, v)
        ok = ok and np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    # Kronecker/tensor identities: the Laplacian acts as a sum over axes on
    # tensor products, the mass operator factorizes into 1D sweeps
    n = 5
    spec2 = GridSpec(2, n)
    spec1 = GridSpec(1, n)
    f1, f2 = rng.standard_normal(n), rng.standard_normal(n)
    u = np.kron(f1, f2)
    lap_expected = np.kron(apply_laplacian(spec1, f1), f2) + np.kron(f1, apply_laplacian(spec1, f2))
    ok = ok and np.allclose(apply_laplacian(spec2, u), lap_expected, rtol=1e-12, atol=1e-9)
    mass_expected = np.kron(apply_mass(spec1, f1) / spec1.h,
                            apply_mass(spec1, f2) / spec1.h)
    ok = ok and np.allclose(apply_mass(spec2, u), mass_expected, rtol=1e-12, atol=1e-14)

    # energy functional decreases monotonically along CG iterates
    spec = GridSpec(2, 8)
    b = rng.standard_normal(spec.size)
    full = cg_solve(spec, b, config=SolveConfig(tol=1e-5))

    def energy(x):
        return 0.5 * dot(x, apply_laplacian(spec, x)) - dot(b, x)

    energies = [energy(cg_solve(spec, b, config=SolveConfig(tol=1e-5, max_iter=i)).solution)
                for i in range(1, full.iterations + 1)]
    ok = ok and all(a > b_ for a, b_ in zip(energies, energies[1:]))

    # plain CG equals preconditioned CG with the identity operator
    x_noprec = np.zeros(spec.size)
    r = b.copy()
    p = r.copy()
    rz = dot(r, r)
    reference = [np.sqrt(rz)]
    while reference[-1] > 1e-8:
        Ap = apply_laplacian(spec, p)
        alpha = rz / dot(p, Ap)
        x_noprec = x_noprec + alpha * p
        r = r - alpha * Ap
        rz_new = dot(r, r)
        reference.append(np.sqrt(rz_new))
        p = r + (rz_new / rz) * p
        rz = rz_new
    report = cg_solve(spec, b, config=SolveConfig(tol=1e-8))
    ok = ok and report.iterations == len(reference) - 1
    ok = ok and np.allclose(report.residual_history, reference, rtol=1e-10)

    # CSV determinism through the CLI, byte for byte
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["table1", "--n", "8", "--out", str(a_path)])
    main(["spectrum", "--dim", "2", "--n", "6", "--kind", "preconditioned", "--out", str(b_path)])
    main(["table1", "--n", "8", "--out", str(a_path.with_suffix(".again"))])
    main(["spectrum", "--dim", "2", "--n", "6", "--kind", "preconditioned",
          "--out", str(b_path.with_suffix(".again"))])
    capsys.readouterr()
    ok = ok and a_path.read_bytes() == a_path.with_suffix(".again").read_bytes()
    ok = ok and b_path.read_bytes() == b_path.with_suffix(".again").read_bytes()

    _verdict(6, ok, "symmetry, SPD, linearity, tensor identities, energy decrease, "
                    "identity-preconditioner equivalence, CSV determinism")
