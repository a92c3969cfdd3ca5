"""Conjugate gradients with an optional multiply-only mass preconditioner.

The preconditioning step is ``z = M r``, a single mass-operator application,
never a linear solve. Stopping tests the absolute Euclidean norm of the
recursively updated residual against ``tol``; on (apparent) convergence the
residual is recomputed from scratch once as a drift guard, and iteration
resumes from the true residual in the unlikely case the recurrence had drifted
past the threshold.

A solve allocates its work vectors once and binds its loop's kernels to them
(:func:`~masspcg.operators.bind_kernels`), so an iteration makes bare kernel
calls; ``M r0`` and the drift guard call the operators by name. Mass PCG
writes ``z = M r`` into the buffer of ``Ap = A p``: Ap is dead once r is
updated, and z once p is. x and p lag r by one update, made in the Laplacian
sweep of the next iteration; a solve stopped by the cap or by ``<z, r>``
underflow adds the last ``p*alpha`` to x, and the drift guard's candidate
``x + p*alpha`` becomes x when it converges.
The inner products stay whole-vector ``dot`` calls, so no sum is reordered;
``||r||`` is ``sqrt(r·r)``, as ``norm2`` computes it, from the same ``r·r``
that plain CG uses as ``<z, r>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, check_vector, dot
from .operators import _vector, apply_laplacian, apply_mass, bind_kernels


class NumericalBreakdownError(RuntimeError):
    """CG encountered a value impossible for SPD operators (bug or overflow)."""


PRECONDITION_KINDS = ("none", "mass")

#: Length-N float64 vectors one solve holds: b, x, r, p, and Ap, shared by z.
WORK_VECTORS = 5


@dataclass(frozen=True)
class SolveConfig:
    """Stopping control for one CG solve.

    tol is the absolute 2-norm residual threshold. max_iter defaults to
    ``10 * N`` when left as None. precondition selects the z = M r step
    ("mass") or z = r ("none"). record_history=False drops the per-iteration
    residual norms from the report (the stopping test still sees them).
    """

    tol: float = 1e-8
    max_iter: int | None = None
    precondition: str = "none"
    record_history: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.precondition not in PRECONDITION_KINDS:
            raise ValueError(
                f"precondition must be one of {PRECONDITION_KINDS}, got {self.precondition!r}"
            )

    def resolved_max_iter(self, spec: GridSpec) -> int:
        return self.max_iter if self.max_iter is not None else 10 * spec.size


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one CG solve.

    residual_history holds ``||r_j||`` for j = 0..iterations (None when not
    recorded); converged means the last residual tested was below tol.
    replacements counts the times the drift guard found the recomputed
    residual still at or above tol, wrote it into r and resumed. The solver
    counts its own work: Laplacian and mass applications (``M r0`` included)
    and drift-guard checks.
    """

    iterations: int
    converged: bool
    residual_history: np.ndarray | None
    solution: np.ndarray
    replacements: int
    laplacian_applications: int
    mass_applications: int
    drift_checks: int


def _check_scalar(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"non-finite {what} encountered: {value}")
    return value


def _residual(r: np.ndarray) -> tuple[float, float]:
    """(r·r, ||r||), bit for bit ``norm2(r)`` as the norm, from one reduction."""
    rr = dot(r, r)
    return rr, _check_scalar(math.sqrt(rr), "residual norm")


def _inner_zr(r: np.ndarray, z: np.ndarray, rr: float) -> float:
    rz = _check_scalar(rr if z is r else dot(r, z), "<z, r>")
    if rz < 0.0:
        raise NumericalBreakdownError(f"<z, r> = {rz} is not positive")
    return rz


def cg_solve(
    spec: GridSpec,
    b: np.ndarray,
    *,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve ``A_d x = b`` by (preconditioned) conjugate gradients from ``x = 0``.

    Parameters
    ----------
    spec : GridSpec
        Grid defining the Laplacian.
    b : ndarray
        Right-hand side, length ``spec.size``.
    config : SolveConfig, optional
        Tolerance, iteration cap, preconditioning flag; defaults apply when
        omitted.

    Returns
    -------
    SolveReport
        Iteration count, convergence flag, residual history, and the solution.
        Hitting max_iter yields converged=False, not an error, and so does
        ``<z,r>`` underflowing to exactly zero with a finite residual (the
        attainable-accuracy floor of a tolerance far below rounding).

    Raises
    ------
    NumericalBreakdownError
        If ``<p,Ap>`` comes out non-positive, ``<z,r>`` negative, or either
        (or the residual norm) non-finite; SPD operators rule these out.
    """
    cfg = config if config is not None else SolveConfig()
    b = check_vector(spec, b, "b")
    x = _vector(spec.size, 0.0)
    r = _vector(spec.size, b)
    max_iter = cfg.resolved_max_iter(spec)
    mass = cfg.precondition == "mass"

    rr, res = _residual(r)
    history = [res]
    iterations = replacements = drift_checks = mass_applications = 0
    converged = res < cfg.tol

    rz = 0.0
    if not converged:
        Ap = _vector(spec.size)
        z = apply_mass(spec, r, out=Ap) if mass else r
        mass_applications = int(mass)
        p = _vector(spec.size, z)
        rz = _inner_zr(r, z, rr)
        laplacian, xp_laplacian, step, precondition = bind_kernels(spec, x, r, p, Ap, z)

    # rz stays 0.0 when r0 already passes; otherwise a zero <z, r> has
    # underflowed at the attainable-accuracy floor, and the solve stops
    # unconverged. From the second iteration on, the sweep that makes A p
    # first brings x and p up to date with the last (alpha, beta).
    while rz > 0.0 and iterations < max_iter:
        if iterations:
            xp_laplacian(alpha, beta)
        else:
            laplacian()
        pAp = _check_scalar(dot(p, Ap), "<p, Ap>")
        if pAp <= 0.0:
            raise NumericalBreakdownError(f"<p, Ap> = {pAp} is not positive")
        alpha = rz / pAp
        step(alpha)
        rr, res = _residual(r)
        history.append(res)
        iterations += 1
        if res < cfg.tol:
            # Drift guard: confirm with the from-scratch residual of x + p*alpha,
            # built in Ap's free buffer, written into r in place (z is r in plain
            # CG); resume from it if the recurrence drifted, x left to the sweep.
            drift_checks += 1
            candidate = np.add(x, np.multiply(p, alpha, out=Ap), out=Ap)
            np.subtract(b, apply_laplacian(spec, candidate, out=r), out=r)
            rr, res = _residual(r)
            if res < cfg.tol:
                x, converged = candidate, True
                break
            history[-1] = res
            replacements += 1
        if mass:
            precondition()
            mass_applications += 1
        rz_new = _inner_zr(r, z, rr)
        beta = rz_new / rz
        rz = rz_new
    if iterations and not converged:
        # stopped on the cap or on <z, r> underflow: x still lacks p*alpha,
        # added as the drift guard adds it; Ap and z are dead
        x += np.multiply(p, alpha, out=Ap)

    return SolveReport(
        iterations=iterations,
        converged=converged,
        residual_history=np.asarray(history) if cfg.record_history else None,
        solution=x,
        replacements=replacements,
        laplacian_applications=iterations + drift_checks,
        mass_applications=mass_applications,
        drift_checks=drift_checks,
    )
