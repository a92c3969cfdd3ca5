"""Conjugate gradients with an optional multiply-only mass preconditioner.

The preconditioning step is ``z = M r``, a single mass-operator application,
never a linear solve. Stopping tests the absolute Euclidean norm of the
recursively updated residual against ``tol``; on (apparent) convergence the
residual is recomputed from scratch once as a drift guard, and iteration
resumes from the true residual in the unlikely case the recurrence had drifted
past the threshold.

A solve takes its work vectors with its loop's kernels bound to them once
(:func:`~masspcg.operators.cg_workspace`), so an iteration makes bare kernel
calls; the drift guard calls the Laplacian by name. Mass PCG writes
``z = M r`` into the buffer of ``Ap = A p``: Ap is dead once r is updated, and
z once p is. x and p lag r by one update, made in the Laplacian sweep of the
next iteration, from ``beta = <z, r> / inf = 0`` and ``alpha = 0`` in the first
(Hestenes & Stiefel 1952), and x takes its last ``p*alpha`` after the loop.
The drift guard builds ``x + p*alpha`` in Ap's dead buffer and writes
``b - A(x + p*alpha)`` into r (the residual replacement of Greenbaum 1997),
leaving x and alpha to the next sweep. The inner products stay whole-vector
``dot`` calls, so no sum is reordered; ``||r||`` is ``sqrt(r·r)``, as
``norm2`` computes it, from the same ``r·r`` that plain CG uses as ``<z, r>``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, check_vector, dot, is_integer
from .operators import apply_laplacian, cg_workspace


class NumericalBreakdownError(RuntimeError):
    """CG encountered a value impossible for SPD operators (bug or overflow)."""


PRECONDITION_KINDS = ("none", "mass")

#: Length-N float64 vectors one solve allocates: x, r, p, and Ap, shared by z.
WORK_VECTORS = 4


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
        if not isinstance(self.tol, numbers.Real) or isinstance(self.tol, bool) or not self.tol > 0:
            raise ValueError(f"tol must be a positive number, got {self.tol}")
        if self.max_iter is not None and (not is_integer(self.max_iter) or self.max_iter < 1):
            raise ValueError(f"max_iter must be a positive integer or None, got {self.max_iter}")
        if self.precondition not in PRECONDITION_KINDS:
            raise ValueError(
                f"precondition must be one of {PRECONDITION_KINDS}, got {self.precondition!r}"
            )
        if not isinstance(self.record_history, (bool, np.bool_)):
            raise ValueError(f"record_history must be a bool, got {self.record_history!r}")

    def resolved_max_iter(self, spec: GridSpec) -> int:
        return self.max_iter if self.max_iter is not None else 10 * spec.size


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one CG solve.

    residual_history holds ``||r_j||`` for j = 0..iterations (None when not
    recorded); converged means the last residual tested was below tol.
    replacements counts the times the drift guard found the recomputed
    residual still at or above tol, wrote it into r and resumed. The solver
    reports its own work: drift-guard checks, and Laplacian and mass
    applications (``M r0`` included), which the loop's shape fixes. stop says
    why the solve ended: "tol" (converged, ``r0`` included), "cap" (max_iter
    reached) or "underflow" (``<z, r>`` underflowed to zero).
    """

    iterations: int
    converged: bool
    residual_history: np.ndarray | None
    solution: np.ndarray
    replacements: int
    laplacian_applications: int
    mass_applications: int
    drift_checks: int
    stop: str


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
        Right-hand side, length ``spec.size``. It is read, never written, so
        it may be a read-only view, such as a stride-0 vector of ones.
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
    max_iter = cfg.resolved_max_iter(spec)
    x, r, p, Ap, z, xp_laplacian, step, precondition = cg_workspace(spec, b, cfg.precondition == "mass")

    rr, res = _residual(r)
    history = [res]
    iterations = replacements = 0

    # Each pass makes z = M r and <z, r>, and stops there on <z, r> underflow
    # (the attainable-accuracy floor) or on the cap. The sweep that makes A p
    # first brings x and p up to date with the last alpha and beta; from
    # rz = inf, alpha = 0.0 and p = 0 the first makes p = 0*0 + z.
    rz, alpha = math.inf, 0.0
    while res >= cfg.tol:
        if precondition:
            precondition()
        rz_old, rz = rz, _inner_zr(r, z, rr)
        if rz == 0.0 or iterations == max_iter:
            break
        xp_laplacian(alpha, rz / rz_old)
        pAp = _check_scalar(dot(p, Ap), "<p, Ap>")
        if pAp <= 0.0:
            raise NumericalBreakdownError(f"<p, Ap> = {pAp} is not positive")
        alpha = rz / pAp
        step(alpha)
        rr, res = _residual(r)
        history.append(res)
        iterations += 1
        if res < cfg.tol:
            # Drift guard: r = b - A(x + p*alpha), x + p*alpha built in dead Ap
            np.add(x, np.multiply(p, alpha, out=Ap), out=Ap)
            np.subtract(b, apply_laplacian(spec, Ap, out=r), out=r)
            rr, res = _residual(r)
            if res >= cfg.tol:
                history[-1] = res
                replacements += 1
    # x lacks the last p*alpha on every exit; Ap and z are dead
    x += np.multiply(p, alpha, out=Ap)
    converged = res < cfg.tol
    drift_checks = replacements + int(converged and iterations > 0)

    return SolveReport(
        iterations=iterations,
        converged=converged,
        residual_history=np.asarray(history) if cfg.record_history else None,
        solution=x,
        replacements=replacements,
        laplacian_applications=iterations + drift_checks,
        mass_applications=(iterations + (not converged)) if precondition else 0,
        drift_checks=drift_checks,
        stop="tol" if converged else "underflow" if rz == 0.0 else "cap",
    )
