"""Conjugate gradients with an optional multiply-only mass preconditioner.

The preconditioning step is ``z = M r``, a single mass-operator application,
never a linear solve. Stopping tests the absolute Euclidean norm of the
recursively updated residual against ``tol``; on (apparent) convergence the
residual is recomputed from scratch once as a drift guard, and iteration
resumes from the true residual in the unlikely case the recurrence had drifted
past the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, check_vector, dot, norm2
from .operators import apply_laplacian, apply_mass


class NumericalBreakdownError(RuntimeError):
    """CG encountered a value impossible for SPD operators (bug or overflow)."""


PRECONDITION_KINDS = ("none", "mass")


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
    """

    iterations: int
    converged: bool
    residual_history: np.ndarray | None
    solution: np.ndarray


def _check_scalar(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericalBreakdownError(f"non-finite {what} encountered: {value}")
    return value


def cg_solve(
    spec: GridSpec,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve ``A_d x = b`` by (preconditioned) conjugate gradients.

    Parameters
    ----------
    spec : GridSpec
        Grid defining the Laplacian.
    b : ndarray
        Right-hand side, length ``spec.size``.
    x0 : ndarray, optional
        Initial guess; zero vector when omitted.
    config : SolveConfig, optional
        Tolerance, iteration cap, preconditioning flag; defaults apply when
        omitted.

    Returns
    -------
    SolveReport
        Iteration count, convergence flag, residual history, and the solution.
        Hitting max_iter yields converged=False, not an error.

    Raises
    ------
    NumericalBreakdownError
        If a quantity that is positive for SPD operators (``<z,r>``, ``<p,Ap>``)
        comes out non-positive or non-finite.
    """
    cfg = config if config is not None else SolveConfig()
    b = check_vector(spec, b, "b")
    if x0 is None:
        x = np.zeros(spec.size)
        r = b.copy()
    else:
        x = check_vector(spec, x0, "x0").copy()
        r = b - apply_laplacian(spec, x)
    max_iter = cfg.resolved_max_iter(spec)

    precondition = (lambda v: apply_mass(spec, v)) if cfg.precondition == "mass" else (lambda v: v)

    res = _check_scalar(norm2(r), "residual norm")
    history = [res]
    iterations = 0
    converged = res < cfg.tol

    if not converged:
        z = precondition(r)
        p = z.copy()
        rz = _check_scalar(dot(r, z), "<z, r>")
        if rz <= 0.0:
            raise NumericalBreakdownError(f"<z, r> = {rz} is not positive")

    while not converged and iterations < max_iter:
        Ap = apply_laplacian(spec, p)
        pAp = _check_scalar(dot(p, Ap), "<p, Ap>")
        if pAp <= 0.0:
            raise NumericalBreakdownError(f"<p, Ap> = {pAp} is not positive")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = _check_scalar(norm2(r), "residual norm")
        history.append(res)
        iterations += 1
        if res < cfg.tol:
            # Drift guard: confirm with a from-scratch residual; if the
            # recurrence drifted, resume from the true residual.
            r_true = b - apply_laplacian(spec, x)
            res_true = norm2(r_true)
            if res_true < cfg.tol:
                converged = True
                break
            r = r_true
            res = res_true
            history[-1] = res
        z = precondition(r)
        rz_new = _check_scalar(dot(r, z), "<z, r>")
        if rz_new <= 0.0:
            raise NumericalBreakdownError(f"<z, r> = {rz_new} is not positive")
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new

    return SolveReport(
        iterations=iterations,
        converged=converged,
        residual_history=np.asarray(history) if cfg.record_history else None,
        solution=x,
    )
