"""
Conjugate gradients with a multiply-only preconditioner
=======================================================

The mass operator approximates the inverse of the scaled Laplacian, so the
preconditioning step is a single operator application z = M r. No factoring,
no inner solve. This script compares plain and preconditioned CG on the same
system and checks the observed speedup against the spectral prediction.
"""

import numpy as np

from masspcg import GridSpec, SolveConfig, cg_solve
from masspcg.experiments import iteration_row

spec = GridSpec(2, 64)
b = np.ones(spec.size)
tol = 1e-8 * np.linalg.norm(b)  # relative stopping, tol * ||b||

plain = cg_solve(spec, b, config=SolveConfig(tol=tol))
mass = cg_solve(spec, b, config=SolveConfig(tol=tol, precondition="mass"))
print(f"2D, n={spec.n}: plain CG {plain.iterations} iterations, "
      f"mass-preconditioned {mass.iterations}")
print(f"observed ratio {plain.iterations / mass.iterations:.2f}")

# Residual histories decay geometrically; the preconditioned one is steeper.
# Print every 10th entry side by side.
print("\n iter      plain           mass")
for i in range(0, plain.iterations + 1, 10):
    left = f"{plain.residual_history[i]:.3e}"
    right = f"{mass.residual_history[i]:.3e}" if i <= mass.iterations else "converged"
    print(f"{i:5d}  {left:>12}  {right:>12}")

# Both solutions solve the same system.
gap = np.max(np.abs(plain.solution - mass.solution))
print(f"\nmax difference between the two solutions: {gap:.2e}")

# iteration_row wraps the pair of runs (same ones right-hand side, same
# relative tolerance) and the spectral prediction.
row = iteration_row(2, 64)
print(f"predicted iteration ratio sqrt(kappa/kappa_p) = {row.predicted_ratio:.2f}, "
      f"observed = {row.observed_ratio:.2f}")

# The same experiment in 3D, where the payoff is larger.
row3 = iteration_row(3, 32)
print(f"\n3D, n={row3.n}: {row3.iterations} vs {row3.iterations_mass} iterations, "
      f"observed {row3.observed_ratio:.2f}, predicted {row3.predicted_ratio:.2f}")
