"""
Matrix-free grid operators
==========================

The package never builds a matrix for real work. Every operator is a
stencil sweep over a flat vector viewed as a d-dimensional grid, with
homogeneous Dirichlet boundaries (off-grid neighbors count as zero).
"""

import numpy as np

from masspcg import (
    GridSpec,
    OperatorKind,
    apply_laplacian,
    apply_mass,
    eigenvalue,
)

# A grid is just (dimension, points per axis); h = 1/(n+1) follows.
spec = GridSpec(2, 4)
print(f"2D grid with n={spec.n}: h={spec.h}, {spec.size} unknowns")

# The Laplacian of a delta: the familiar 5-point cross, scaled by 1/h^2.
u = np.zeros(spec.size)
u[5] = 1.0  # grid point (1, 1)
print("\nLaplacian of a unit impulse (as a grid):")
print(apply_laplacian(spec, u).reshape(spec.n, spec.n))

# The mass operator smears the impulse with the (1, 4, 1)/6 average along
# every axis, times the mesh scale.
print("\nMass operator applied to the same impulse:")
print(apply_mass(spec, u).reshape(spec.n, spec.n))

# The preconditioned operator is the composition: mass after Laplacian.
print("\nMass-preconditioned Laplacian of the impulse:")
print(apply_mass(spec, apply_laplacian(spec, u)).reshape(spec.n, spec.n))

# Tensor-product sine vectors diagonalize all three operators at once.
# Applying an operator to one returns the same vector, scaled by the
# closed-form eigenvalue.
# On the 2D grid the vector for frequencies k = (k1, k2) has entries
# sin(pi*h*k1*i) * sin(pi*h*k2*j) at grid point (i, j).
k = (2, 3)
i = np.arange(1, spec.n + 1)
v = np.outer(np.sin(np.pi * spec.h * k[0] * i), np.sin(np.pi * spec.h * k[1] * i)).reshape(-1)
applied = {
    OperatorKind.LAPLACIAN: apply_laplacian(spec, v),
    OperatorKind.MASS: apply_mass(spec, v),
    OperatorKind.PRECONDITIONED: apply_mass(spec, apply_laplacian(spec, v)),
}
for kind in OperatorKind:
    lam = eigenvalue(kind, spec, k)
    drift = np.max(np.abs(applied[kind] - lam * v))
    print(f"{kind.name.lower():>15}: eigenvalue at k={k} is {lam:.6f}, residual {drift:.2e}")
