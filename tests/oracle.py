"""Independent dense ground truth for tiny grids.

Re-derives the operators without the matrix-free sweeps: the Laplacian row by
row from the literal stencil over grid multi-indices, the mass operator as an
explicit Kronecker product of the 1D tridiagonal factor, the preconditioned
operator as the explicit dense product. Eigenvalues come from Rayleigh
quotients on the known tensor-product sine basis, with the eigenpair residual
reported so the check certifies the basis is exact, not just consistent.

Dense matrices are plain 2-D float64 arrays. Everything here is test support;
sizes are capped at 4096 rows.

``reference_laplacian`` and ``reference_mass`` apply the stencils to the whole
array at once, one pass per neighbour. They are the bitwise reference: the
compiled kernels and the numpy fallback of ``masspcg.operators`` make the same
floating-point operations in the same order per element, so they must match
these bit for bit on any grid size, including grids far past the dense cap.

``full_scan_argmax`` is the unpruned vertex scan of the preconditioned
spectrum over all ``n**(d-1)`` tuples, the reference for the pruned scan in
``masspcg.spectrum``.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

import numpy as np

import masspcg.spectrum as spectrum
from masspcg.grid import GridSpec
from masspcg.operators import apply_laplacian, apply_mass
from masspcg.spectrum import OperatorKind

#: Largest dense system assembled (rows = n**d).
DENSE_SIZE_CAP = 4096


class RayleighEigenvalue(NamedTuple):
    index: tuple[int, ...]
    value: float
    residual: float


def _check_size(spec: GridSpec):
    if spec.size > DENSE_SIZE_CAP:
        raise ValueError(
            f"dense oracle capped at {DENSE_SIZE_CAP} rows, got n**d = {spec.size}"
        )


def _laplacian_dense(spec: GridSpec) -> np.ndarray:
    n, d, h = spec.n, spec.d, spec.h
    A = np.zeros((spec.size, spec.size))
    for row, idx in enumerate(itertools.product(range(n), repeat=d)):
        A[row, row] = 2.0 * d / h**2
        for axis in range(d):
            for step in (-1, 1):
                neighbor = list(idx)
                neighbor[axis] += step
                if 0 <= neighbor[axis] < n:
                    col = int(np.ravel_multi_index(neighbor, (spec.n,) * spec.d))
                    A[row, col] = -1.0 / h**2
    return A


def _mass_dense(spec: GridSpec) -> np.ndarray:
    n, h = spec.n, spec.h
    factor = h / 6.0 * (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
    M = reduce(np.kron, [factor] * spec.d)
    return h ** (2 - spec.d) * M


def _axis_slices(ndim: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def reference_laplacian(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """Whole-array Laplacian stencil: one pass over the grid per neighbour."""
    v = u.reshape((spec.n,) * spec.d)
    out = (2.0 * spec.d) * v
    for axis in range(spec.d):
        lo, hi = _axis_slices(spec.d, axis)
        out[lo] -= v[hi]
        out[hi] -= v[lo]
    out /= spec.h**2
    return out.reshape(-1)


def reference_mass(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """Whole-array mass operator: d full 1D sweeps, then the scale h**(2-d)."""
    h = spec.h
    v = u.reshape((spec.n,) * spec.d)
    for axis in range(spec.d):
        w = 4.0 * v
        lo, hi = _axis_slices(spec.d, axis)
        w[lo] += v[hi]
        w[hi] += v[lo]
        w *= h / 6.0
        v = w
    v *= h ** (2 - spec.d)
    return v.reshape(-1)


def apply_operator(kind: OperatorKind, spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """The matrix-free operator selected by ``kind``; the preconditioned one is
    ``apply_mass`` after ``apply_laplacian``."""
    if kind is OperatorKind.LAPLACIAN:
        return apply_laplacian(spec, u)
    if kind is OperatorKind.MASS:
        return apply_mass(spec, u)
    return apply_mass(spec, apply_laplacian(spec, u))


def assemble_dense(kind: OperatorKind, spec: GridSpec) -> np.ndarray:
    """Dense matrix of the selected operator (n**d <= 4096)."""
    _check_size(spec)
    if kind is OperatorKind.LAPLACIAN:
        return _laplacian_dense(spec)
    if kind is OperatorKind.MASS:
        return _mass_dense(spec)
    return _mass_dense(spec) @ _laplacian_dense(spec)


def sine_vector(spec: GridSpec, k) -> np.ndarray:
    """Tensor-product sine vector with entries prod_j sin(pi*h*k_j*i_j), flat."""
    k = tuple(int(kj) for kj in k)
    if len(k) != spec.d:
        raise ValueError(f"index tuple {k} has length {len(k)}, expected d={spec.d}")
    i = np.arange(1, spec.n + 1)
    axes = [np.sin(np.pi * spec.h * kj * i) for kj in k]
    return reduce(np.multiply.outer, axes).reshape(-1)


def _sine_basis(spec: GridSpec) -> np.ndarray:
    """Matrix whose column ravel_multi_index(k-1) is the sine vector for k."""
    i = np.arange(1, spec.n + 1)
    S = np.sin(np.pi * spec.h * np.outer(i, i))
    return reduce(np.kron, [S] * spec.d)


def rayleigh_eigenvalues(kind: OperatorKind, spec: GridSpec) -> list[RayleighEigenvalue]:
    """Rayleigh quotients of the dense operator on every sine tensor vector.

    Returns one entry per frequency tuple (lexicographic order) with the
    eigenpair residual ||D v - lambda v|| / ||v||.
    """
    _check_size(spec)
    D = assemble_dense(kind, spec)
    V = _sine_basis(spec)
    DV = D @ V
    vv = np.einsum("ij,ij->j", V, V)
    vdv = np.einsum("ij,ij->j", V, DV)
    values = vdv / vv
    residuals = np.linalg.norm(DV - V * values, axis=0) / np.sqrt(vv)
    out = []
    for col, k in enumerate(itertools.product(range(1, spec.n + 1), repeat=spec.d)):
        out.append(RayleighEigenvalue(index=k, value=float(values[col]), residual=float(residuals[col])))
    return out


def full_scan_argmax(spec: GridSpec, block: int = 1 << 22) -> tuple[int, ...]:
    """Argmax frequency tuple of the preconditioned spectrum by the full scan.

    The parabola-vertex reduction over every assignment of the other ``d-1``
    coordinates, in blocks of about ``block`` tuples (whole rows of the first
    other coordinate, at least one), offset 0 before -1, the first maximum
    kept. It ranks
    with its own arithmetic, ``(2+x) * prod(2+o) * (d - sum(o) - x)``, not the
    package's, so the scan is checked against code it does not share.
    """
    n, d = spec.n, spec.d
    cs = spectrum.axis_cosines(spec)[::-1]  # ascending: position i holds k = n - i
    others = list(np.meshgrid(*([cs] * (d - 1)), indexing="ij", sparse=True))
    stride = n ** max(d - 2, 0)  # tuples per position of the first other coordinate
    rows = max(1, block // stride)
    best_val, best = -np.inf, ()
    for start in range(0, n if others else 1, rows):
        s_other, p_other = 0.0, 1.0
        # only the first other coordinate is cut into blocks
        for o in [o[start : start + rows] for o in others[:1]] + others[1:]:
            s_other = s_other + o
            p_other = p_other * (2.0 + o)
        pos = np.searchsorted(cs, (d - s_other - 2.0) / 2.0)
        for off in (0, -1):
            j = np.clip(pos + off, 0, len(cs) - 1)
            x = cs[j]
            lam = np.ravel((2.0 + x) * p_other * (d - s_other - x))
            i = int(np.argmax(lam))
            if lam[i] > best_val:
                best_val = lam[i]
                best = (np.ravel(j)[i], *np.unravel_index(start * stride + i, (n,) * (d - 1)))
    return tuple(sorted(n - int(i) for i in best))
