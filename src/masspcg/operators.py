"""Matrix-free application of the Dirichlet Laplacian, the scaled mass operator,
and their product.

All three operators act on flat vectors of length ``n**d`` and never assemble a
matrix. Off-grid neighbors contribute zero (homogeneous Dirichlet closure), so
each operator is tridiagonal-Toeplitz along every axis and the tensor-product
sine vectors are exact shared eigenvectors.

Scaling conventions on the unit domain with ``h = 1/(n+1)``:

* Laplacian: per-axis stencil ``(-1, 2, -1) / h**2``, summed over axes.
* Mass: per-axis sweep with weights ``(h/6) * (1, 4, 1)``, composed over axes,
  times a dimensional scale of ``h`` in 1D, ``1`` in 2D and ``1/h`` in 3D
  (i.e. ``h**(2-d)`` overall).
* Preconditioned: mass applied after the Laplacian.

The first call to either stencil compiles ``_stencils.c`` with the system C
compiler and loads it through ctypes; later calls and processes reuse the
cached library. The compiled kernels make one pass per grid line and give
the same bits as the slab-tiled numpy sweeps below, which stay as the
reference and as the fallback when no compiler is found or the build or load
fails. Nothing is compiled or loaded at import.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import GridSpec, check_vector


class OperatorKind(enum.Enum):
    """Which grid operator an operation refers to."""

    LAPLACIAN = "laplacian"
    MASS = "mass"
    PRECONDITIONED = "preconditioned"


#: Most unknowns in one slab. The operators sweep the grid in slabs of whole
#: axis-0 planes (one plane when a single plane is larger), so the several
#: passes each slab takes stay in cache instead of streaming the whole vector.
SLAB = 1 << 16


# The compiled stencils: None until the first stencil call, then the loaded
# library, or False when it could not be built or loaded.
_kernels = None


def _compiled():
    """The compiled stencils, built or loaded on first use; False when unavailable."""
    global _kernels
    if _kernels is None:
        # imported here so that importing masspcg neither builds nor loads
        # anything, nor even parses the build code
        from . import _native

        _kernels = _native.load()
    return _kernels


def _axis_slices(ndim: int, axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slice pairs (lo, hi) selecting all-but-last / all-but-first along ``axis``."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _slabs(spec: GridSpec) -> tuple[list[tuple[int, int]], int]:
    """Axis-0 plane ranges [a, b) covering the grid, and the largest slab's size."""
    plane = spec.size // spec.n
    rows = max(1, SLAB // plane)
    return [(a, min(a + rows, spec.n)) for a in range(0, spec.n, rows)], rows * plane


def _axis0_neighbors(n: int, a: int, b: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """(slab rows, input rows) for the +1 then the -1 axis-0 neighbour of rows a..b-1.

    Input rows are global, so a slab reads one halo plane on each side.
    """
    stop = min(b, n - 1)
    start = max(a, 1)
    return (slice(0, stop - a), slice(a + 1, stop + 1)), (slice(start - a, b - a), slice(start - 1, b - 1))


def _output(spec: GridSpec, u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Validate a caller's ``out`` buffer, or allocate one."""
    if out is None:
        return np.empty(spec.size)
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a contiguous float64 ndarray")
    check_vector(spec, out, "out")
    if np.may_share_memory(out, u):
        raise ValueError("out must not share memory with u")
    return out


def apply_laplacian(spec: GridSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the d-dimensional finite-difference Laplacian with Dirichlet closure.

    Parameters
    ----------
    spec : GridSpec
        Grid the vector lives on.
    u : ndarray
        Flat vector of length ``spec.size`` in lexicographic ordering.
    out : ndarray, optional
        Contiguous float64 vector of length ``spec.size`` to write into; it
        must not share memory with ``u``. A new vector when omitted.

    Returns
    -------
    ndarray
        ``A_d @ u``, flat (``out`` when given).
    """
    u = check_vector(spec, u)
    out = _output(spec, u, out)
    lib = _compiled()
    if lib:
        lib.masspcg_laplacian(spec.d, int(spec.n), np.ascontiguousarray(u), out, 2.0 * spec.d, spec.h**2)
        return out
    v = u.reshape(spec.shape)
    w = out.reshape(spec.shape)
    for a, b in _slabs(spec)[0]:
        o, vs = w[a:b], v[a:b]
        np.multiply(vs, 2.0 * spec.d, out=o)
        for rows, src in _axis0_neighbors(spec.n, a, b):
            o[rows] -= v[src]
        for axis in range(1, spec.d):
            lo, hi = _axis_slices(spec.d, axis)
            o[lo] -= vs[hi]
            o[hi] -= vs[lo]
        o /= spec.h**2
    return out


def apply_mass(spec: GridSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the scaled finite-element mass operator with Dirichlet closure.

    Implemented as d successive 1D tridiagonal sweeps with weights
    ``(h/6)*(1, 4, 1)``, one along each axis, times the dimensional scale
    ``h**(2-d)``. The compiled kernel sweeps each axis-0 plane into a plane
    buffer and each line across it into a line buffer; the numpy sweeps
    alternate, per slab, between ``out`` and one slab-sized scratch buffer
    so that the last one lands in ``out``. ``out`` is as in
    :func:`apply_laplacian`.
    """
    u = check_vector(spec, u)
    out = _output(spec, u, out)
    h = spec.h
    lib = _compiled()
    if lib:
        # a plane buffer in 3D and a line buffer in 2D and 3D
        n = int(spec.n)
        scratch = np.empty({1: 1, 2: n, 3: n * n + n}[spec.d])
        lib.masspcg_mass(spec.d, n, np.ascontiguousarray(u), out, h / 6.0, h ** (2 - spec.d), scratch)
        return out
    v = u.reshape(spec.shape)
    w = out.reshape(spec.shape)
    slabs, largest = _slabs(spec)
    scratch = np.empty(largest)
    for a, b in slabs:
        target = w[a:b]
        spare = scratch[: target.size].reshape(target.shape)
        # sweep k writes to target when d-1-k is even, so the last one does
        dst = target if spec.d % 2 == 1 else spare
        np.multiply(v[a:b], 4.0, out=dst)
        for rows, src in _axis0_neighbors(spec.n, a, b):
            dst[rows] += v[src]
        dst *= h / 6.0
        for axis in range(1, spec.d):
            src, dst = dst, (spare if dst is target else target)
            np.multiply(src, 4.0, out=dst)
            lo, hi = _axis_slices(spec.d, axis)
            dst[lo] += src[hi]
            dst[hi] += src[lo]
            dst *= h / 6.0
        target *= h ** (2 - spec.d)
    return out


def apply_preconditioned(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """Apply the mass-preconditioned Laplacian, mass(laplacian(u))."""
    return apply_mass(spec, apply_laplacian(spec, u))


_APPLY = {
    OperatorKind.LAPLACIAN: apply_laplacian,
    OperatorKind.MASS: apply_mass,
    OperatorKind.PRECONDITIONED: apply_preconditioned,
}


def apply_operator(kind: OperatorKind, spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """Apply the operator selected by ``kind``."""
    return _APPLY[kind](spec, u)
