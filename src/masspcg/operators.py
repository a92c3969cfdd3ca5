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

The first call to a stencil or to a CG update (:func:`cg_update`,
:func:`p_update`) compiles ``_stencils.c`` with the system C compiler and
loads it through ctypes; later calls and processes reuse the cached library.
Without a compiler, or when the build or load fails, the numpy fallback of
``_sweeps`` serves. Both give the bits of ``tests/oracle.py``, the bitwise
reference. Nothing is compiled, loaded or parsed for either at import.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import DimensionMismatchError, GridSpec, check_vector


class OperatorKind(enum.Enum):
    """Which grid operator an operation refers to."""

    LAPLACIAN = "laplacian"
    MASS = "mass"
    PRECONDITIONED = "preconditioned"


# The compiled kernels: None until the first kernel call, then the loaded
# library, or False when it could not be built or loaded.
_kernels = None


def _compiled():
    """The compiled kernels, built or loaded on first use; False when unavailable."""
    global _kernels
    if _kernels is None:
        # imported here so that importing masspcg neither builds nor loads
        # anything, nor even parses the build code
        from . import _native

        _kernels = _native.load()
    return _kernels


def _numpy():
    """The numpy fallback, imported only when a kernel call needs it."""
    from . import _sweeps

    return _sweeps


def _check_buffers(size: int, written: tuple, read: tuple = ()) -> None:
    """Reject vectors the kernels cannot take as bare pointers: each must be a
    flat contiguous float64 ndarray of ``size`` entries, writeable if written."""
    shape = (size,)
    for v in (*written, *read):
        if not isinstance(v, np.ndarray) or v.dtype != np.float64 or not v.flags.c_contiguous:
            raise ValueError("vectors must be contiguous float64 ndarrays")
        if v.shape != shape:
            raise DimensionMismatchError(f"a vector has shape {v.shape}, expected {shape}")
    for v in written:
        if not v.flags.writeable:
            raise ValueError("written vectors must be writeable")


def _output(spec: GridSpec, u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Validate a caller's ``out`` buffer, or allocate one."""
    if out is None:
        return np.empty(spec.size)
    _check_buffers(spec.size, (out,))
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
        u = np.ascontiguousarray(u)  # held while the kernel reads it
        lib.masspcg_laplacian(spec.d, spec.n, u.ctypes.data, out.ctypes.data, 2.0 * spec.d, spec.h**2)
        return out
    return _numpy().laplacian(spec, u, out)


def apply_mass(spec: GridSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the scaled finite-element mass operator with Dirichlet closure.

    Implemented as d successive 1D tridiagonal sweeps with weights
    ``(h/6)*(1, 4, 1)``, one along each axis, times the dimensional scale
    ``h**(2-d)``. The compiled kernel sweeps each axis-0 plane into a plane
    buffer and each line across it into a line buffer. ``out`` is as in
    :func:`apply_laplacian`.
    """
    u = check_vector(spec, u)
    out = _output(spec, u, out)
    h = spec.h
    lib = _compiled()
    if lib:
        # a plane buffer in 3D and a line buffer in 2D and 3D
        scratch = np.empty({1: 1, 2: spec.n, 3: spec.n**2 + spec.n}[spec.d])
        u = np.ascontiguousarray(u)
        lib.masspcg_mass(spec.d, spec.n, u.ctypes.data, out.ctypes.data, h / 6.0, h ** (2 - spec.d),
                         scratch.ctypes.data)
        return out
    return _numpy().mass(spec, u, out)


def cg_update(x: np.ndarray, r: np.ndarray, p: np.ndarray, Ap: np.ndarray, alpha: float) -> None:
    """The CG step ``x += p*alpha`` and ``r -= Ap*alpha``, in place.

    All four are flat contiguous float64 vectors of one length, and x and r
    share no memory with the others.
    """
    _check_buffers(x.size, (x, r), (p, Ap))
    lib = _compiled()
    if lib:
        lib.masspcg_cg_update(x.size, x.ctypes.data, r.ctypes.data, p.ctypes.data, Ap.ctypes.data, alpha)
        return
    _numpy().cg_update(x, r, p, Ap, alpha)


def p_update(p: np.ndarray, z: np.ndarray, beta: float) -> None:
    """The new search direction ``p = p*beta + z``, in place; as :func:`cg_update`."""
    _check_buffers(p.size, (p,), (z,))
    lib = _compiled()
    if lib:
        lib.masspcg_p_update(p.size, p.ctypes.data, z.ctypes.data, beta)
        return
    _numpy().p_update(p, z, beta)


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
