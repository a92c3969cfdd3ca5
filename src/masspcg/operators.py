"""Matrix-free application of the Dirichlet Laplacian and the scaled mass
operator, the CG vector updates, and the page-aligned allocator of new vectors.

Both operators act on flat vectors of length ``n**d`` and never assemble a
matrix. Off-grid neighbors contribute zero (homogeneous Dirichlet closure), so
each operator is tridiagonal-Toeplitz along every axis and the tensor-product
sine vectors are exact shared eigenvectors.

Scaling conventions on the unit domain with ``h = 1/(n+1)``:

* Laplacian: per-axis stencil ``(-1, 2, -1) / h**2``, summed over axes.
* Mass: per-axis sweep with weights ``(h/6) * (1, 4, 1)``, composed over axes,
  times a dimensional scale of ``h`` in 1D, ``1`` in 2D and ``1/h`` in 3D
  (i.e. ``h**(2-d)`` overall).

The first call to a stencil or to :func:`bind_updates` compiles
``_stencils.c`` with the system C compiler and loads it through ctypes; later
calls and processes reuse the cached library. Without a compiler, or when the
build or load fails, the numpy fallback of ``_sweeps`` serves. The two are one
kernel table with the same names and arguments (``_native.SIGNATURES``): each
operator checks its operands, computes the rounded scalars and the scratch
once, and makes one call to whichever serves; the CG updates are bound once
per solve. Both give the bits of ``tests/oracle.py``, the bitwise reference.
Nothing is compiled, loaded or parsed for either at import.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .grid import DimensionMismatchError, GridSpec, check_vector


# The kernel table that serves every call: None until the first kernel call,
# then the compiled library, or the _sweeps module when it could not be built
# or loaded.
_kernels = None


def _backend():
    """The kernel table, chosen on first use."""
    global _kernels
    if _kernels is None:
        # imported here so that importing masspcg neither builds nor loads
        # anything, nor even parses the build code or the fallback
        from . import _native

        try:
            _kernels = _native.load_library()
        except _native.LOAD_ERRORS:
            from . import _sweeps

            _kernels = _sweeps
    return _kernels


def _vector(size: int, value=None) -> np.ndarray:
    """A new vector on a page, set to ``value`` unless None: the kernels store
    in place, so an output a few bytes past its input modulo 4096 stalls them
    (4K aliasing), as consecutive heap blocks lie."""
    raw = np.empty(size + 511)
    v = raw[-raw.ctypes.data % 4096 // 8 :][:size]
    if value is not None:
        v[...] = value
    return v


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


def _operands(spec: GridSpec, u, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``u`` as a contiguous float64 grid vector, and the caller's checked
    ``out`` buffer or a new one on a page."""
    u = check_vector(spec, u)
    if out is None:
        out = _vector(spec.size)
    else:
        _check_buffers(spec.size, (out,))
        if np.may_share_memory(out, u):
            raise ValueError("out must not share memory with u")
    return np.ascontiguousarray(u), out


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
    u, out = _operands(spec, u, out)
    _backend().laplacian(spec.d, spec.n, u, out, 2.0 * spec.d, spec.h**2)
    return out


def apply_mass(spec: GridSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the scaled finite-element mass operator with Dirichlet closure.

    Implemented as d successive 1D tridiagonal sweeps with weights
    ``(h/6)*(1, 4, 1)``, one along each axis, times the dimensional scale
    ``h**(2-d)``. The compiled kernel sweeps each axis-0 plane into scratch
    in 3D, then each line chunk across lines into a stack buffer and along
    it. ``out`` is as in :func:`apply_laplacian`.
    """
    u, out = _operands(spec, u, out)
    d, n, h = spec.d, spec.n, spec.h
    # one axis-0 plane for both backends: the compiled kernel's across-planes
    # sweep in 3D, and the plane the numpy sweeps go through
    scratch = np.empty(n ** (d - 1))
    _backend().mass(d, n, u, out, h / 6.0, h ** (2 - d), scratch)
    return out


def bind_updates(x: np.ndarray, r: np.ndarray, p: np.ndarray, Ap: np.ndarray, z: np.ndarray):
    """The CG updates of one solve, their operands checked and converted once:
    ``step(alpha)`` makes ``r -= Ap*alpha``, and ``direction(alpha, beta)``
    ``x += p*alpha`` and then ``p = p*beta + z`` in one pass, all in place. All
    five are flat contiguous float64 vectors of one length. x, r and p share no
    memory with the others, but z may be r (plain CG) or share Ap's buffer."""
    size = x.size
    _check_buffers(size, (x, r, p), (Ap, z))
    others = (r, p, Ap) if z is r else (r, p, Ap, z)
    for i, v in enumerate((x, r, p)):
        if any(np.may_share_memory(v, w) for w in others[i:]):
            raise ValueError("x, r and p must not share memory with the other vectors")
    kernels = _backend()
    x, r, p, Ap, z = kernels.bind(x, r, p, Ap, z)
    return partial(kernels.r_update, size, r, Ap), partial(kernels.xp_update, size, x, p, z)
