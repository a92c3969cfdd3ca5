"""Matrix-free application of the Dirichlet Laplacian and the scaled mass
operator, the CG loop's kernels bound once per solve, and the page-aligned
allocator of new vectors.

Both operators act on flat vectors of length ``n**d`` and never assemble a
matrix. Off-grid neighbors contribute zero (homogeneous Dirichlet closure), so
each operator is tridiagonal-Toeplitz along every axis and the tensor-product
sine vectors are exact shared eigenvectors.

Scaling conventions on the unit domain with ``h = 1/(n+1)``:

* Laplacian: per-axis stencil ``(-1, 2, -1) / h**2``, summed over axes.
* Mass: per-axis sweep with weights ``(h/6) * (1, 4, 1)``, composed over axes,
  times a dimensional scale of ``h`` in 1D, ``1`` in 2D and ``1/h`` in 3D
  (i.e. ``h**(2-d)`` overall).

The first call to a stencil or to :func:`bind_kernels` compiles
``_stencils.c`` with the system C compiler and loads it through ctypes; later
calls and processes reuse the cached library. Without a compiler, or when the
build or load fails, the numpy fallback of ``_sweeps`` serves. The two are one
kernel table with the same names and arguments (``_native.SIGNATURES``): each
operator checks its operands, computes the rounded scalars and the scratch
once, and makes one call to whichever serves. A CG solve binds the four
kernels of its loop once instead (:func:`bind_kernels`), the x and p update
fused into the next Laplacian sweep, so its iterations make bare kernel calls.
Both give the bits of ``tests/oracle.py``, the bitwise reference. Nothing is
compiled, loaded or parsed for either at import.
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


def _check_buffers(size: int, written: tuple) -> None:
    """Reject vectors the kernels cannot take as bare pointers to write: each
    must be a flat contiguous writeable float64 ndarray of ``size`` entries."""
    shape = (size,)
    for v in written:
        if not isinstance(v, np.ndarray) or v.dtype != np.float64 or not v.flags.c_contiguous:
            raise ValueError("vectors must be contiguous float64 ndarrays")
        if v.shape != shape:
            raise DimensionMismatchError(f"a vector has shape {v.shape}, expected {shape}")
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


def bind_kernels(spec: GridSpec, x: np.ndarray, r: np.ndarray, p: np.ndarray, Ap: np.ndarray,
                 z: np.ndarray) -> tuple:
    """The kernels of a CG iteration on one solve's vectors, their operands
    checked and bound and their scalars and scratch made once:
    ``laplacian()`` makes ``Ap = A p``; ``xp_laplacian(alpha, beta)`` makes
    ``x += p*alpha``, then ``p = p*beta + z``, then ``Ap = A p`` in one sweep;
    ``step(alpha)`` makes ``r -= Ap*alpha``; ``mass()`` makes ``z = M r``, or
    is None when z is r (plain CG). All five are flat contiguous float64
    vectors of ``spec.size`` values; x, r, p and Ap share no memory, and z is
    r, Ap, or apart from them."""
    d, n, h = spec.d, spec.n, spec.h
    _check_buffers(spec.size, (x, r, p, Ap, z))
    apart = (x, r, p, Ap) if z is r or z is Ap else (x, r, p, Ap, z)
    if any(np.may_share_memory(v, w) for i, v in enumerate(apart) for w in apart[i + 1 :]):
        raise ValueError("x, r, p, Ap and a separate z must not share memory")
    kernels = _backend()
    scratch = () if z is r else (_vector(n ** (d - 1)),)
    x, r, p, Ap, z, *scratch = kernels.bind(x, r, p, Ap, z, *scratch)
    diag, h2, xp = 2.0 * d, h**2, kernels.xp_laplacian
    return (partial(kernels.laplacian, d, n, p, Ap, diag, h2),
            lambda alpha, beta: xp(d, n, x, p, z, Ap, alpha, beta, diag, h2),
            partial(kernels.r_update, spec.size, r, Ap),
            partial(kernels.mass, d, n, r, z, h / 6.0, h ** (2 - d), *scratch) if scratch else None)
