"""Matrix-free application of the Dirichlet Laplacian and the scaled mass
operator, the work vectors of a CG solve with its loop's kernels bound once,
and the page-aligned allocator of new vectors.

Both operators act on flat vectors of length ``n**d`` and never assemble a
matrix. Off-grid neighbors contribute zero (homogeneous Dirichlet closure), so
each operator is tridiagonal-Toeplitz along every axis and the tensor-product
sine vectors are exact shared eigenvectors.

Scaling conventions on the unit domain with ``h = 1/(n+1)``:

* Laplacian: per-axis stencil ``(-1, 2, -1) / h**2``, summed over axes.
* Mass: per-axis sweep with weights ``(h/6) * (1, 4, 1)``, composed over axes,
  times a dimensional scale of ``h`` in 1D, ``1`` in 2D and ``1/h`` in 3D
  (i.e. ``h**(2-d)`` overall).

The first call to a stencil or to :func:`cg_workspace` compiles
``_stencils.c`` with the system C compiler and loads it through ctypes; later
calls and processes reuse the cached library. Without a compiler, or when the
build or load fails, the numpy fallback of ``_sweeps`` serves. The two are one
kernel table with the same names and arguments (``_native.SIGNATURES``),
whose kernels take only vectors made by its ``bind`` and keep their own
temporaries: each operator checks its operands, binds them, computes the
rounded scalars once, and makes one call to whichever serves. A CG solve
allocates its work vectors and binds the three kernels of its loop to them
once instead (:func:`cg_workspace`), the x and p update fused into the next
Laplacian sweep, so its iterations make bare kernel calls. Both give the bits
of ``tests/oracle.py``, the bitwise reference. Nothing is compiled, loaded or
parsed for either at import.
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


def _operands(spec: GridSpec, u, out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``u`` as a contiguous float64 grid vector, and the caller's ``out``
    buffer or a new one on a page. The kernels take ``out`` as a bare pointer
    to write, so it must be a flat contiguous writeable float64 ndarray of
    ``spec.size`` entries, apart from ``u``."""
    u = check_vector(spec, u)
    if out is None:
        out = _vector(spec.size)
    elif not isinstance(out, np.ndarray) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a contiguous float64 ndarray")
    elif out.shape != (spec.size,):
        raise DimensionMismatchError(f"out has shape {out.shape}, expected {(spec.size,)}")
    elif not out.flags.writeable:
        raise ValueError("out must be writeable")
    elif np.may_share_memory(out, u):
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
    kernels = _backend()
    kernels.laplacian(spec.d, spec.n, *kernels.bind(u, out), 2.0 * spec.d, spec.h**2)
    return out


def apply_mass(spec: GridSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the scaled finite-element mass operator with Dirichlet closure.

    Implemented as d successive 1D tridiagonal sweeps with weights
    ``(h/6)*(1, 4, 1)``, one along each axis, times the dimensional scale
    ``h**(2-d)``. The compiled kernel takes a line chunk at a time through
    stack buffers: across planes in 3D, across lines, then along the line.
    ``out`` is as in :func:`apply_laplacian`.
    """
    u, out = _operands(spec, u, out)
    kernels = _backend()
    kernels.mass(spec.d, spec.n, *kernels.bind(u, out), spec.h / 6.0, spec.h ** (2 - spec.d))
    return out


def cg_workspace(spec: GridSpec, b: np.ndarray, mass: bool) -> tuple:
    """The work vectors of one CG solve of ``A x = b``, each on a page, and
    the kernels of its iteration bound to them once, with their scalars:
    ``(x, r, p, Ap, z, xp_laplacian, step, mass)``. x = 0, r = b,
    p = 0 and Ap unset; z is Ap in mass PCG and r in plain CG.
    ``xp_laplacian(alpha, beta)`` makes ``x += p*alpha``, then
    ``p = p*beta + z``, then ``Ap = A p`` in one sweep; ``step(alpha)`` makes
    ``r -= Ap*alpha``; ``mass()`` makes ``z = M r``, and is None in plain CG.
    ``b`` is a checked float64 grid vector, copied into r and never written,
    so a read-only or stride-0 view serves."""
    d, n, h, size = spec.d, spec.n, spec.h, spec.size
    x, r, p, Ap = _vector(size, 0.0), _vector(size, b), _vector(size, 0.0), _vector(size)
    z = Ap if mass else r
    kernels = _backend()
    bx, br, bp, bAp, bz = kernels.bind(x, r, p, Ap, z)
    diag, h2, xp = 2.0 * d, h**2, kernels.xp_laplacian
    return (x, r, p, Ap, z,
            lambda alpha, beta: xp(d, n, bx, bp, bz, bAp, alpha, beta, diag, h2),
            partial(kernels.r_update, size, br, bAp),
            partial(kernels.mass, d, n, br, bz, h / 6.0, h ** (2 - d)) if mass else None)
