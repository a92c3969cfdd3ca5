"""The numpy fallback of ``masspcg.operators``, imported only when the kernels
of ``_stencils.c`` cannot be built or loaded. It is the other implementation
of the kernel table of ``_native.SIGNATURES``: the same names, and the same
arguments and scalars, computed by ``operators``; each kernel makes its own
temporaries. Like the compiled kernels it gives the bits of the bitwise
reference, the whole-array stencils of ``tests/oracle.py``.
"""

from __future__ import annotations

import numpy as np

#: Entries per update chunk, whose products share one temporary per call, a
#: chunk or the whole vector when shorter, which is not a work vector.
CHUNK = 1 << 16


def _axis_slices(axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Indices (lo, hi) selecting all-but-last / all-but-first along ``axis``;
    the axes after it are left whole."""
    whole = (slice(None),) * axis
    return whole + (slice(0, -1),), whole + (slice(1, None),)


def laplacian(d: int, n: int, u: np.ndarray, out: np.ndarray, diag: float, h2: float) -> None:
    """``out = A_d u``: ``diag*u`` minus each neighbour, over ``h2``."""
    v = u.reshape((n,) * d)
    w = out.reshape(v.shape)
    np.multiply(v, diag, out=w)
    for axis in range(d):
        lo, hi = _axis_slices(axis)
        w[lo] -= v[hi]
        w[hi] -= v[lo]
    out /= h2


def _sweep(src: np.ndarray, dst: np.ndarray, axis: int, c: float) -> None:
    """``dst = c * (1, 4, 1)`` applied to ``src`` along ``axis``."""
    np.multiply(src, 4.0, out=dst)
    lo, hi = _axis_slices(axis)
    dst[lo] += src[hi]
    dst[hi] += src[lo]
    dst *= c


def mass(d: int, n: int, u: np.ndarray, out: np.ndarray, c: float, s: float) -> None:
    """``out = M_d u``: the axis-0 sweep from ``u`` into ``out``, then the
    sweeps along the other axes one axis-0 plane at a time, each through one
    plane buffer of ``n**(d-1)`` values and copied back, then ``out *= s``."""
    w = out.reshape((n,) * d)
    _sweep(u.reshape(w.shape), w, 0, c)
    if d > 1:
        buffer = np.empty(w.shape[1:])
        for plane in w:
            for axis in range(d - 1):
                _sweep(plane, buffer, axis, c)
                plane[...] = buffer
    out *= s


def r_update(size: int, r: np.ndarray, Ap: np.ndarray, alpha: float) -> None:
    """``r -= Ap*alpha``, each product rounded through one chunk-sized temporary."""
    t = np.empty(min(CHUNK, size))
    for a in range(0, size, CHUNK):
        rs = r[a : a + CHUNK]
        rs -= np.multiply(Ap[a : a + CHUNK], alpha, out=t[: rs.size])


def xp_laplacian(d: int, n: int, x: np.ndarray, p: np.ndarray, z: np.ndarray, out: np.ndarray,
                 alpha: float, beta: float, diag: float, h2: float) -> None:
    """``x += p*alpha``, rounded as in :func:`r_update`, then ``p = p*beta + z``,
    then ``out = A_d p``; z may be ``out``, whole read before it is written."""
    t = np.empty(min(CHUNK, x.size))
    for a in range(0, x.size, CHUNK):
        xs, ps = x[a : a + CHUNK], p[a : a + CHUNK]
        xs += np.multiply(ps, alpha, out=t[: xs.size])
        ps *= beta
        ps += z[a : a + CHUNK]
    del t  # freed first: the sweep's own temporaries would add to it
    laplacian(d, n, p, out, diag, h2)


def bind(*vectors) -> tuple:
    """The vectors as arguments of these kernels: the arrays themselves."""
    return vectors
