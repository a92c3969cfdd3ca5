"""The numpy fallback of ``masspcg.operators``, imported only when the kernels
of ``_stencils.c`` cannot be built or loaded. Like them it gives the bits of
the bitwise reference, the whole-array stencils of ``tests/oracle.py``, and it
allocates no vector-sized temporary, which ``solver.WORK_VECTORS`` would miss.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

#: Entries per :func:`cg_update` chunk, whose products share one temporary.
CHUNK = 1 << 16


def _axis_slices(axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Indices (lo, hi) selecting all-but-last / all-but-first along ``axis``;
    the axes after it are left whole."""
    whole = (slice(None),) * axis
    return whole + (slice(0, -1),), whole + (slice(1, None),)


def laplacian(spec: GridSpec, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A_d u``: ``2d*u`` minus each neighbour, over ``h**2``."""
    v = u.reshape(spec.shape)
    w = out.reshape(spec.shape)
    np.multiply(v, 2.0 * spec.d, out=w)
    for axis in range(spec.d):
        lo, hi = _axis_slices(axis)
        w[lo] -= v[hi]
        w[hi] -= v[lo]
    out /= spec.h**2
    return out


def _sweep(src: np.ndarray, dst: np.ndarray, axis: int, h: float) -> None:
    """``dst = (h/6) * (1, 4, 1)`` applied to ``src`` along ``axis``."""
    np.multiply(src, 4.0, out=dst)
    lo, hi = _axis_slices(axis)
    dst[lo] += src[hi]
    dst[hi] += src[lo]
    dst *= h / 6.0


def mass(spec: GridSpec, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = M_d u``: the axis-0 sweep from ``u`` into ``out``, then the
    sweeps along the other axes one axis-0 plane at a time, each through a
    plane-sized scratch and copied back."""
    h = spec.h
    w = out.reshape(spec.shape)
    _sweep(u.reshape(spec.shape), w, 0, h)
    if spec.d > 1:
        scratch = np.empty(spec.shape[1:])
        for plane in w:
            for axis in range(spec.d - 1):
                _sweep(plane, scratch, axis, h)
                plane[...] = scratch
    out *= h ** (2 - spec.d)
    return out


def cg_update(x: np.ndarray, r: np.ndarray, p: np.ndarray, Ap: np.ndarray, alpha: float) -> None:
    """``x += p*alpha`` and ``r -= Ap*alpha``, each product rounded before the
    add, through one chunk-sized temporary."""
    t = np.empty(min(CHUNK, x.size))
    for a in range(0, x.size, CHUNK):
        xs, rs = x[a : a + CHUNK], r[a : a + CHUNK]
        xs += np.multiply(p[a : a + CHUNK], alpha, out=t[: xs.size])
        rs -= np.multiply(Ap[a : a + CHUNK], alpha, out=t[: xs.size])


def p_update(p: np.ndarray, z: np.ndarray, beta: float) -> None:
    """``p = p*beta + z``."""
    p *= beta
    p += z
