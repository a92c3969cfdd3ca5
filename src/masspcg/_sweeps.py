"""The numpy sweeps and vector updates behind ``masspcg.operators``.

They are the reference for the compiled kernels of ``_stencils.c``, which give
the same bits, and the fallback when those cannot be built or loaded.
``operators`` imports this module only on that fallback path, so a fresh
``import masspcg`` does not parse it.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

#: Most unknowns in one slab. The sweeps cover the grid in slabs of whole
#: axis-0 planes (one plane when a single plane is larger), and the updates
#: cover vectors in chunks of this many entries, so the several passes each
#: slab takes stay in cache instead of streaming the whole vector.
SLAB = 1 << 16


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


def laplacian(spec: GridSpec, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A_d u``, slab by slab: ``2d*u`` minus each neighbour, over ``h**2``."""
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


def mass(spec: GridSpec, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = M_d u``: per slab, the axis sweeps alternate between ``out`` and
    one slab-sized scratch buffer so that the last one lands in ``out``."""
    h = spec.h
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


def cg_update(x: np.ndarray, r: np.ndarray, p: np.ndarray, Ap: np.ndarray, alpha: float) -> None:
    """``x += p*alpha`` and ``r -= Ap*alpha``, through one chunk-sized temporary."""
    t = np.empty(min(SLAB, x.size))
    for a in range(0, x.size, SLAB):
        xs, rs = x[a : a + SLAB], r[a : a + SLAB]
        xs += np.multiply(p[a : a + SLAB], alpha, out=t[: xs.size])
        rs -= np.multiply(Ap[a : a + SLAB], alpha, out=t[: xs.size])


def p_update(p: np.ndarray, z: np.ndarray, beta: float) -> None:
    """``p = p*beta + z``, chunk by chunk."""
    for a in range(0, p.size, SLAB):
        ps = p[a : a + SLAB]
        ps *= beta
        ps += z[a : a + SLAB]
