"""Uniform Dirichlet grids on the unit interval/square/cube and vector helpers.

Unknowns live at the interior points of a uniform mesh with ``n`` points per
axis; the mesh width is ``h = 1/(n+1)``. Vectors are flat float64 arrays of
length ``n**d`` in lexicographic (axis-major, C-order) ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """A vector does not match the grid it is used with."""


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool (which subclasses int)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    """Identifies one operator instance: dimension ``d`` and interior points per axis ``n``."""

    d: int
    n: int

    def __post_init__(self):
        if not is_integer(self.d) or self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if not is_integer(self.n) or self.n < 1:
            raise ValueError(f"interior point count must be a positive integer, got {self.n}")
        # Python ints, so that size and the scan counts cannot wrap around
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        """Mesh width on the unit domain, 1/(n+1)."""
        return 1.0 / (self.n + 1)

    @property
    def size(self) -> int:
        """Total number of unknowns, n**d."""
        return self.n**self.d


def check_vector(spec: GridSpec, u: np.ndarray, name: str = "u") -> np.ndarray:
    """Validate that ``u`` is a flat real vector of length ``spec.size``.

    Returns a float64 view/copy of ``u``. Raises TypeError on a complex
    vector, which the cast would silently drop to its real part, and
    DimensionMismatchError on a shape mismatch.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise TypeError(f"{name} is complex; a real vector is expected")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (spec.size,):
        raise DimensionMismatchError(
            f"{name} has shape {u.shape}, expected ({spec.size},) for d={spec.d}, n={spec.n}"
        )
    return u


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean inner product; vectors must have identical shape."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dot: shapes {u.shape} and {v.shape} differ")
    return float(u @ v)


def norm2(u: np.ndarray) -> float:
    """Euclidean 2-norm of a flat vector, sqrt(dot(u, u)), as the solver takes it."""
    return math.sqrt(dot(u, u))
