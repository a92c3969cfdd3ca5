"""Closed-form spectra, condition numbers, and iteration-ratio predictions.

Under homogeneous Dirichlet closure all three operators share the tensor-product
sine eigenbasis, so every eigenvalue is a closed-form function of the per-axis
frequencies ``k_j in {1..n}``. With ``c_j = cos(pi*h*k_j)``:

* Laplacian:        ``(2/h**2) * sum_j (1 - c_j)``
* mass:             ``(h**2/3**d) * prod_j (2 + c_j)``
* preconditioned:   ``(2/3**d) * prod_j (2 + c_j) * sum_j (1 - c_j)``

Spectrum extremes come from an exact scan of the discrete spectrum, never
from the continuous-maximizer approximation; ``SCAN_CAP`` bounds the grids
it takes. The symmetric closed-form preconditioned condition number is
reported beside the scan's in :class:`ClosedFormCheck`, never in its place:
the cosine set is symmetric about zero, so for many grids with ``d >= 2``
the discrete maximum sits at an asymmetric tuple mixing ``k`` and ``n+1-k``.

Per coordinate, each eigenvalue is monotone (Laplacian, mass) or a concave
parabola (preconditioned) in its cosine, so minima sit on corner tuples and
maxima next to the vertex, where an AM-GM row bound leaves few rows to scan
in one pass (:func:`_preconditioned_max`): 1-2 in 3D up to n = 4096 and in 2D
up to n = 2**20, 6 at 2D n = 2**22 and 24-25 at 2**24 - 1 and 2**24.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import acos, pi, sqrt

import numpy as np

from .grid import GridSpec, is_integer

#: Cap on full-spectrum enumeration size (number of eigenvalues).
SPECTRUM_CAP = 2**20

#: Relative tolerance at which the closed form counts as agreeing with the scan.
CLOSED_FORM_RTOL = 1e-12

#: Limit of the condition-number ratio r = kappa/kappa_p as h -> 0, by dimension.
ASYMPTOTIC_RATIO_LIMIT = {1: 8 / 3, 2: 9 / 2, 3: 512 / 81}

#: Cap on ``n**max(d-1, 1)``: the grids the extreme-eigenvalue scan takes.
SCAN_CAP = 2**24


class OperatorKind(enum.Enum):
    """Which grid operator an operation refers to."""

    LAPLACIAN = "laplacian"
    MASS = "mass"
    PRECONDITIONED = "preconditioned"


class SpectrumCapError(RuntimeError):
    """Full-spectrum enumeration or the extreme-eigenvalue scan would exceed its size cap."""

    def __init__(self, required: int, allowed: int,
                 task: str = "spectrum enumeration", unit: str = "eigenvalues"):
        super().__init__(f"{task} needs {required} {unit}, cap is {allowed}")
        self.required = required
        self.allowed = allowed


@dataclass(frozen=True)
class ClosedFormCheck:
    """Closed-form preconditioned condition number versus the exact scan.

    ``index`` is the integer part of the continuous maximizer position
    (2/(3h), 1/(2h), arccos(1/4)/(pi*h) for d = 1, 2, 3), clamped into
    ``{1..n}``; the closed form evaluates the symmetric tuple
    ``(index,)*d``. ``agrees`` is True when ``kappa`` matches ``scan_kappa``
    to ``CLOSED_FORM_RTOL`` relative; ``rel_gap`` is
    ``(scan_kappa - kappa)/scan_kappa`` (nonnegative, since the symmetric
    tuple can never exceed the true discrete maximum).
    """

    index: int
    kappa: float
    scan_kappa: float
    agrees: bool
    rel_gap: float


@dataclass(frozen=True)
class SpectrumReport:
    """Extreme eigenvalues and condition number of one operator instance.

    ``argmin``/``argmax`` are sorted frequency-index tuples at which the
    extremes are attained (permuting a tuple keeps its eigenvalue's bits).
    ``closed_form`` is populated for the preconditioned operator only.
    """

    kind: OperatorKind
    spec: GridSpec
    lambda_min: float
    lambda_max: float
    kappa: float
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]
    closed_form: ClosedFormCheck | None = None


@dataclass(frozen=True)
class RatioReport:
    """Condition numbers of the plain and preconditioned operators and their ratio."""

    spec: GridSpec
    kappa: float
    kappa_p: float
    r: float
    predicted_iter_ratio: float
    asymptotic_limit: float


def _cosines(spec: GridSpec, k: np.ndarray) -> np.ndarray:
    """cos(pi*h*k) for integer frequency indices ``k``: the one formula, so
    the scan, the full spectrum and :func:`eigenvalue` agree bit for bit."""
    return np.cos(pi * spec.h * k)


def axis_cosines(spec: GridSpec) -> np.ndarray:
    """cos(pi*h*k) for k = 1..n (strictly decreasing in k)."""
    return _cosines(spec, np.arange(1, spec.n + 1))


def _check_indices(spec: GridSpec, k) -> tuple[int, ...]:
    k = tuple(k)
    if len(k) != spec.d:
        raise ValueError(f"index tuple {k} has length {len(k)}, expected d={spec.d}")
    if not all(is_integer(kj) and 1 <= kj <= spec.n for kj in k):
        raise ValueError(f"frequency indices {k} are not all integers in 1..{spec.n}")
    return tuple(int(kj) for kj in k)


def _eigenvalues(kind: OperatorKind, spec: GridSpec, cosines):
    """Closed-form eigenvalues from per-axis cosines ``cosines[j] = cos(pi*h*k_j)``.

    The entries may be scalars or broadcastable arrays. The sum and product
    take the cosines in ascending order (three pass a min/max network; two
    commute), so the bits depend only on the multiset of frequencies.
    """
    if len(cosines) == 3:
        a, b, c = cosines
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        cosines = np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c)
    s, p = 0.0, 1.0
    for c in cosines:
        s = s + (1.0 - c)
        p = p * (2.0 + c)
    if kind is OperatorKind.LAPLACIAN:
        return 2.0 / spec.h**2 * s
    if kind is OperatorKind.MASS:
        return spec.h**2 / 3.0**spec.d * p
    if kind is OperatorKind.PRECONDITIONED:
        return 2.0 / 3.0**spec.d * p * s
    raise ValueError(f"kind must be an OperatorKind, got {kind!r}")


def eigenvalue(kind: OperatorKind, spec: GridSpec, k) -> float:
    """Closed-form eigenvalue of the operator at frequency tuple ``k``.

    Each ``k_j`` must lie in ``{1..n}``; raises ValueError otherwise.
    """
    c = _cosines(spec, np.array(_check_indices(spec, k)))
    return float(_eigenvalues(kind, spec, list(c)))


def full_spectrum(kind: OperatorKind, spec: GridSpec) -> np.ndarray:
    """All ``n**d`` eigenvalues in ascending order.

    Raises SpectrumCapError when ``n**d`` exceeds ``SPECTRUM_CAP``.
    """
    if spec.size > SPECTRUM_CAP:
        raise SpectrumCapError(required=spec.size, allowed=SPECTRUM_CAP)
    cosines = np.meshgrid(*([axis_cosines(spec)] * spec.d), indexing="ij", sparse=True)
    return np.sort(_eigenvalues(kind, spec, cosines).reshape(-1))


def _preconditioned_max(spec: GridSpec) -> tuple[int, ...]:
    """Argmax frequency tuple of the preconditioned spectrum, by exact scan.

    For fixed other coordinates the eigenvalue is ``const * (2+x)(K-x)`` in the
    remaining cosine ``x``, a concave parabola, so the per-coordinate discrete
    argmax is one of the two cosines bracketing the vertex ``(K-2)/2``. For
    d >= 2 a row fixes the first other cosine ``y`` too; AM-GM over the ``d``
    factors left (sum ``3d-2-y``) bounds it by ``(2/3**d)(2+y)((3d-2-y)/d)**d``.
    Only rows whose bound times ``1 + 1e-12`` reaches the best value of the
    row of largest bound are scanned (rounding lifts a value over its bound by
    a few ulps at most), in one pass, the candidates ranked by
    :func:`_eigenvalues`. No skipped row holds a maximum, so the argmax's value
    is the largest in :func:`full_spectrum`, bit for bit.
    """
    n, d, top, kind = spec.n, spec.d, spec.n, OperatorKind.PRECONDITIONED
    if d == 1:
        # 1D needs only the cosines around the vertex -1/2, at k = 2/(3h)
        top = min(n, int(2.0 / (3.0 * spec.h)) + 4)
        cs = _cosines(spec, np.arange(top, max(top - 8, 0), -1))
    else:
        cs = axis_cosines(spec)[::-1]
    # ascending: position i holds k = top - i
    others = list(np.meshgrid(*([cs] * (d - 1)), indexing="ij", sparse=True, copy=False))

    def scan(rows):  # first largest value over the rows, and its positions
        other = [o[rows] for o in others[:1]] + others[1:]
        pos = np.searchsorted(cs, (d - sum(other, 0.0) - 2.0) / 2.0)
        j = np.clip([pos, pos - 1], 0, len(cs) - 1)
        lam = np.reshape(_eigenvalues(kind, spec, [cs[j], *other]), (2, len(rows), -1))
        i = np.unravel_index(np.argmax(lam), lam.shape)
        return lam[i], (j.reshape(lam.shape)[i], rows[i[1]], i[2])[:d]

    rows = np.zeros(1, dtype=np.intp)  # 1D: the one scan
    if others:
        bound = 2.0 / 3.0**d * (2.0 + cs) * ((3 * d - 2 - cs) / d) ** d
        floor, _ = scan(rows + np.argmax(bound))
        rows = np.flatnonzero(bound * (1.0 + 1e-12) >= floor)
    return tuple(sorted(top - int(i) for i in scan(rows)[1]))


def closed_form_preconditioned_kappa(spec: GridSpec) -> tuple[int, float]:
    """Closed-form preconditioned condition number and its integer-part index.

    Evaluates the symmetric frequency tuple ``(index,)*d`` against the
    smallest frequency tuple ``(1,)*d``, with ``index = floor(x*)`` for the
    continuous maximizer position ``x* = 2/(3h)``, ``1/(2h)``,
    ``arccos(1/4)/(pi*h)`` in 1, 2, 3 dimensions, clamped into ``{1..n}``
    (relevant only for d=3, n=1 where the floor is 0).
    """
    h = spec.h
    raw = (2.0 / (3.0 * h), 1.0 / (2.0 * h), acos(0.25) / (pi * h))[spec.d - 1]
    index = min(spec.n, max(1, int(raw)))
    num = eigenvalue(OperatorKind.PRECONDITIONED, spec, (index,) * spec.d)
    den = eigenvalue(OperatorKind.PRECONDITIONED, spec, (1,) * spec.d)
    return index, num / den


def spectrum_report(kind: OperatorKind, spec: GridSpec) -> SpectrumReport:
    """Extreme eigenvalues, their frequency tuples, and the condition number.

    The Laplacian and mass extremes sit at the all-1 / all-n tuples, the
    preconditioned minimum on a corner tuple and its maximum where
    :func:`_preconditioned_max` finds it; the preconditioned report also
    carries the closed-form check (see :class:`ClosedFormCheck`).

    Raises SpectrumCapError, before allocating anything, when
    ``n**max(d-1, 1)`` exceeds ``SCAN_CAP``, a bound on the grid, not the work.
    """
    n, d = spec.n, spec.d
    if n ** max(d - 1, 1) > SCAN_CAP:
        raise SpectrumCapError(n ** max(d - 1, 1), SCAN_CAP,
                               "extreme-eigenvalue scan", "frequency tuples")
    if kind is OperatorKind.LAPLACIAN:
        argmin, argmax = (1,) * d, (n,) * d
    elif kind is OperatorKind.MASS:
        argmin, argmax = (n,) * d, (1,) * d
    else:
        corners = (tuple(sorted(t)) for t in itertools.product((1, n), repeat=d))
        argmin = min(corners, key=lambda t: eigenvalue(kind, spec, t))
        argmax = _preconditioned_max(spec)
    lambda_min = eigenvalue(kind, spec, argmin)
    lambda_max = eigenvalue(kind, spec, argmax)
    kappa = lambda_max / lambda_min
    closed_form = None
    if kind is OperatorKind.PRECONDITIONED:
        index, cf_kappa = closed_form_preconditioned_kappa(spec)
        rel_gap = (kappa - cf_kappa) / kappa
        closed_form = ClosedFormCheck(
            index=index,
            kappa=cf_kappa,
            scan_kappa=kappa,
            agrees=abs(rel_gap) <= CLOSED_FORM_RTOL,
            rel_gap=rel_gap,
        )
    return SpectrumReport(
        kind=kind,
        spec=spec,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        kappa=kappa,
        argmin=argmin,
        argmax=argmax,
        closed_form=closed_form,
    )


def ratio_report(spec: GridSpec) -> RatioReport:
    """Condition-number ratio r = kappa/kappa_p and the predicted CG iteration ratio sqrt(r)."""
    kappa = spectrum_report(OperatorKind.LAPLACIAN, spec).kappa
    kappa_p = spectrum_report(OperatorKind.PRECONDITIONED, spec).kappa
    r = kappa / kappa_p
    return RatioReport(
        spec=spec,
        kappa=kappa,
        kappa_p=kappa_p,
        r=r,
        predicted_iter_ratio=sqrt(r),
        asymptotic_limit=ASYMPTOTIC_RATIO_LIMIT[spec.d],
    )
