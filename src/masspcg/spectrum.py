"""Closed-form spectra, condition numbers, and iteration-ratio predictions.

Under homogeneous Dirichlet closure all three operators share the tensor-product
sine eigenbasis, so every eigenvalue is a closed-form function of the per-axis
frequencies ``k_j in {1..n}``. With ``c_j = cos(pi*h*k_j)``:

* Laplacian:        ``(2/h**2) * sum_j (1 - c_j)``
* mass:             ``(h**2/3**d) * prod_j (2 + c_j)``
* preconditioned:   ``(2/3**d) * prod_j (2 + c_j) * sum_j (1 - c_j)``

Spectrum extremes are found by an exact scan of the discrete spectrum (reduced
well below full ``n**d`` enumeration, see below), never by trusting the
continuous-maximizer approximation. The scan covers ``n**max(d-1, 1)``
frequency tuples, capped at ``SCAN_CAP``. A per-dimension closed-form condition
number for the preconditioned operator exists (evaluate the symmetric tuple at
the integer part of the continuous maximizer position); it is reported, checked
against the scan, and any disagreement is surfaced in
:class:`ClosedFormCheck` rather than silently absorbed. The disagreement is
real for many grids with ``d >= 2``: the cosine set is symmetric about zero, so
the true discrete maximum often occurs at an asymmetric frequency tuple that
mixes ``k`` and ``n+1-k``, which the symmetric closed form cannot reach.

Scan correctness rests on per-coordinate structure: with all other coordinates
fixed, each eigenvalue is either monotone (Laplacian, mass) or a concave
parabola (preconditioned) in the remaining cosine, so minima live on corner
tuples and maxima next to the per-coordinate parabola vertex: one broadcast
loop over the other ``d-1`` coordinates, the same for d = 1, 2 and 3, finds the
maximum.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import acos, pi, sqrt

import numpy as np

from .grid import GridSpec

#: Cap on full-spectrum enumeration size (number of eigenvalues).
SPECTRUM_CAP = 2**20

#: Relative tolerance at which the closed form counts as agreeing with the scan.
CLOSED_FORM_RTOL = 1e-12

#: Limit of the condition-number ratio r = kappa/kappa_p as h -> 0, by dimension.
ASYMPTOTIC_RATIO_LIMIT = {1: 8 / 3, 2: 9 / 2, 3: 512 / 81}

#: Cap on the extreme-eigenvalue scan size, ``n**max(d-1, 1)`` frequency tuples.
SCAN_CAP = 2**24

# Block size (in frequency tuples) of the vertex scan; fixed for determinism.
_SCAN_CHUNK = 1 << 22


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

    ``argmin``/``argmax`` are frequency-index tuples (sorted ascending; the
    eigenvalue is symmetric under permutation) at which the extremes are
    attained. ``closed_form`` is populated for the preconditioned operator
    only.
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
    k = tuple(int(kj) for kj in k)
    if len(k) != spec.d:
        raise ValueError(f"index tuple {k} has length {len(k)}, expected d={spec.d}")
    for kj in k:
        if not 1 <= kj <= spec.n:
            raise ValueError(f"frequency index {kj} outside 1..{spec.n}")
    return k


def _eigenvalues(kind: OperatorKind, spec: GridSpec, cosines):
    """Closed-form eigenvalues from per-axis cosines ``cosines[j] = cos(pi*h*k_j)``.

    The entries may be scalars or broadcastable arrays. The sum and product
    accumulate left to right over the axes, so every caller gets bit-identical
    values for the same frequency tuple.
    """
    s, p = 0.0, 1.0
    for c in cosines:
        s = s + (1.0 - c)
        p = p * (2.0 + c)
    h = spec.h
    if kind is OperatorKind.LAPLACIAN:
        return 2.0 / h**2 * s
    if kind is OperatorKind.MASS:
        return h**2 / 3.0**spec.d * p
    return 2.0 / 3.0**spec.d * p * s


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
    argmax is one of the two cosines bracketing the vertex ``(K-2)/2``. One
    broadcast loop applies that reduction to all ``n**(d-1)`` assignments of
    the other coordinates (a single one in 1D), an exact
    ``O(n**(d-1) log n)`` search in blocks of about ``_SCAN_CHUNK`` tuples;
    :func:`spectrum_report` caps ``n**max(d-1, 1)`` at ``SCAN_CAP``. Ties keep
    the first maximum found.
    """
    n, d, top = spec.n, spec.d, spec.n
    if d == 1:
        # the one scan needs only the cosines around the vertex -1/2, at
        # k = 2/(3h)
        top = min(n, int(2.0 / (3.0 * spec.h)) + 4)
        cs = _cosines(spec, np.arange(top, max(top - 8, 0), -1))
    else:
        cs = axis_cosines(spec)[::-1]
    # ascending: position i holds k = top - i
    others = list(np.meshgrid(*([cs] * (d - 1)), indexing="ij", sparse=True))
    stride = n ** max(d - 2, 0)  # tuples per position of the first other coordinate
    rows = max(1, _SCAN_CHUNK // stride)
    best_val, best = -np.inf, ()
    for start in range(0, n if others else 1, rows):
        s_other, p_other = 0.0, 1.0
        # only the first other coordinate is cut into blocks
        for o in [o[start : start + rows] for o in others[:1]] + others[1:]:
            s_other = s_other + o
            p_other = p_other * (2.0 + o)
        pos = np.searchsorted(cs, (d - s_other - 2.0) / 2.0)
        for off in (0, -1):
            j = np.clip(pos + off, 0, len(cs) - 1)
            x = cs[j]
            lam = np.ravel((2.0 + x) * p_other * (d - s_other - x))
            i = int(np.argmax(lam))
            if lam[i] > best_val:
                best_val = lam[i]
                best = (np.ravel(j)[i], *np.unravel_index(start * stride + i, (n,) * (d - 1)))
    return tuple(sorted(top - int(i) for i in best))


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

    Extremes come from an exact scan of the discrete spectrum: the Laplacian
    and mass eigenvalues are monotone per axis, so their extremes sit at the
    all-1 / all-n tuples; the preconditioned minimum sits on a corner tuple and
    its maximum is located by the per-coordinate parabola-vertex scan. For the
    preconditioned operator the report also carries the closed-form condition
    number and whether it agrees with the scan (see :class:`ClosedFormCheck`).

    Raises SpectrumCapError, before allocating anything, when the scan's
    ``n**max(d-1, 1)`` frequency tuples exceed ``SCAN_CAP``.
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
