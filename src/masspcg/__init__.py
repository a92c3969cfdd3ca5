"""Matrix-free Dirichlet Laplacian, scaled mass operator, closed-form
spectra, and conjugate gradients with multiply-only mass preconditioning."""

from .grid import DimensionMismatchError, GridSpec, dot, norm2
from .operators import apply_laplacian, apply_mass
from .solver import (
    NumericalBreakdownError,
    SolveConfig,
    SolveReport,
    cg_solve,
)
from .spectrum import (
    ASYMPTOTIC_RATIO_LIMIT,
    ClosedFormCheck,
    OperatorKind,
    RatioReport,
    SpectrumCapError,
    SpectrumReport,
    eigenvalue,
    full_spectrum,
    ratio_report,
    spectrum_report,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC_RATIO_LIMIT",
    "ClosedFormCheck",
    "DimensionMismatchError",
    "GridSpec",
    "NumericalBreakdownError",
    "OperatorKind",
    "RatioReport",
    "SolveConfig",
    "SolveReport",
    "SpectrumCapError",
    "SpectrumReport",
    "apply_laplacian",
    "apply_mass",
    "cg_solve",
    "dot",
    "eigenvalue",
    "full_spectrum",
    "norm2",
    "ratio_report",
    "spectrum_report",
    "__version__",
]
