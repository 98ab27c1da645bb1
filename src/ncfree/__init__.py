"""Non-commutative derivatives, conjugate variables and their verification."""

from .ncpoly import NcPoly, Word
from .scalars import Scalar
from .tensor import TensorPoly2, TensorPoly3
from .derivations import d
from .trace import (
    DistributionSpec,
    ExplicitMoments,
    FreeFamily,
    SemicircularFamily,
    TraceFunctional,
    free_cumulants,
)
from .conjugate import (
    ConjugateCandidate,
    MarginsReport,
    VerificationReport,
    check_adjoint,
    check_conjugate,
    check_duality,
    norm_margins,
    dstar,
    fisher,
)
from .reduction import (
    delta,
    delta_p,
    extract_leading_coeff,
    relation_kernel,
)
from .randmat import (
    GUE,
    DiagonalFromMoments,
    DiagonalRademacher,
    EnsembleConfig,
    SpectralReport,
    empirical_margins,
    empirical_trace,
    opnorm_estimate,
    sample,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "NcPoly",
    "Word",
    "Scalar",
    "TensorPoly2",
    "TensorPoly3",
    "d",
    "DistributionSpec",
    "SemicircularFamily",
    "FreeFamily",
    "ExplicitMoments",
    "TraceFunctional",
    "free_cumulants",
    "ConjugateCandidate",
    "VerificationReport",
    "check_conjugate",
    "check_adjoint",
    "check_duality",
    "norm_margins",
    "dstar",
    "fisher",
    "delta",
    "delta_p",
    "extract_leading_coeff",
    "relation_kernel",
    "GUE",
    "DiagonalRademacher",
    "DiagonalFromMoments",
    "EnsembleConfig",
    "SpectralReport",
    "MarginsReport",
    "sample",
    "empirical_trace",
    "opnorm_estimate",
    "spectrum",
    "empirical_margins",
]
