"""Total-variation bounds for distributions that are log-concave relative to a
reference measure, with hypothesis certificates and independent exact oracles.
"""

from .bounds import (
    Anchor,
    BoundReport,
    certify,
)
from .distributions import (
    DiscreteDist,
    Interval,
    LogConcavityCertificate,
    convolve,
    family_bernoulli,
    family_binomial,
    family_geometric,
    family_poisson,
    is_log_concave,
    is_log_concave_relative,
    is_ulc,
    is_ulc_infinity,
    make_dist,
    point_mass,
    tv_distance,
)
from .errors import (
    AbsoluteContinuityError,
    BoundNotApplicable,
    HypothesisError,
    InvalidAnchorError,
    InvalidDistributionError,
    MatroidAxiomError,
    NotApplicableError,
)

__version__ = "0.1.0"

__all__ = [
    "Anchor",
    "BoundReport",
    "DiscreteDist",
    "Interval",
    "LogConcavityCertificate",
    "certify",
    "convolve",
    "family_bernoulli",
    "family_binomial",
    "family_geometric",
    "family_poisson",
    "is_log_concave",
    "is_log_concave_relative",
    "is_ulc",
    "is_ulc_infinity",
    "make_dist",
    "point_mass",
    "tv_distance",
    "AbsoluteContinuityError",
    "BoundNotApplicable",
    "HypothesisError",
    "InvalidAnchorError",
    "InvalidDistributionError",
    "MatroidAxiomError",
    "NotApplicableError",
    "__version__",
]
