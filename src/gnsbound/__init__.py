"""Certificate-backed upper bounds for fractional interpolation inequalities.

The package computes explicit constants A such that

    || |grad|^s f ||_p  <=  A * || |grad|^{s1} f ||_{p1}^theta
                              * || |grad|^{s2} f ||_{p2}^{1-theta}

for admissible parameter tuples, by minimizing a closed-form objective built
from heat-semigroup smoothing constants over a feasible set of interpolation
parameters, and verifies every implemented inequality numerically on Gaussian
test functions.
"""

__version__ = "0.4.0"

from .errors import (
    AccuracyError,
    DomainError,
    EmptyFeasibleError,
    GnsboundError,
    InadmissibleError,
    InfeasibleError,
    InvalidRegimeError,
    OutOfRangeError,
    StructurallyEmptyError,
    TripleMismatchError,
)
from .exponents import (
    GnsProblem,
    LebesgueExponent,
    Theta,
    ValidationReport,
    theta,
    validate,
)
from .parabolic import (
    ParabolicParams,
    a_par,
    bound_at_time,
)
from .feasible import (
    FeasibilityReport,
    SigmaPoint,
    in_sigma,
    sample_sigma,
    sigma_lower_bound,
)
from .optimizer import (
    BoundCertificate,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,
    equalizing_t0,
    minimize,
    objective,
    two_term_bound,
)
from .oracle import (
    RadialTestFunction,
    SweepReport,
    check_gns,
    check_parabolic,
    default_parabolic_grid,
    fractional_heat_norm,
    frequency_space_l2_norm,
    gaussian_lp_norm,
    gns_ratio,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "DomainError",
    "EmptyFeasibleError",
    "GnsboundError",
    "InadmissibleError",
    "InfeasibleError",
    "InvalidRegimeError",
    "OutOfRangeError",
    "StructurallyEmptyError",
    "TripleMismatchError",
    "GnsProblem",
    "LebesgueExponent",
    "Theta",
    "ValidationReport",
    "theta",
    "validate",
    "ParabolicParams",
    "a_par",
    "bound_at_time",
    "FeasibilityReport",
    "SigmaPoint",
    "in_sigma",
    "sample_sigma",
    "sigma_lower_bound",
    "BoundCertificate",
    "certificate_from_dict",
    "certificate_json",
    "certificate_to_dict",
    "equalizing_t0",
    "minimize",
    "objective",
    "two_term_bound",
    "RadialTestFunction",
    "SweepReport",
    "check_gns",
    "check_parabolic",
    "default_parabolic_grid",
    "fractional_heat_norm",
    "frequency_space_l2_norm",
    "gaussian_lp_norm",
    "gns_ratio",
]
