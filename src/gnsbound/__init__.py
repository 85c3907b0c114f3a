"""Certificate-backed upper bounds for fractional interpolation inequalities.

The package computes explicit constants A such that

    || |grad|^s f ||_p  <=  A * || |grad|^{s1} f ||_{p1}^theta
                              * || |grad|^{s2} f ||_{p2}^{1-theta}

for admissible parameter tuples, by minimizing a closed-form objective built
from heat-semigroup smoothing constants over a feasible set of interpolation
parameters, and verifies every implemented inequality numerically on Gaussian
test functions.
"""

__version__ = "0.3.0"

from .errors import (
    AccuracyError,
    DomainError,
    EmptyFeasibleError,
    GnsboundError,
    InadmissibleError,
    InfeasibleError,
    InvalidRegimeError,
    OutOfRangeError,
    SizeError,
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
    heat_kernel_norm,
    young_constant,
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
    OptimizerConfig,
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
    heat_l1_deriv_check,
    young_extremizer_check,
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
    "SizeError",
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
    "heat_kernel_norm",
    "young_constant",
    "FeasibilityReport",
    "SigmaPoint",
    "in_sigma",
    "sample_sigma",
    "sigma_lower_bound",
    "BoundCertificate",
    "OptimizerConfig",
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
    "heat_l1_deriv_check",
    "young_extremizer_check",
]
