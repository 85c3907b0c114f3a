"""The two special-function factors of the smoothing constant.

:func:`min_product_power` splits the semigroup between smoothing and
integrability gain; :func:`log_heat_deriv_l1_bound` is the Gamma ratio of the
L1 bound on the Laplacian powers of the heat kernel.  Everything
gamma-shaped is evaluated in log space and exponentiated once at the end:
ratios like Gamma((d+s)/2) / Gamma(d/2) overflow long before their quotient
does.  The conventions 0**0 = 1 and M(0, beta) = 1 for the power-product
minimum match the endpoint attainment of the underlying one-dimensional
minimization.
"""

from __future__ import annotations

import math

from .errors import DomainError


def min_product_power(alpha: float, beta: float) -> float:
    """Minimum over lam in [0, 1] of lam**(-alpha) * (1-lam)**(-beta).

    Equals (alpha+beta)**(alpha+beta) / (alpha**alpha * beta**beta), attained
    at lam = alpha/(alpha+beta); by convention the value is 1 when either
    argument vanishes (minimum at an endpoint).
    """
    if alpha < 0.0 or beta < 0.0:
        raise DomainError(f"arguments must be nonnegative, got ({alpha!r}, {beta!r})")
    if alpha == 0.0 or beta == 0.0:
        return 1.0
    total = alpha + beta
    return math.exp(
        total * math.log(total) - alpha * math.log(alpha) - beta * math.log(beta)
    )


def log_heat_deriv_l1_bound(n: float, d: int) -> float:
    """log of Gamma(d/2 + n) * 2**n / Gamma(d/2), unchecked: a_par's factor at s = 2n.

    This is the time-free constant in the L1 bound for the n-th Laplacian
    power of the heat kernel; the full bound carries an extra t**(-n).
    """
    half_d = 0.5 * d
    return math.lgamma(half_d + n) - math.lgamma(half_d) + n * math.log(2.0)
