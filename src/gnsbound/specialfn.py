"""Special functions and combinatorial identities behind the constants.

Everything gamma-shaped is evaluated in log space and exponentiated once at
the end: ratios like Gamma((d+s)/2) / Gamma(d/2) overflow long before their
quotient does.  The conventions 0**0 = 1 and M(0, beta) = 1 for the
power-product minimum match the endpoint attainment of the underlying
one-dimensional minimization.

The partition-indexed sums (complete Bell polynomials and the derivative
bound they assemble into) are oracle-grade code paths: they enumerate the
multi-index set R(ell) = { r in N0^ell : sum_j j*r_j = ell } directly, with a
factorial-growth guard at ell = 20.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import DomainError, SizeError

MAX_BELL_ORDER = 20


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


def beta_integral(alpha: float, beta: float) -> float:
    """Closed form of the integral of x**(-alpha) * (1+x)**(-beta) over (0, inf).

    Requires alpha < 1 (integrability at 0) and beta > 1 - alpha
    (integrability at infinity); the value is
    Gamma(alpha+beta-1) * Gamma(1-alpha) / Gamma(beta).
    """
    if not (alpha < 1.0):
        raise DomainError(f"need alpha < 1, got {alpha!r}")
    if not (beta > 1.0 - alpha):
        raise DomainError(f"need beta > 1 - alpha, got ({alpha!r}, {beta!r})")
    return math.exp(
        math.lgamma(alpha + beta - 1.0) + math.lgamma(1.0 - alpha) - math.lgamma(beta)
    )


def partition_multiplicity_vectors(ell: int) -> Iterator[tuple[int, ...]]:
    """Yield all r in N0^ell with sum_j j*r_j = ell (j running 1..ell).

    Generated recursively by the largest used part; ell = 0 yields the empty
    tuple once.
    """
    if ell < 0:
        raise DomainError(f"ell must be nonnegative, got {ell!r}")
    if ell == 0:
        yield ()
        return

    counts = [0] * ell

    def rec(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(counts)
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            yield from rec(remaining - part, part)
            counts[part - 1] -= 1

    yield from rec(ell, ell)


def bell_complete(x: Sequence[float]) -> float:
    """Complete exponential Bell polynomial B_ell(x_1, ..., x_ell), ell = len(x).

    Computed by exact summation over the partition index set: each term's
    combinatorial coefficient ell! / prod(r_j! * (j!)**r_j) is an exact
    integer, multiplied by the float monomial prod(x_j**r_j).
    """
    ell = len(x)
    if ell > MAX_BELL_ORDER:
        raise SizeError(f"Bell order {ell} exceeds guard {MAX_BELL_ORDER}")
    total = 0.0
    ell_fact = math.factorial(ell)
    for rvec in partition_multiplicity_vectors(ell):
        coeff = ell_fact
        monomial = 1.0
        for j, rj in enumerate(rvec, start=1):
            if rj == 0:
                continue
            coeff //= math.factorial(rj) * math.factorial(j) ** rj
            monomial *= x[j - 1] ** rj
        total += coeff * monomial
    return total


def bell_via_generating_function(ell: int, sigma: float) -> float:
    """ell-th derivative at 0 of exp(lam*sigma/(1-lam)).

    Equals B_ell(sigma*1!, ..., sigma*ell!).  Computed by the power-series
    recurrence for E = exp(g) with g(lam) = sigma*lam/(1-lam): from E' = g'E,
    (n+1) e_{n+1} = sigma * sum_{m<=n} (m+1) e_{n-m}, and the derivative is
    ell! * e_ell.  All terms are positive, so there is no cancellation.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if ell < 0:
        raise DomainError(f"ell must be nonnegative, got {ell!r}")
    if ell > MAX_BELL_ORDER:
        raise SizeError(f"order {ell} exceeds guard {MAX_BELL_ORDER}")
    coeffs = [1.0]
    for n in range(ell):
        acc = 0.0
        for m in range(n + 1):
            acc += (m + 1) * coeffs[n - m]
        coeffs.append(sigma * acc / (n + 1))
    return math.factorial(ell) * coeffs[ell]


def heat_deriv_l1_bound(n: int, d: int) -> float:
    """Time-free factor Gamma(d/2 + n) * 2**n / Gamma(d/2).

    This is the constant in the L1 bound for the n-th Laplacian power of the
    heat kernel; the full bound carries an extra t**(-n).
    """
    if n < 0 or d < 1:
        raise DomainError(f"need n >= 0 and d >= 1, got ({n!r}, {d!r})")
    half_d = 0.5 * d
    return math.exp(math.lgamma(half_d + n) - math.lgamma(half_d) + n * math.log(2.0))
