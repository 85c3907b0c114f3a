"""Reference checks of the appendix identities, called only by the tests.

The product is the certificate and the Gaussian oracle that checks it.  The
identities it rests on are checked here, against the product's own kernels:

* the partition-indexed sums behind ||Lap^n e^{t*Lap}||_1: complete Bell
  polynomials, summed directly over the multi-index set
  R(ell) = { r in N0^ell : sum_j j*r_j = ell } with a factorial-growth guard
  at ell = 20, and the derivative bound they assemble into;
* the Beta integral of the fractional-order reduction;
* the sharp Young constant, against Gaussian pairs;
* the Lq norm of the heat kernel;
* the L1 norm of the n-th Laplacian power of the heat kernel, by quadrature.

Acceptance criteria 2-4 and the unit tests of these identities import them
from here.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from gnsbound.errors import DomainError, GnsboundError
from gnsbound.exponents import LebesgueExponent
from gnsbound.oracle import _FREQ_CUTOFF, gaussian_lp_norm, surface_area
from gnsbound.parabolic import LOG_4PI, _young_constant
from gnsbound.specialfn import log_heat_deriv_l1_bound

MAX_BELL_ORDER = 20


class SizeError(GnsboundError):
    """A combinatorial size guard was exceeded."""


# ---------------------------------------------------------------------------
# Beta integral and partition sums
# ---------------------------------------------------------------------------


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
    return math.exp(log_heat_deriv_l1_bound(n, d))


# ---------------------------------------------------------------------------
# Heat-kernel norms and the Young constant
# ---------------------------------------------------------------------------


def young_constant(
    p: LebesgueExponent, q: LebesgueExponent, r: LebesgueExponent, d: int
) -> float:
    """Sharp constant in ||f*g||_p <= A * ||f||_q * ||g||_r.

    For 1 < p, q, r < inf this is
    [ (p')^(1/p') q^(1/q) r^(1/r) / ( p^(1/p) (q')^(1/q') (r')^(1/r') ) ]^(d/2),
    attained by Gaussian pairs; at any endpoint exponent the constant is 1.
    """
    return _young_constant(p.recip, q.recip, r.recip, d)


def heat_kernel_norm(t: float, q: LebesgueExponent, d: int) -> float:
    """Lq norm of the heat kernel at time t: (4*pi*t)**(-d/(2q')) * q**(-d/(2q))."""
    if not (t > 0.0):
        raise DomainError(f"time must be positive, got {t!r}")
    u = q.recip
    log_norm = -0.5 * d * (1.0 - u) * (LOG_4PI + math.log(t)) + 0.5 * d * u * (
        math.log(u) if u > 0.0 else 0.0
    )
    # q**(-d/2q) contributes +(d/2) u log u; u = 0 contributes 0 by convention.
    return math.exp(log_norm)


# ---------------------------------------------------------------------------
# Derivative-of-kernel and convolution-constant checks
# ---------------------------------------------------------------------------


def _laplacian_power_coeffs(n: int, d: int, alpha: float) -> np.ndarray:
    """Coefficients of q(u) with (-Lap)^n exp(-alpha*u) = q(u)*exp(-alpha*u), u=|x|^2.

    For radial phi(u), Lap phi = 4u*phi'' + 2d*phi'; applying it to
    q(u)*exp(-alpha*u) gives the recurrence implemented here with plain
    polynomial arithmetic on ascending coefficient arrays.
    """
    q = np.array([1.0])
    for _ in range(n):
        dq = np.polynomial.polynomial.polyder(q)
        d2q = np.polynomial.polynomial.polyder(q, 2)
        # 4u*q'' - 8*alpha*u*q' + 4*alpha^2*u*q  (terms multiplied by u)
        shifted = np.zeros(len(q) + 1)
        shifted[1 : 1 + len(d2q)] += 4.0 * d2q
        shifted[1 : 1 + len(dq)] += -8.0 * alpha * dq
        shifted[1 : 1 + len(q)] += 4.0 * alpha * alpha * q
        rest = np.zeros(len(q) + 1)
        rest[: len(dq)] += 2.0 * d * dq
        rest[: len(q)] += -2.0 * d * alpha * q
        q = -(shifted + rest)
    return q


def heat_l1_deriv_check(n: int, d: int, t: float) -> tuple[float, float]:
    """Quadrature of the L1 norm of the n-th Laplacian power of the kernel.

    Returns (measured, bound); the kernel derivative is a closed-form radial
    polynomial times a Gaussian, integrated by adaptive quadrature.
    """
    if n < 0 or n > 4 or d not in (1, 2, 3):
        raise DomainError(f"supported range is n <= 4, d <= 3, got ({n!r}, {d!r})")
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t!r}")

    alpha = 0.25 / t
    coeffs = _laplacian_power_coeffs(n, d, alpha)
    prefactor = (4.0 * math.pi * t) ** (-0.5 * d)

    def integrand(r: float) -> float:
        u = r * r
        poly = 0.0
        for c in reversed(coeffs):
            poly = poly * u + c
        return abs(poly) * math.exp(-alpha * u) * r ** (d - 1)

    radius = math.sqrt(_FREQ_CUTOFF / alpha)
    integral, _ = quad(integrand, 0.0, radius, limit=400, epsabs=1e-13, epsrel=1e-13)
    measured = surface_area(d) * prefactor * integral
    bound = heat_deriv_l1_bound(n, d) * t ** (-n)
    return measured, bound


def convolution_ratio(
    width_f: float,
    width_g: float,
    p: LebesgueExponent,
    q: LebesgueExponent,
    r: LebesgueExponent,
    d: int,
) -> float:
    """||f*g||_p / (||f||_q * ||g||_r) for Gaussians, all in closed form.

    The convolution of exp(-a|x|^2) and exp(-b|x|^2) is
    (pi/(a+b))^(d/2) * exp(-(ab/(a+b))|x|^2).
    """
    a, b = width_f, width_g
    conv_width = a * b / (a + b)
    conv_amplitude = (math.pi / (a + b)) ** (0.5 * d)
    return (
        conv_amplitude
        * gaussian_lp_norm(conv_width, d, p)
        / (gaussian_lp_norm(a, d, q) * gaussian_lp_norm(b, d, r))
    )


# Log-width grid scanned before the bounded refinement.
_YOUNG_GRID = 601


def young_extremizer_check(
    p: LebesgueExponent,
    q: LebesgueExponent,
    r: LebesgueExponent,
    d: int,
) -> tuple[float, float]:
    """Best Gaussian-pair convolution ratio versus the sharp constant.

    The ratio is invariant under joint width rescaling, so one width is fixed
    at 1 and the other scanned over a log grid, refined by bounded scalar
    minimization of the negated ratio.  Returns (best_ratio, constant).
    """
    constant = young_constant(p, q, r, d)
    log_m = np.linspace(-3.0 * math.log(10.0), 3.0 * math.log(10.0), _YOUNG_GRID)
    ratios = [convolution_ratio(1.0, math.exp(v), p, q, r, d) for v in log_m]
    idx = int(np.argmax(ratios))
    lo = log_m[max(idx - 1, 0)]
    hi = log_m[min(idx + 1, _YOUNG_GRID - 1)]
    refined = minimize_scalar(
        lambda v: -convolution_ratio(1.0, math.exp(v), p, q, r, d),
        bounds=(lo, hi),
        method="bounded",
    )
    return max(-float(refined.fun), ratios[idx]), constant
