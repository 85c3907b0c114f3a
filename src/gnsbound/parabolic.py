"""Closed-form smoothing constants for the heat semigroup.

The central object is the time-free constant C = a_par(p, r, s, d) in

    || |grad|^s e^{t*Lap} f ||_p  <=  C * t**(-s/2 - D) * ||f||_r,

where D = (d/2)(1/r - 1/p) and 1 <= r <= p <= inf.  Four regimes:

  (a) s >= 0 with s/2 integral and r < p: the sharp convolution constant
      times the heat-kernel norm factor, a Gamma ratio for the derivative
      count, and the power-product minimum splitting the semigroup between
      smoothing and integrability gain.
  (b) s >= 0 with s/2 integral and r = p: the Gamma ratio alone (the
      convolution constant degenerates to 1); this is regime (a) at D = 0.
  (c) s > 0 with fractional s/2: reduce to the even order 2*floor(s/2) + 2
      and pay a Beta-integral Gamma ratio Gamma(s/2 + D)/Gamma(floor(s/2)
      + 1 + D) for interpolating the fractional part.
  (d) s < 0 with -s < d*(1/r - 1/p): negative orders through the
      Gamma-weighted time integral of the semigroup, giving the ratio
      Gamma(D + s/2)/Gamma(D).

The boundary -s = d*(1/r - 1/p) is the Sobolev endpoint: the constant in
regime (d) diverges there and the parameters are rejected.

Everything is evaluated in log space.  With u = 1/q in [0, 1], the recurring
factor q**(d/(2q)) has logarithm -(d/2) * u * log(u), which extends
continuously by 0 to both endpoints, matching the conventions inf**0 = 1 and
inf**(1/inf) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, InvalidRegimeError, TripleMismatchError
from .exponents import LebesgueExponent, young_partner_recip
from .specialfn import min_product_power

YOUNG_RELATION_TOL = 1e-12

LOG_4PI = math.log(4.0 * math.pi)


def _neg_xlogx(u: float) -> float:
    """-u*log(u) on [0, 1], continuously 0 at both endpoints."""
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return -u * math.log(u)


def _young_constant(p_recip: float, q_recip: float, r_recip: float, d: int) -> float:
    """:func:`young_constant` on plain reciprocals."""
    if abs(q_recip + r_recip - 1.0 - p_recip) > YOUNG_RELATION_TOL:
        raise TripleMismatchError(
            f"1/q + 1/r = {q_recip + r_recip!r} but 1 + 1/p = {1.0 + p_recip!r}"
        )
    for u in (p_recip, q_recip, r_recip):
        if u == 0.0 or u == 1.0:
            return 1.0
    log_num = _neg_xlogx(1.0 - p_recip) + _neg_xlogx(q_recip) + _neg_xlogx(r_recip)
    log_den = _neg_xlogx(p_recip) + _neg_xlogx(1.0 - q_recip) + _neg_xlogx(1.0 - r_recip)
    return math.exp(0.5 * d * (log_num - log_den))


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


BOUNDARY_SNAP = 1e-12


def _log_kernel_factor(p_recip: float, r_recip: float, gap: float, d: int) -> float:
    """log of A_Y(p,q,r,d) * (4pi)^(-D) * q^(-d/(2q)), q the Young partner."""
    q_recip = young_partner_recip(p_recip, r_recip)
    log_val = math.log(_young_constant(p_recip, q_recip, r_recip, d))
    log_val -= gap * LOG_4PI
    # q^(-d/2q): log is (d/2) u log u = -(d/2) * neg_xlogx(u)
    log_val -= 0.5 * d * _neg_xlogx(q_recip)
    return log_val


def _even_order_log(p_recip: float, r_recip: float, s: float, gap: float, d: int) -> float:
    """log a_par for s in 2*N0 (regimes (a) and (b), which coincide at D = 0)."""
    log_val = _log_kernel_factor(p_recip, r_recip, gap, d)
    log_val += math.lgamma(0.5 * (d + s)) - math.lgamma(0.5 * d) + 0.5 * s * math.log(2.0)
    log_val += math.log(min_product_power(0.5 * s, gap))
    return log_val


def _log_a_par(p_recip: float, r_recip: float, s: float, d: int) -> float:
    """log a_par(p, r, s, d) on plain reciprocals: regime checks and all four regimes.

    An input reciprocal within ``BOUNDARY_SNAP`` below the output reciprocal
    is evaluated on the diagonal r = p; further below, and at or past the
    Sobolev endpoint of a negative order, :class:`InvalidRegimeError` is
    raised.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d!r}")
    if r_recip < p_recip:
        if p_recip - r_recip > BOUNDARY_SNAP:
            raise InvalidRegimeError(
                f"input exponent r={LebesgueExponent(r_recip)} must not exceed "
                f"output p={LebesgueExponent(p_recip)}"
            )
        r_recip = p_recip
    if s < 0.0 and -s >= d * (r_recip - p_recip):
        raise InvalidRegimeError(
            "Sobolev endpoint: negative order requires "
            f"-s < d*(1/r - 1/p) = {d * (r_recip - p_recip)!r}, got s = {s!r}"
        )
    gap = 0.5 * d * (r_recip - p_recip)
    if s < 0.0:
        return (
            _log_kernel_factor(p_recip, r_recip, gap, d)
            + math.lgamma(gap + 0.5 * s)
            - math.lgamma(gap)
        )
    half = 0.5 * s
    if half == math.floor(half):
        return _even_order_log(p_recip, r_recip, s, gap, d)
    floor_half = math.floor(half)
    return (
        _even_order_log(p_recip, r_recip, 2.0 * floor_half + 2.0, gap, d)
        + math.lgamma(half + gap)
        - math.lgamma(floor_half + 1.0 + gap)
    )


@dataclass(frozen=True)
class ParabolicParams:
    """Validated parameter tuple (output p, input r, order s, dimension d).

    The regime boundary r = p is valid (the semigroup contracts), so an input
    reciprocal within ``BOUNDARY_SNAP`` below the output reciprocal is snapped
    onto the diagonal rather than rejected; candidates produced by the
    feasibility machinery can sit exactly on that boundary up to float fuzz.
    Construction evaluates :func:`_log_a_par`, which performs the checks, and
    keeps its value as ``log_value``.
    """

    p: LebesgueExponent
    r: LebesgueExponent
    s: float
    d: int
    log_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        log_value = _log_a_par(self.p.recip, self.r.recip, self.s, self.d)
        object.__setattr__(self, "log_value", log_value)
        if self.r.recip < self.p.recip:
            # accepted by the kernel, so within BOUNDARY_SNAP of the diagonal
            object.__setattr__(self, "r", self.p)

    @property
    def gap(self) -> float:
        """D = (d/2)(1/r - 1/p), the integrability-gain exponent."""
        return 0.5 * self.d * (self.r.recip - self.p.recip)


def a_par(params: ParabolicParams) -> float:
    """Time-free smoothing constant across the four regimes.

    At s = 0 it reduces to the heat-kernel norm constant of the convolution
    bound; every bound in the package is built from this form.
    """
    return math.exp(params.log_value)


def bound_at_time(params: ParabolicParams, t: float) -> float:
    """Full smoothing bound a_par * t**(-s/2 - D) at a given positive time."""
    if not (t > 0.0):
        raise DomainError(f"time must be positive, got {t!r}")
    return math.exp(params.log_value - (0.5 * params.s + params.gap) * math.log(t))
