"""Feasible set of interpolation parameters for the bound minimization.

A candidate is a :class:`SigmaPoint`: seven floats (beta1, beta2, 1/r1,
1/r2, 1/q1, 1/q2, sigma), the exponents as reciprocals.  The membership
conditions come from splitting the inverse-Laplacian time integral at a pivot
and applying the smoothing estimates on each side:

  * sigma exceeds a lower bound keeping the shifted derivative orders
    integrable against the endpoint exponents;
  * beta1 in (theta, 1) and beta2 in (0, theta);
  * the quantities beta1/r1 and (1-beta2)/r2 lie strictly inside open
    intervals depending on (sigma, beta); see :func:`_r1_bounds` and
    :func:`_r2_bounds`;
  * q1 and q2 are determined by the convexity conditions
    1/p = beta1/r1 + (1-beta1)/q1 = (1-beta2)/r2 + beta2/q2;
  * each of the four (output, input) exponent pairings admits a valid
    smoothing constant at the shifted orders s + 2*sigma - s_j.

Orientation: the split construction assumes the directed chain (positive
chain gap K).  :func:`in_sigma` and :func:`sample_sigma` relabel the problem
internally via ``problem.oriented()`` and interpret the candidate's
coordinates in the oriented labeling.  :func:`sigma_lower_bound` is
label-literal: it evaluates its formula on the problem exactly as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    EmptyFeasibleError,
    InadmissibleError,
    OutOfRangeError,
    StructurallyEmptyError,
)
from .exponents import GnsProblem, theta, validate

# Equality constraints (the q-derivation identities) are checked to this
# absolute tolerance; the membership margin does not rescale it.
EQUALITY_TOL = 1e-12

# Closed constraints (pairing direction at nonnegative orders) tolerate this
# much float fuzz below zero; the smoothing constants snap the same amount.
CLOSED_TOL = 1e-12

# Buffer keeping sampled betas away from their interval endpoints, so the
# objective's 1/(theta - beta2) and 1/(beta1 - theta) factors stay bounded.
BETA_BUFFER = 1e-4

SIGMA_OFFSET_MIN = 1e-6
DEFAULT_SIGMA_WINDOW = 10.0
DEFAULT_MEMBERSHIP_MARGIN = 1e-9

# The equality residuals among the membership margins.
_EQUALITY_MARGINS = frozenset(("q1_consistency", "q2_consistency"))


class SigmaPoint(NamedTuple):
    """A candidate in the oriented labeling, exponents as reciprocals."""

    beta1: float
    beta2: float
    r1_recip: float
    r2_recip: float
    q1_recip: float
    q2_recip: float
    sigma: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Named signed distances to each membership constraint boundary.

    ``ok`` requires every open-constraint margin to be positive, every
    equality residual to stay within ``EQUALITY_TOL`` (reported as margins
    named ``*_consistency``), and every closed-constraint margin to be
    nonnegative up to float fuzz (``CLOSED_TOL``).  The pairing constraints
    at nonnegative shifted orders are closed: equal input and output
    exponents are valid there, and for problems whose three exponents
    coincide the feasible set lies entirely on that boundary.
    """

    ok: bool
    margins: Mapping[str, float]
    closed: frozenset[str] = frozenset()

    @property
    def min_margin(self) -> float:
        return min(self.margins.values())


def _shifted_uppers(problem: GnsProblem, sigma: float) -> tuple[float, float]:
    """(Y1, Y2), Y_j = 1/p_j - (s_j - s - 2*sigma)/d, the interval scale factors."""
    return (
        problem.p1.recip - (problem.s1 - problem.s - 2.0 * sigma) / problem.d,
        problem.p2.recip - (problem.s2 - problem.s - 2.0 * sigma) / problem.d,
    )


def sigma_lower_bound(problem: GnsProblem) -> float:
    """max(0, (s2 - s)/2 - d/(2*p2)), on the problem's labels as given."""
    return max(0.0, 0.5 * (problem.s2 - problem.s) - 0.5 * problem.d * problem.p2.recip)


def _r1_bounds(
    p_recip: float, upper1: float, upper2: float, beta1: float
) -> tuple[float, float]:
    """Open-interval endpoints (lo, hi) for beta1/r1, unclamped."""
    return p_recip - (1.0 - beta1) * upper2, beta1 * upper1


def _r2_bounds(
    p_recip: float, upper1: float, upper2: float, beta2: float
) -> tuple[float, float]:
    """Open-interval endpoints (lo, hi) for (1-beta2)/r2, unclamped."""
    return p_recip - beta2 * upper1, (1.0 - beta2) * upper2


def _derive_q_recips(
    p_recip: float, beta1: float, beta2: float, r1_recip: float, r2_recip: float
) -> tuple[float, float]:
    """Solve the convexity conditions for (1/q1, 1/q2).

    1/q1 = (1/p - beta1/r1) / (1 - beta1) and
    1/q2 = (1/p - (1-beta2)/r2) / beta2; raises if a derived reciprocal
    leaves [0, 1] by more than the equality tolerance, or unless
    beta1 < 1 and beta2 > 0 so that both conditions can be solved.
    """
    if not (beta1 < 1.0 and beta2 > 0.0):
        raise OutOfRangeError(f"need beta1 < 1 and beta2 > 0, got ({beta1!r}, {beta2!r})")
    recip_q1 = (p_recip - beta1 * r1_recip) / (1.0 - beta1)
    recip_q2 = (p_recip - (1.0 - beta2) * r2_recip) / beta2
    for name, value in (("q1", recip_q1), ("q2", recip_q2)):
        if value < -EQUALITY_TOL or value > 1.0 + EQUALITY_TOL:
            raise OutOfRangeError(f"derived 1/{name} = {value!r} outside [0, 1]")
    return min(1.0, max(0.0, recip_q1)), min(1.0, max(0.0, recip_q2))


def _pairing_margin(out_recip: float, in_recip: float, order: float, d: int) -> float:
    """Distance to the validity boundary of the smoothing constant.

    Nonnegative orders need input <= output (margin 1/in - 1/out); negative
    orders need -order < d*(1/in - 1/out) strictly.
    """
    gap = in_recip - out_recip
    if order >= 0.0:
        return gap
    return d * gap + order


def feasibility_margins(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint
) -> tuple[dict[str, float], frozenset[str]]:
    """Membership margins and the names of the closed ones, oriented problem."""
    p_recip = oriented.p.recip
    b1, b2, r1, r2, q1, q2, sigma = point
    x1 = b1 * r1
    x2 = (1.0 - b2) * r2
    y1 = (1.0 - b1) * q1
    y2 = b2 * q2
    upper1, upper2 = _shifted_uppers(oriented, sigma)
    lo1, hi1 = _r1_bounds(p_recip, upper1, upper2, b1)
    lo2, hi2 = _r2_bounds(p_recip, upper1, upper2, b2)
    order1 = oriented.s + 2.0 * sigma - oriented.s1
    order2 = oriented.s + 2.0 * sigma - oriented.s2

    margins = {
        "sigma": sigma - sigma_lower_bound(oriented),
        "beta1_lower": b1 - theta_value,
        "beta1_upper": 1.0 - b1,
        "beta2_lower": b2,
        "beta2_upper": theta_value - b2,
        "r1_lower": x1 - lo1,
        "r1_upper": hi1 - x1,
        "r2_lower": x2 - lo2,
        "r2_upper": hi2 - x2,
        "q1_consistency": EQUALITY_TOL - abs(p_recip - x1 - y1),
        "q2_consistency": EQUALITY_TOL - abs(p_recip - x2 - y2),
        "q1_lower": y1 - (p_recip - b1 * upper1),
        "q1_upper": (1.0 - b1) * upper2 - y1,
        "q2_lower": y2 - (p_recip - (1.0 - b2) * upper2),
        "q2_upper": b2 * upper1 - y2,
        "pair_q2_p1": _pairing_margin(q2, oriented.p1.recip, order1, oriented.d),
        "pair_r2_p2": _pairing_margin(r2, oriented.p2.recip, order2, oriented.d),
        "pair_r1_p1": _pairing_margin(r1, oriented.p1.recip, order1, oriented.d),
        "pair_q1_p2": _pairing_margin(q1, oriented.p2.recip, order2, oriented.d),
    }
    closed = set()
    if order1 >= 0.0:
        closed.update(("pair_q2_p1", "pair_r1_p1"))
    if order2 >= 0.0:
        closed.update(("pair_r2_p2", "pair_q1_p2"))
    return margins, frozenset(closed)


def margins_ok(margins: Mapping[str, float], closed: frozenset[str], margin: float) -> bool:
    """The membership rule on margins from :func:`feasibility_margins`.

    Closed margins must be nonnegative up to ``CLOSED_TOL``, equality
    residuals positive, and every other margin above ``margin``.  Each test
    is written so that a NaN margin fails it.
    """
    for name, value in margins.items():
        if name in closed:
            if not value >= -CLOSED_TOL:
                return False
        elif name in _EQUALITY_MARGINS:
            if not value > 0.0:
                return False
        elif not value > margin:
            return False
    return True


def in_sigma(problem: GnsProblem, point: SigmaPoint) -> FeasibilityReport:
    """Membership test with signed margins; never raises on infeasibility.

    The problem is relabeled to the directed chain internally; the point's
    coordinates are interpreted in the oriented labeling.  Open margins must
    be positive.
    """
    oriented, _ = problem.oriented()
    report = validate(oriented)
    if not report.admissible:
        return FeasibilityReport(
            ok=False,
            margins={
                "admissible_lower": report.lower_margin,
                "admissible_upper": report.upper_margin,
            },
        )
    theta_value = theta(oriented).value
    margins, closed = feasibility_margins(oriented, theta_value, point)
    return FeasibilityReport(ok=margins_ok(margins, closed, 0.0), margins=margins, closed=closed)


def candidate_box(
    oriented: GnsProblem, sigma: float, beta1: float, beta2: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Draw boxes for beta1/r1 and (1-beta2)/r2 on an oriented problem.

    Intersects the open membership intervals with the closed ranges keeping
    the reciprocals of r1, r2 and the derived q1, q2 inside [0, 1], and with
    the pairing caps that keep all four smoothing constants in their valid
    regime (at negative shifted orders the cap coincides with the interval's
    own upper bound).  Either box may be empty (upper < lower) or degenerate
    to a point; degeneracy is forced at p = inf, where both quantities must
    vanish, and for problems whose exponents all coincide, where the box pins
    the ratio quantities to the pairing boundary.
    """
    p_recip = oriented.p.recip
    d = oriented.d
    order1 = oriented.s + 2.0 * sigma - oriented.s1
    order2 = oriented.s + 2.0 * sigma - oriented.s2
    cap1 = oriented.p1.recip + min(order1, 0.0) / d
    cap2 = oriented.p2.recip + min(order2, 0.0) / d
    upper1, upper2 = _shifted_uppers(oriented, sigma)
    lo1, hi1 = _r1_bounds(p_recip, upper1, upper2, beta1)
    box1 = (
        max(lo1, 0.0, p_recip - (1.0 - beta1) * cap2),
        min(hi1, beta1, p_recip, beta1 * cap1),
    )
    lo2, hi2 = _r2_bounds(p_recip, upper1, upper2, beta2)
    box2 = (
        max(lo2, 0.0, p_recip - beta2 * cap1),
        min(hi2, 1.0 - beta2, p_recip, (1.0 - beta2) * cap2),
    )
    return box1, box2


def decode_candidate(
    oriented: GnsProblem, beta1: float, beta2: float, sigma: float, u1: float, u2: float
) -> SigmaPoint | None:
    """The candidate at fractions (u1, u2) of the two draw boxes, or None.

    None when either box is empty or the convexity conditions leave no valid
    (q1, q2); membership is not checked here.
    """
    (lo1, hi1), (lo2, hi2) = candidate_box(oriented, sigma, beta1, beta2)
    if hi1 < lo1 or hi2 < lo2:
        return None
    x1 = lo1 if hi1 == lo1 else lo1 + u1 * (hi1 - lo1)
    x2 = lo2 if hi2 == lo2 else lo2 + u2 * (hi2 - lo2)
    r1 = min(1.0, x1 / beta1)
    r2 = min(1.0, x2 / (1.0 - beta2))
    try:
        q1, q2 = _derive_q_recips(oriented.p.recip, beta1, beta2, r1, r2)
    except OutOfRangeError:
        return None
    return SigmaPoint(beta1, beta2, r1, r2, q1, q2, sigma)


def sample_sigma(
    problem: GnsProblem, n: int, seed: int, *, sigma_window: float = DEFAULT_SIGMA_WINDOW
) -> list[SigmaPoint]:
    """Up to n feasible candidates, deterministically from the seed.

    Betas are drawn uniformly inside their buffered ranges, sigma is drawn
    log-uniformly in offset from its lower bound within ``sigma_window``, and
    the two ratio quantities uniformly inside their draw boxes; candidates
    failing membership at ``DEFAULT_MEMBERSHIP_MARGIN`` are rejected.  Raises
    if no feasible point is found within 100*n attempts.
    """
    report = validate(problem)
    if not report.admissible:
        raise InadmissibleError(
            f"cannot sample an inadmissible problem: margins "
            f"({report.lower_margin!r}, {report.upper_margin!r})"
        )
    oriented, _ = problem.oriented()
    theta_value = theta(oriented).value
    # The smoothing pairings never lower integrability: each output
    # reciprocal is capped by its endpoint reciprocal (negative shifted
    # orders only tighten the caps), so each convexity condition
    # 1/p = beta/r + (1-beta)/q is bounded by the corresponding capped
    # combination.  With beta1 in (theta, 1) and beta2 in (0, theta), the
    # largest reachable reciprocal on either side is
    # max(theta/p1 + (1-theta)/p2, min(1/p1, 1/p2)); a target strictly above
    # it makes the feasible set empty for every sigma.
    reachable = max(
        theta_value * oriented.p1.recip + (1.0 - theta_value) * oriented.p2.recip,
        min(oriented.p1.recip, oriented.p2.recip),
    )
    if oriented.p.recip > reachable + 1e-15:
        raise StructurallyEmptyError(
            "structurally empty: the split construction cannot reach the "
            f"target reciprocal 1/p = {oriented.p.recip!r} (largest reachable "
            f"value is {reachable!r})"
        )
    lb = sigma_lower_bound(oriented)
    rng = np.random.default_rng(seed)
    points: list[SigmaPoint] = []
    beta1_lo, beta1_hi = theta_value + BETA_BUFFER, 1.0 - BETA_BUFFER
    beta2_lo, beta2_hi = BETA_BUFFER, theta_value - BETA_BUFFER
    log_off_lo, log_off_hi = math.log(SIGMA_OFFSET_MIN), math.log(sigma_window)

    for _ in range(100 * n):
        if len(points) == n:
            break
        draws = rng.uniform(size=5).tolist()
        if beta1_hi <= beta1_lo or beta2_hi <= beta2_lo:
            continue
        b1 = beta1_lo + draws[0] * (beta1_hi - beta1_lo)
        b2 = beta2_lo + draws[1] * (beta2_hi - beta2_lo)
        sigma = lb + math.exp(log_off_lo + draws[2] * (log_off_hi - log_off_lo))
        # in_sigma's rule; the problem was checked admissible above
        point = decode_candidate(oriented, b1, b2, sigma, draws[3], draws[4])
        if point is not None and margins_ok(
            *feasibility_margins(oriented, theta_value, point), DEFAULT_MEMBERSHIP_MARGIN
        ):
            points.append(point)

    if not points:
        raise EmptyFeasibleError(
            f"no feasible point found in {100 * n} attempts (seed {seed})"
        )
    return points
