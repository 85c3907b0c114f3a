"""Extended-real Lebesgue exponents and interpolation-problem admissibility.

Exponents in [1, inf] are stored through their reciprocals in [0, 1], so that
infinity is the ordinary value 0 and every formula in the package (all of
which are affine in reciprocals) avoids divisions and special cases.  The
conventions inf**0 = 1 and inf**(1/inf) = 1 are adopted globally.

A problem is the tuple (d, s, s1, s2, p, p1, p2).  Writing
X = 1/p - s/d and Xj = 1/pj - sj/d, the problem is admissible when X lies
strictly between X1 and X2, in which case the interpolation weight theta
in (0, 1) solves X = theta*X1 + (1-theta)*X2.  Admissibility is checked by
:func:`validate`, not on construction of :class:`GnsProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleError, OutOfRangeError

# Tolerance for float comparisons of reciprocal-affine identities.
RECIP_TOL = 1e-12


@dataclass(frozen=True)
class LebesgueExponent:
    """An exponent in [1, inf], stored as its reciprocal in [0, 1]."""

    recip: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.recip <= 1.0):
            raise OutOfRangeError(
                f"reciprocal {self.recip!r} outside [0, 1]; exponent must lie in [1, inf]"
            )

    @classmethod
    def from_value(cls, value: float) -> "LebesgueExponent":
        """Build from the exponent itself; ``math.inf`` maps to recip 0."""
        if value == math.inf:
            return cls(0.0)
        if not (value >= 1.0):
            raise OutOfRangeError(f"exponent {value!r} outside [1, inf]")
        return cls(1.0 / value)

    @classmethod
    def parse(cls, text: str) -> "LebesgueExponent":
        """Parse 'inf', a fraction 'a/b', or a decimal literal.

        Fractions are inverted exactly before conversion to float, so that
        e.g. '4/3' yields recip exactly 0.75.
        """
        text = text.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return cls(0.0)
        if "/" in text:
            try:
                frac = Fraction(text)
            except ZeroDivisionError:
                raise OutOfRangeError(f"exponent {text!r} has a zero denominator") from None
            if frac < 1:
                raise OutOfRangeError(f"exponent {text!r} outside [1, inf]")
            return cls(float(Fraction(frac.denominator, frac.numerator)))
        return cls.from_value(float(text))

    @property
    def value(self) -> float:
        return math.inf if self.recip == 0.0 else 1.0 / self.recip

    @property
    def is_infinite(self) -> bool:
        return self.recip == 0.0

    def conjugate(self) -> "LebesgueExponent":
        """Dual exponent: 1/u + 1/u' = 1.  Involutive exactly in floats."""
        return LebesgueExponent(1.0 - self.recip)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"{self.value:g}"


def young_partner_recip(p_recip: float, r_recip: float) -> float:
    """1/q for the exponent q with 1/q + 1/r = 1 + 1/p, on plain reciprocals."""
    recip_q = 1.0 + p_recip - r_recip
    if recip_q < -RECIP_TOL or recip_q > 1.0 + RECIP_TOL:
        raise OutOfRangeError(
            f"convolution partner of 1/p={p_recip!r}, 1/r={r_recip!r} "
            f"would need 1/q = {recip_q!r}"
        )
    return min(1.0, max(0.0, recip_q))


@dataclass(frozen=True)
class Theta:
    """Interpolation weight in (0, 1) solving the convex-combination identity."""

    value: float


@dataclass(frozen=True)
class GnsProblem:
    """Parameter tuple (d, s, s1, s2, p, p1, p2) of an interpolation problem."""

    d: int
    s: float
    s1: float
    s2: float
    p: LebesgueExponent
    p1: LebesgueExponent
    p2: LebesgueExponent

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise OutOfRangeError(f"dimension d={self.d!r} must be a positive integer")

    def position(self) -> float:
        """X = 1/p - s/d for the target norm."""
        return self.p.recip - self.s / self.d

    def position1(self) -> float:
        return self.p1.recip - self.s1 / self.d

    def position2(self) -> float:
        return self.p2.recip - self.s2 / self.d

    def chain_gap(self) -> float:
        """K = 1/p1 - 1/p2 - (s1 - s2)/d; positive iff the chain is directed."""
        return self.position1() - self.position2()

    def swapped(self) -> "GnsProblem":
        """The same problem with the two interpolation endpoints relabeled."""
        return GnsProblem(self.d, self.s, self.s2, self.s1, self.p, self.p2, self.p1)

    def oriented(self) -> tuple["GnsProblem", bool]:
        """Relabel so the chain gap K is positive.

        The feasibility and minimization machinery assumes the directed chain
        X2 < X < X1.  Relabeling the endpoints maps theta to 1 - theta and
        leaves the inequality (and its best constant) unchanged.  Returns the
        oriented problem and whether a swap was applied.
        """
        if self.chain_gap() >= 0.0:
            return self, False
        return self.swapped(), True


@dataclass(frozen=True)
class ValidationReport:
    """Signed distances of X to the two chain endpoints.

    Margins are measured in the orientation that makes them positive for
    admissible problems: ``lower_margin`` is the distance from X to the
    endpoint it must exceed and ``upper_margin`` the distance to the endpoint
    it must stay below.
    """

    admissible: bool
    lower_margin: float
    upper_margin: float

    def error(self) -> InadmissibleError:
        """The error for an inadmissible problem: its cause, then its margins."""
        if self.lower_margin > 0.0 and self.upper_margin > 0.0:
            cause = ("both margins are positive, but theta rounds to 0 or 1 "
                     "in the given or the swapped labeling")
        else:
            cause = "target position does not lie strictly between the endpoint positions"
        return InadmissibleError(
            f"{cause}: margins ({self.lower_margin!r}, {self.upper_margin!r})"
        )


def validate(problem: GnsProblem) -> ValidationReport:
    """Check strict betweenness of X; report margins instead of raising.

    Admissibility uses strict inequalities with no epsilon.  It also
    requires the quotient :func:`theta` computes to lie strictly in (0, 1)
    in the given labeling and in the swapped one: where X meets an endpoint
    up to rounding, a margin can be positive while that quotient rounds to 0
    or 1.
    """
    x = problem.position()
    x1 = problem.position1()
    x2 = problem.position2()
    sign = math.copysign(1.0, x1 - x2) if x1 != x2 else 0.0
    lower = (x - x2) * sign
    upper = (x1 - x) * sign
    weights_inside = x1 != x2 and (
        0.0 < (x - x2) / (x1 - x2) < 1.0 and 0.0 < (x - x1) / (x2 - x1) < 1.0
    )
    return ValidationReport(
        admissible=(lower > 0.0 and upper > 0.0 and weights_inside),
        lower_margin=lower,
        upper_margin=upper,
    )


def theta(problem: GnsProblem) -> Theta:
    """Solve X = theta*X1 + (1-theta)*X2 for theta strictly in (0, 1)."""
    report = validate(problem)
    if not report.admissible:
        raise report.error()
    # validate has checked that this quotient lies strictly in (0, 1)
    return Theta((problem.position() - problem.position2()) / problem.chain_gap())
