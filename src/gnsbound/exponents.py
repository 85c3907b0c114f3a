"""Extended-real Lebesgue exponents and interpolation-problem admissibility.

Exponents in [1, inf] are stored through their reciprocals in [0, 1], so that
infinity is the ordinary value 0 and every formula in the package (all of
which are affine in reciprocals) avoids divisions and special cases.  The
conventions inf**0 = 1 and inf**(1/inf) = 1 are adopted globally.

A problem is the tuple (d, s, s1, s2, p, p1, p2).  Writing
X = 1/p - s/d and Xj = 1/pj - sj/d, the problem is admissible when X lies
strictly between X1 and X2, in which case the interpolation weight theta
in (0, 1) solves X = theta*X1 + (1-theta)*X2.  Admissibility is checked by
:func:`validate`; construction of :class:`GnsProblem` deliberately does not
enforce it, so that the advisory failure-case predicates can classify
excluded parameter tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InadmissibleError, OutOfRangeError

# Tolerance for treating a float as a natural number in the advisory
# predicates (inputs arrive as floats).
INTEGER_TOL = 1e-9

# Tolerance for float comparisons of reciprocal-affine identities.
RECIP_TOL = 1e-12


def _is_integer(x: float, minimum: int = 0) -> bool:
    return abs(x - round(x)) < INTEGER_TOL and round(x) >= minimum


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


def young_partner(p: LebesgueExponent, r: LebesgueExponent) -> LebesgueExponent:
    """The exponent q with 1/q + 1/r = 1 + 1/p, governing convolution bounds."""
    return LebesgueExponent(young_partner_recip(p.recip, r.recip))


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
    it must stay below.  ``chain_reversed`` records whether the endpoints as
    given are in the opposite order from the directed chain (the library
    relabels internally in that case).
    """

    admissible: bool
    lower_margin: float
    upper_margin: float
    chain_reversed: bool


def validate(problem: GnsProblem, margin: float = 0.0) -> ValidationReport:
    """Check strict betweenness of X; report margins instead of raising.

    Admissibility uses strict inequalities with no epsilon; callers needing
    robustness pass ``margin`` > 0.
    """
    x = problem.position()
    x1 = problem.position1()
    x2 = problem.position2()
    sign = math.copysign(1.0, x1 - x2) if x1 != x2 else 0.0
    lower = (x - x2) * sign
    upper = (x1 - x) * sign
    return ValidationReport(
        admissible=(lower > margin and upper > margin),
        lower_margin=lower,
        upper_margin=upper,
        chain_reversed=(x1 - x2) < 0.0,
    )


def theta(problem: GnsProblem) -> Theta:
    """Solve X = theta*X1 + (1-theta)*X2 for theta strictly in (0, 1)."""
    report = validate(problem)
    if not report.admissible:
        raise InadmissibleError(
            "target position does not lie strictly between the endpoint positions: "
            f"margins ({report.lower_margin!r}, {report.upper_margin!r})"
        )
    value = (problem.position() - problem.position2()) / problem.chain_gap()
    if not (0.0 < value < 1.0):
        raise InadmissibleError(f"interpolation weight {value!r} outside (0, 1)")
    return Theta(value)


def brezis_mironescu_exception(
    s1: float, p1: LebesgueExponent, s2: float, p2: LebesgueExponent
) -> bool:
    """Advisory predicate for the inhomogeneous-norm exception condition.

    True iff s2 is a positive integer, p2 = 1, and 0 < s2 - s1 <= 1 - 1/p1.
    Not used by the bound computation.
    """
    if not _is_integer(s2, minimum=1):
        return False
    if abs(p2.recip - 1.0) > INTEGER_TOL:
        return False
    gap = s2 - s1
    return 0.0 < gap <= 1.0 - p1.recip + INTEGER_TOL


class FailureCase(Enum):
    """Enumerated parameter families where the inequality is known to fail."""

    CASE_1 = "case-1"
    CASE_2 = "case-2"
    CASE_3A = "case-3a"
    CASE_3B = "case-3b"


def known_failure_case(
    problem: GnsProblem, theta_value: float | None = None
) -> FailureCase | None:
    """Match the problem against the enumerated failure families, if any.

    Advisory only: admissible problems match none of the cases.  Two of the
    families constrain the interpolation weight; for those, ``theta_value``
    is used when given, otherwise the derived weight of an admissible
    problem.  For inadmissible problems without an explicit weight, the
    weight-window clauses are treated as unsatisfied.  Cases are tested in
    enumeration order and the first match wins; overlaps between the families
    are not disambiguated.
    """
    d, s, s1, s2 = problem.d, problem.s, problem.s1, problem.s2
    p, p1, p2 = problem.p, problem.p1, problem.p2

    if theta_value is None and validate(problem).admissible:
        theta_value = theta(problem).value

    p1_gt_1 = p1.recip < 1.0 - INTEGER_TOL
    p1_finite = p1.recip > INTEGER_TOL
    p2_is_1 = abs(p2.recip - 1.0) < INTEGER_TOL
    p_is_inf = p.recip < INTEGER_TOL

    def theta_window() -> bool:
        if theta_value is None:
            return False
        lo = s2 + theta_value * p1.recip - 1.0
        hi = s2 + theta_value * p1.recip - theta_value
        return lo < s < hi

    # Case 1: d = 1, s2 in N0, 1 < p1 <= inf, p2 = 1, s1 = s2 - 1 + 1/p1,
    # and either [1 < p1 < inf, s = s2 - 1] or the weight window holds.
    if (
        d == 1
        and _is_integer(s2, minimum=0)
        and p1_gt_1
        and p2_is_1
        and abs(s1 - (s2 - 1.0 + p1.recip)) < INTEGER_TOL
    ):
        if (p1_finite and abs(s - (s2 - 1.0)) < INTEGER_TOL) or theta_window():
            return FailureCase.CASE_1

    # Case 2: s1 < s2, s1 - d/p1 = s2 - d/p2 = s in N0, p = inf,
    # (p1, p2) != (inf, 1); holds for every interpolation weight.
    if (
        s1 < s2
        and abs((s1 - d * p1.recip) - s) < INTEGER_TOL
        and abs((s2 - d * p2.recip) - s) < INTEGER_TOL
        and _is_integer(s, minimum=0)
        and p_is_inf
        and not (p1.recip < INTEGER_TOL and p2_is_1)
    ):
        return FailureCase.CASE_2

    if s1 <= s <= s2:
        # Case 3a: the weight-window variant of case 1 with s2 >= 1 and
        # finite p1.
        if (
            d == 1
            and _is_integer(s2, minimum=1)
            and p1_gt_1
            and p1_finite
            and p2_is_1
            and abs(s1 - (s2 - 1.0 + p1.recip)) < INTEGER_TOL
            and theta_window()
        ):
            return FailureCase.CASE_3A
        # Case 3b: p1 = p = inf, 1 < p2 < inf, s1 = s in N0, s2 = s + d/p2.
        if (
            p1.recip < INTEGER_TOL
            and INTEGER_TOL < p2.recip < 1.0 - INTEGER_TOL
            and p_is_inf
            and abs(s1 - s) < INTEGER_TOL
            and _is_integer(s, minimum=0)
            and abs(s2 - (s + d * p2.recip)) < INTEGER_TOL
        ):
            return FailureCase.CASE_3B

    return None
