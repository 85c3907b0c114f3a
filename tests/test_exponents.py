import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsbound.errors import InadmissibleError, OutOfRangeError
from gnsbound.exponents import (
    FailureCase,
    GnsProblem,
    LebesgueExponent,
    brezis_mironescu_exception,
    known_failure_case,
    theta,
    validate,
    young_partner,
)

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)


class TestLebesgueExponent:
    def test_reciprocal_round_trip_exact(self):
        for value in (1.0, 4.0 / 3.0, 2.0, 3.0, math.inf):
            e = LebesgueExponent.from_value(value)
            assert LebesgueExponent.from_value(e.value).recip == e.recip

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            LebesgueExponent(1.5)
        with pytest.raises(OutOfRangeError):
            LebesgueExponent.from_value(0.5)

    def test_parse(self):
        assert LebesgueExponent.parse("inf").recip == 0.0
        assert LebesgueExponent.parse("4/3").recip == 0.75
        assert LebesgueExponent.parse("2").recip == 0.5
        assert LebesgueExponent.parse("2.5").recip == 0.4
        with pytest.raises(OutOfRangeError):
            LebesgueExponent.parse("2/3")

    def test_conjugate_examples(self):
        assert TWO.conjugate() == TWO
        assert ONE.conjugate() == INF
        assert LebesgueExponent.parse("4/3").conjugate().value == pytest.approx(4.0)

    @given(st.integers(min_value=0, max_value=2**53))
    @settings(max_examples=200)
    def test_conjugate_involution_exact(self, n):
        # exact on reciprocals that are multiples of 2^-53 (everything the
        # complement map itself can produce: the binade [1/2, 1) has ulp
        # 2^-53, so 1 - u is on that grid and complements twice without
        # rounding); finer bits in [0, 1/2) cannot survive any complement
        e = LebesgueExponent(n / 2.0**53)
        assert e.conjugate().conjugate() == e
        assert e.conjugate().conjugate().conjugate() == e.conjugate()


class TestYoungPartner:
    def test_examples(self):
        assert young_partner(TWO, ONE) == TWO
        q = young_partner(TWO, LebesgueExponent.parse("4/3"))
        assert q.value == pytest.approx(4.0 / 3.0)
        with pytest.raises(OutOfRangeError):
            young_partner(ONE, TWO)


class TestThetaAndValidate:
    def test_agmon_theta(self, agmon_problem):
        assert theta(agmon_problem).value == pytest.approx(0.5, abs=1e-15)

    def test_agmon_margins(self, agmon_problem):
        report = validate(agmon_problem)
        assert report.admissible
        assert report.lower_margin == pytest.approx(0.5)
        assert report.upper_margin == pytest.approx(0.5)

    def test_planar_example(self):
        problem = GnsProblem(2, 0.0, 1.0, 0.0, LebesgueExponent(0.25), TWO, TWO)
        assert theta(problem).value == pytest.approx(0.5, abs=1e-15)

    def test_d3_margins(self):
        problem = GnsProblem(3, 1.0, 2.0, 0.0, TWO, TWO, TWO)
        report = validate(problem)
        assert report.admissible
        assert report.lower_margin == pytest.approx(1.0 / 3.0)
        assert report.upper_margin == pytest.approx(1.0 / 3.0)

    def test_endpoint_inadmissible(self):
        # target equal to one endpoint: a zero margin
        problem = GnsProblem(1, 0.0, 1.0, 0.0, TWO, TWO, TWO)
        report = validate(problem)
        assert not report.admissible
        with pytest.raises(InadmissibleError):
            theta(problem)

    def test_margin_parameter(self, agmon_problem):
        assert validate(agmon_problem, margin=0.4).admissible
        assert not validate(agmon_problem, margin=0.6).admissible

    def _random_admissible(self, rng) -> GnsProblem:
        while True:
            d = int(rng.integers(1, 4))
            s, s1, s2 = rng.uniform(-2, 3, size=3)
            ps = [LebesgueExponent(float(u)) for u in rng.uniform(0, 1, size=3)]
            problem = GnsProblem(d, float(s), float(s1), float(s2), *ps)
            if validate(problem, margin=1e-6).admissible:
                return problem

    def test_theta_validate_consistency(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            problem = self._random_admissible(rng)
            value = theta(problem).value
            assert 0.0 < value < 1.0
            # substituting back reproduces the target position
            recon = value * problem.position1() + (1.0 - value) * problem.position2()
            assert abs(recon - problem.position()) <= 1e-14

    def test_known_failure_none_on_admissible(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            problem = self._random_admissible(rng)
            assert known_failure_case(problem) is None


class TestOrientation:
    def test_oriented_swaps_reversed_chain(self, agmon_problem):
        oriented, swapped = agmon_problem.oriented()
        assert swapped
        assert oriented.chain_gap() > 0
        assert oriented.s1 == agmon_problem.s2 and oriented.p1 == agmon_problem.p2
        assert theta(oriented).value == pytest.approx(1.0 - theta(agmon_problem).value)

    def test_oriented_identity_when_directed(self):
        problem = GnsProblem(1, 0.0, 0.0, 1.0, INF, TWO, TWO)
        oriented, swapped = problem.oriented()
        assert not swapped and oriented == problem


class TestAdvisoryPredicates:
    def test_brezis_mironescu_examples(self):
        assert brezis_mironescu_exception(0.5, TWO, 1.0, ONE) is True
        assert brezis_mironescu_exception(1.0, TWO, 1.0, TWO) is False
        assert brezis_mironescu_exception(1.0, TWO, 1.5, ONE) is False

    def test_case_1(self):
        # s1 = s2 - 1 + 1/p1 with finite p1 and s = s2 - 1
        problem = GnsProblem(1, 0.0, 0.5, 1.0, INF, TWO, ONE)
        assert known_failure_case(problem) is FailureCase.CASE_1

    def test_case_2(self):
        # s_j - d/p_j = s for both endpoints, s = 0, p = inf
        problem = GnsProblem(
            2,
            0.0,
            2.0 / 3.0,
            4.0 / 3.0,
            INF,
            LebesgueExponent.parse("3"),
            LebesgueExponent.parse("3/2"),
        )
        assert known_failure_case(problem) is FailureCase.CASE_2

    def test_case_3b_shadowed_by_case_2(self):
        # every family-3b tuple (p1 = p = inf, s1 = s, s2 = s + d/p2) also
        # satisfies family 2; first-match in enumeration order reports that
        problem = GnsProblem(2, 1.0, 1.0, 2.0, INF, INF, TWO)
        assert known_failure_case(problem) is FailureCase.CASE_2

    def test_theta_window_case_requires_weight(self):
        # weight-window clause of case 1; the window narrows as the weight
        # grows, and is skipped entirely when no weight is available
        problem = GnsProblem(1, 0.25, 0.5, 1.0, INF, TWO, ONE)
        assert known_failure_case(problem, theta_value=0.1) is FailureCase.CASE_1
        assert known_failure_case(problem, theta_value=0.9) is None
        assert known_failure_case(problem) is None
