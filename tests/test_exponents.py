import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gnsbound.errors import InadmissibleError, OutOfRangeError
from gnsbound.exponents import (
    GnsProblem,
    LebesgueExponent,
    theta,
    validate,
    young_partner_recip,
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
        with pytest.raises(OutOfRangeError):
            LebesgueExponent.parse("1/0")
        with pytest.raises(OutOfRangeError):
            LebesgueExponent.parse("-inf")

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
        assert young_partner_recip(TWO.recip, ONE.recip) == TWO.recip
        q_recip = young_partner_recip(TWO.recip, LebesgueExponent.parse("4/3").recip)
        assert q_recip == pytest.approx(0.75)
        with pytest.raises(OutOfRangeError):
            young_partner_recip(ONE.recip, TWO.recip)


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

    def test_endpoint_up_to_rounding_inadmissible(self):
        # X = X1 = 2/3 exactly, but rounding leaves a positive upper margin
        # while theta's quotient rounds to 1
        third = 1.0 / 3.0
        problem = GnsProblem(
            1, 0.0, third, third, *(LebesgueExponent.parse(e) for e in ("3/2", "1", "4"))
        )
        report = validate(problem)
        assert report.upper_margin == 2.0**-53 and report.lower_margin == 0.75
        assert not report.admissible
        with pytest.raises(InadmissibleError, match="margins"):
            theta(problem)

    @given(
        d=st.sampled_from([1, 2, 3]),
        orders=st.tuples(*[st.sampled_from([-0.5, 0.0, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 2.5])] * 3),
        exps=st.tuples(*[st.sampled_from(["1", "3/2", "2", "3", "4", "inf"])] * 3),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_admitted_problems_have_theta_in_both_labelings(self, d, orders, exps):
        problem = GnsProblem(d, *orders, *(LebesgueExponent.parse(e) for e in exps))
        assume(validate(problem).admissible)
        for labeled in (problem, problem.oriented()[0], problem.swapped()):
            assert 0.0 < theta(labeled).value < 1.0

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
