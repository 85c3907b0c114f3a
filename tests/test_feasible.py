import math

import pytest

from gnsbound.errors import InadmissibleError, OutOfRangeError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta, validate
from gnsbound.feasible import (
    DEFAULT_MEMBERSHIP_MARGIN,
    _derive_q_recips,
    _r1_bounds,
    _r2_bounds,
    _shifted_uppers,
    candidate_box,
    feasibility_margins,
    in_sigma,
    margins_ok,
    sample_sigma,
    sigma_lower_bound,
)

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)


class TestSigmaLowerBound:
    def test_label_literal_values(self, agmon_problem):
        # evaluated on the labels as given
        assert sigma_lower_bound(agmon_problem) == 0.0
        oriented, _ = agmon_problem.oriented()
        assert sigma_lower_bound(oriented) == pytest.approx(0.25)

    def test_positive_bound(self):
        problem = GnsProblem(1, 0.0, 1.0, 3.0, TWO, TWO, INF)
        assert sigma_lower_bound(problem) == pytest.approx(1.5)

    def test_boundary_zero(self):
        problem = GnsProblem(2, 1.0, 1.5, 2.0, TWO, TWO, TWO)
        assert sigma_lower_bound(problem) == 0.0


class TestIntervals:
    def test_r1_hand_value(self, agmon_problem):
        uppers = _shifted_uppers(agmon_problem, 1.0)
        assert _r1_bounds(agmon_problem.p.recip, *uppers, 0.75) == pytest.approx((-0.625, 1.125))

    def test_r2_hand_value(self, agmon_problem):
        uppers = _shifted_uppers(agmon_problem, 1.0)
        assert _r2_bounds(agmon_problem.p.recip, *uppers, 0.25) == pytest.approx((-0.375, 1.875))

    def test_unclamped_nonempty_for_oriented(self, fractional_problem):
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        lb = sigma_lower_bound(oriented)
        for beta1 in (th + 0.05, th + 0.3, 0.95):
            for sigma in (lb + 0.01, lb + 1.0, lb + 5.0):
                uppers = _shifted_uppers(oriented, sigma)
                lo, hi = _r1_bounds(oriented.p.recip, *uppers, beta1)
                assert max(lo, 0.0) < min(hi, beta1)

    def test_empty_is_a_value(self):
        # extreme parameters can clamp the box away entirely
        problem = GnsProblem(1, 0.0, 0.0, 5.0, ONE, TWO, INF)
        _, (lo, hi) = candidate_box(problem, 1e-6, 0.75, 0.5)
        assert not lo < hi


class TestDeriveQ:
    def test_collapse(self, fractional_problem):
        # ratio quantity equal to the target reciprocal collapses weights
        p_recip = fractional_problem.p.recip
        q1, _ = _derive_q_recips(p_recip, 0.6, 0.3, p_recip, p_recip)
        assert q1 == pytest.approx(p_recip)

    def test_infinite_target(self, agmon_problem):
        assert _derive_q_recips(agmon_problem.p.recip, 0.75, 0.25, 0.0, 0.0) == (0.0, 0.0)

    def test_out_of_range(self, agmon_problem):
        # nonzero ratio with an infinite target forces a negative reciprocal
        with pytest.raises(OutOfRangeError):
            _derive_q_recips(agmon_problem.p.recip, 0.75, 0.25, 0.0, 0.4)

    def test_unsolvable_at_beta_endpoints(self, agmon_problem):
        # beta1 = 1 and beta2 = 0 leave a convexity condition without a
        # solution for its q
        for beta1, beta2 in ((1.0, 0.25), (0.75, 0.0)):
            with pytest.raises(OutOfRangeError):
                _derive_q_recips(agmon_problem.p.recip, beta1, beta2, 0.0, 0.0)


class TestInSigma:
    def test_sampled_points_pass(self, agmon_problem, fractional_problem):
        for problem in (agmon_problem, fractional_problem):
            oriented, _ = problem.oriented()
            th = theta(oriented).value
            for point in sample_sigma(problem, 16, seed=7):
                margins = feasibility_margins(oriented, th, point)
                assert margins_ok(*margins, DEFAULT_MEMBERSHIP_MARGIN)
                report = in_sigma(problem, point)
                assert report.ok
                assert report.min_margin > 0

    def test_beta_out_of_range_fails(self, fractional_problem):
        point = sample_sigma(fractional_problem, 1, seed=3)[0]
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        bad = point._replace(beta1=th - 1e-3)  # below the weight threshold
        report = in_sigma(fractional_problem, bad)
        assert not report.ok
        assert report.margins["beta1_lower"] < 0

    def test_sigma_at_bound_fails(self, agmon_problem):
        point = sample_sigma(agmon_problem, 1, seed=3)[0]
        oriented, _ = agmon_problem.oriented()
        at_bound = point._replace(sigma=sigma_lower_bound(oriented))
        assert not in_sigma(agmon_problem, at_bound).ok

    @pytest.mark.parametrize("field", ["beta1", "sigma", "r1_recip"])
    def test_nan_coordinate_fails(self, agmon_problem, field):
        point = sample_sigma(agmon_problem, 1, seed=3)[0]
        report = in_sigma(agmon_problem, point._replace(**{field: math.nan}))
        assert not report.ok

    def test_time_exponent_identity(self, agmon_problem, fractional_problem):
        # the exponent of the pivot-time integrand collapses to
        # -1 + (theta - beta2)*(d/2)*K on one side and the beta1 analogue on
        # the other; this is the strongest guard against sign errors
        for problem in (agmon_problem, fractional_problem):
            oriented, _ = problem.oriented()
            th = theta(oriented).value
            d = oriented.d
            half_dk = 0.5 * d * oriented.chain_gap()
            for point in sample_sigma(problem, 50, seed=123):
                sigma = point.sigma
                order1 = oriented.s + 2 * sigma - oriented.s1
                order2 = oriented.s + 2 * sigma - oriented.s2
                small = (
                    sigma
                    - 1.0
                    - point.beta2
                    * (0.5 * order1 + 0.5 * d * (oriented.p1.recip - point.q2_recip))
                    - (1.0 - point.beta2)
                    * (0.5 * order2 + 0.5 * d * (oriented.p2.recip - point.r2_recip))
                )
                assert small == pytest.approx(
                    -1.0 + (th - point.beta2) * half_dk, abs=1e-10
                )
                large = (
                    sigma
                    - 1.0
                    - point.beta1
                    * (0.5 * order1 + 0.5 * d * (oriented.p1.recip - point.r1_recip))
                    - (1.0 - point.beta1)
                    * (0.5 * order2 + 0.5 * d * (oriented.p2.recip - point.q1_recip))
                )
                assert large == pytest.approx(
                    -1.0 - (point.beta1 - th) * half_dk, abs=1e-10
                )

    def test_margins_structure(self, fractional_problem):
        point = sample_sigma(fractional_problem, 1, seed=9)[0]
        oriented, _ = fractional_problem.oriented()
        margins, closed = feasibility_margins(oriented, theta(oriented).value, point)
        expected_names = {
            "sigma",
            "beta1_lower",
            "beta1_upper",
            "beta2_lower",
            "beta2_upper",
            "r1_lower",
            "r1_upper",
            "r2_lower",
            "r2_upper",
            "q1_consistency",
            "q2_consistency",
            "q1_lower",
            "q1_upper",
            "q2_lower",
            "q2_upper",
            "pair_q2_p1",
            "pair_r2_p2",
            "pair_r1_p1",
            "pair_q1_p2",
        }
        assert set(margins) == expected_names
        assert closed <= {"pair_q2_p1", "pair_r2_p2", "pair_r1_p1", "pair_q1_p2"}


class TestSampler:
    def test_determinism(self, agmon_problem):
        a = sample_sigma(agmon_problem, 16, seed=7)
        b = sample_sigma(agmon_problem, 16, seed=7)
        assert a == b

    def test_different_seeds_differ(self, fractional_problem):
        a = sample_sigma(fractional_problem, 8, seed=1)
        b = sample_sigma(fractional_problem, 8, seed=2)
        assert a != b

    def test_requested_count(self, agmon_problem, fractional_problem):
        assert len(sample_sigma(agmon_problem, 16, seed=7)) == 16
        assert len(sample_sigma(fractional_problem, 16, seed=7)) == 16

    def test_inadmissible_rejected(self):
        problem = GnsProblem(1, 1.0, 1.0, 0.0, TWO, TWO, TWO)
        with pytest.raises(InadmissibleError):
            sample_sigma(problem, 4, seed=0)

    def test_structurally_empty_detected(self):
        from gnsbound.errors import EmptyFeasibleError

        # admissible, but the target integrability is below both endpoints:
        # the smoothing pairings cannot lower integrability, so no candidate
        # can satisfy the convexity conditions for any sigma
        problem = GnsProblem(1, 0.0, -1.0, 1.0, ONE, TWO, TWO)
        assert validate(problem).admissible
        with pytest.raises(EmptyFeasibleError, match="structurally empty"):
            sample_sigma(problem, 4, seed=0)
        # the weighted variant: reachable reciprocal capped by the
        # theta-combination even though one endpoint exponent is above p
        skewed = GnsProblem(
            2, 1.88, 0.37, 1.07,
            LebesgueExponent(0.625), LebesgueExponent(0.71), LebesgueExponent(0.15),
        )
        assert validate(skewed).admissible
        with pytest.raises(EmptyFeasibleError, match="structurally empty"):
            sample_sigma(skewed, 4, seed=0)

    def test_forced_degenerate_coordinates_at_infinite_target(self, agmon_problem):
        # the target exponent is infinite, so both ratio quantities vanish and
        # every exponent coordinate is forced to infinity
        for point in sample_sigma(agmon_problem, 8, seed=21):
            assert point.r1_recip == point.r2_recip == 0.0
            assert point.q1_recip == point.q2_recip == 0.0

    def test_nonemptiness_tracks_chain_gap_sign(self):
        # the unclamped interval is nonempty for every admissible problem
        # once beta1 exceeds the weight and sigma its bound; the directed
        # chain gap times the beta offset controls the interval width
        import numpy as np

        rng = np.random.default_rng(31)
        found = 0
        while found < 200:
            d = int(rng.integers(1, 4))
            s, s1, s2 = (float(x) for x in rng.uniform(-2, 3, size=3))
            ps = [LebesgueExponent(float(u)) for u in rng.uniform(0, 1, size=3)]
            problem = GnsProblem(d, s, s1, s2, *ps)
            if not validate(problem, margin=1e-3).admissible:
                continue
            found += 1
            oriented, _ = problem.oriented()
            assert oriented.chain_gap() > 0
            th = theta(oriented).value
            lb = sigma_lower_bound(oriented)
            beta1 = th + 0.5 * (1 - th)
            uppers = _shifted_uppers(oriented, lb + 0.5)
            lo, hi = _r1_bounds(oriented.p.recip, *uppers, beta1)
            unclamped_width = (beta1 - th) * oriented.chain_gap() + 2 * (lb + 0.5) / d
            assert unclamped_width > 0
            assert hi - lo == pytest.approx(unclamped_width, abs=1e-12)
