import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsbound.errors import InadmissibleError, InfeasibleError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta
from gnsbound.feasible import SigmaPoint, in_sigma, sample_sigma, sigma_lower_bound
from gnsbound.optimizer import (
    PENALTY,
    OptimizerConfig,
    _log_objective,
    _penalized_log_objective,
    _point_from_z,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,
    equalizing_t0,
    minimize,
    objective,
    two_term_bound,
)

TWO = LebesgueExponent(0.5)

FAST = OptimizerConfig(starts=8, sample_per_start=16, seed=42)

# (d, s, s1, s2, p, p1, p2) of the seven benchmark certify problems: d = 1..3,
# both orientations, p finite and infinite.
CERTIFY_PROBLEMS = [
    GnsProblem(d, s, s1, s2, *(LebesgueExponent.parse(e) for e in exps))
    for d, s, s1, s2, *exps in (
        (1, 0.0, 1.0, 0.0, "inf", "2", "2"),
        (1, 0.5, 1.0, 0.0, "4", "2", "2"),
        (1, 0.0, 0.0, 1.0, "inf", "2", "2"),
        (2, 0.0, 1.0, 0.0, "4", "2", "2"),
        (2, 0.5, 1.5, 0.0, "4", "2", "2"),
        (3, 1.0, 2.0, 0.0, "2", "2", "2"),
        (3, 0.0, 2.0, 0.0, "inf", "2", "2"),
    )
]


class TestObjective:
    def test_finite_positive_on_samples(self, agmon_problem, fractional_problem):
        for problem in (agmon_problem, fractional_problem):
            for point in sample_sigma(problem, 10, seed=4):
                value = objective(problem, point)
                assert math.isfinite(value) and value > 0

    def test_infeasible_rejected(self, fractional_problem):
        point = sample_sigma(fractional_problem, 1, seed=4)[0]
        bad = SigmaPoint(
            beta1=point.beta1,
            beta2=point.beta2,
            r1=point.r1,
            r2=point.r2,
            q1=point.q1,
            q2=point.q2,
            sigma=point.sigma * 1e-9,
        )
        with pytest.raises(InfeasibleError):
            objective(fractional_problem, bad)

    def test_blowup_as_beta2_approaches_weight(self, fractional_problem):
        # push beta2 toward the interpolation weight along a feasible family
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        base = sample_sigma(fractional_problem, 1, seed=8)[0]
        values = []
        for gap in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
            probe = SigmaPoint(
                beta1=base.beta1,
                beta2=th * (1.0 - gap),
                r1=base.r1,
                r2=base.r2,
                q1=LebesgueExponent(
                    (oriented.p.recip - base.beta1 * base.r1.recip)
                    / (1.0 - base.beta1)
                ),
                q2=LebesgueExponent(
                    (oriented.p.recip - (1.0 - th * (1.0 - gap)) * base.r2.recip)
                    / (th * (1.0 - gap))
                ),
                sigma=base.sigma,
            )
            values.append(objective(fractional_problem, probe))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTwoTermCrossCheck:
    def test_equalizer_reproduces_objective(self, agmon_problem, fractional_problem):
        for problem in (agmon_problem, fractional_problem):
            for point in sample_sigma(problem, 25, seed=10):
                t0 = equalizing_t0(problem, point)
                assert two_term_bound(problem, point, t0) == pytest.approx(
                    objective(problem, point), rel=1e-12
                )

    def test_bisection_equalization(self, fractional_problem):
        # independent 1-d equalization of the two split terms agrees with the
        # closed-form pivot
        from gnsbound.optimizer import _log_objective_parts

        point = sample_sigma(fractional_problem, 1, seed=14)[0]
        t0 = equalizing_t0(fractional_problem, point)
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        log_small, log_large, a, b = _log_objective_parts(oriented, th, point)

        def log_term_difference(log_t: float) -> float:
            small = log_small + a * log_t - math.log(a)
            large = log_large - b * log_t - math.log(b)
            return small - large

        lo, hi = -60.0, 60.0
        assert log_term_difference(lo) < 0 < log_term_difference(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_term_difference(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert math.exp(0.5 * (lo + hi)) == pytest.approx(t0, rel=1e-9)

    def test_norm_scaling_moves_pivot(self, fractional_problem):
        point = sample_sigma(fractional_problem, 1, seed=14)[0]
        oriented, swapped = fractional_problem.oriented()
        th = theta(oriented).value
        from gnsbound.optimizer import _log_objective_parts

        _, _, a, b = _log_objective_parts(oriented, th, point)
        t0 = equalizing_t0(fractional_problem, point, 1.0, 1.0)
        t0_scaled = equalizing_t0(fractional_problem, point, 3.0, 1.0)
        exponent = (point.beta1 - point.beta2) / (a + b)
        if swapped:
            # the first user norm maps to the second oriented slot
            assert t0_scaled == pytest.approx(t0 * 3.0**-exponent, rel=1e-12)
        else:
            assert t0_scaled == pytest.approx(t0 * 3.0**exponent, rel=1e-12)


def _log_objective_via_a_par(oriented, th, point):
    """The objective from a_par(ParabolicParams(...)), one dataclass per constant."""
    from gnsbound.parabolic import ParabolicParams, a_par

    order1 = oriented.s + 2.0 * point.sigma - oriented.s1
    order2 = oriented.s + 2.0 * point.sigma - oriented.s2
    d = oriented.d

    def log_a(out, inp, order):
        return math.log(a_par(ParabolicParams(out, inp, order, d)))

    log_small = point.beta2 * log_a(point.q2, oriented.p1, order1) + (
        1.0 - point.beta2
    ) * log_a(point.r2, oriented.p2, order2)
    log_large = point.beta1 * log_a(point.r1, oriented.p1, order1) + (
        1.0 - point.beta1
    ) * log_a(point.q1, oriented.p2, order2)
    half_dk = 0.5 * d * oriented.chain_gap()
    a = (th - point.beta2) * half_dk
    b = (point.beta1 - th) * half_dk
    w = a / (a + b)
    return (
        math.log(2.0)
        - math.lgamma(point.sigma)
        + (1.0 - w) * (log_small - math.log(a))
        + w * (log_large - math.log(b))
    )


class TestPenalizedObjectiveParity:
    @given(
        index=st.integers(0, len(CERTIFY_PROBLEMS) - 1),
        z=st.lists(st.floats(-8.0, 8.0), min_size=5, max_size=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_descent_objective_matches_object_path(self, index, z):
        # the descent evaluates on plain floats; wherever the candidate is a
        # member it must return the object path's value bit for bit, and the
        # penalty everywhere else
        problem = CERTIFY_PROBLEMS[index]
        oriented, _ = problem.oriented()
        th = theta(oriented).value
        lb = sigma_lower_bound(oriented)
        zv = np.array(z)
        got = _penalized_log_objective(oriented, th, lb)(zv)
        point = _point_from_z(oriented, th, lb, zv)
        if point is None or not in_sigma(problem, point).ok:
            assert got == PENALTY
        else:
            assert got == _log_objective(oriented, th, point)
            assert got == _log_objective_via_a_par(oriented, th, point)


class TestMinimize:
    def test_reference_values_unchanged(self, agmon_problem, fractional_problem):
        # certificate values and witnesses at FAST from version 0.1.0; a
        # change that keeps the bound must reproduce them to the last bit
        # (problem, (value, beta1, beta2, sigma))
        expected = [
            (
                agmon_problem,
                (3.2045178772778646, 0.9999999999555779, 8.038392973502486e-17, 0.49999999971787823),
            ),
            (
                fractional_problem,
                (2.3588270403519895, 0.9999999959676769, 1.0789783439269177e-14, 0.24999999992518432),
            ),
            (
                GnsProblem(3, 1.0, 2.0, 0.0, TWO, TWO, TWO),
                (30.27773984554294, 0.9999999556898089, 4.621586227980637e-06, 1.499997586936742),
            ),
        ]
        for problem, want in expected:
            cert = minimize(problem, FAST)
            assert (cert.value, cert.point.beta1, cert.point.beta2, cert.point.sigma) == want

    def test_saturated_logistic_decodes_to_none(self, agmon_problem):
        # expit(40) rounds to 1.0, so beta1 = 1 and the convexity condition
        # for q1 cannot be solved
        from gnsbound.optimizer import _point_from_z

        oriented, _ = agmon_problem.oriented()
        th = theta(oriented).value
        z = np.array([40.0, 0.0, 0.0, 0.0, 0.0])
        assert _point_from_z(oriented, th, sigma_lower_bound(oriented), z) is None

    def test_agmon_certificate(self, agmon_problem):
        cert = minimize(agmon_problem, FAST)
        assert cert.margins.ok
        assert cert.value >= 1.0  # cannot beat the known sharp constant
        assert cert.theta.value == pytest.approx(0.5)
        assert cert.relabeled

    def test_certificate_self_consistency(self, fractional_problem):
        cert = minimize(fractional_problem, FAST)
        assert objective(fractional_problem, cert.point) == pytest.approx(
            cert.value, rel=1e-12
        )

    def test_certificate_dominated_by_samples(self, fractional_problem):
        cert = minimize(fractional_problem, FAST)
        for start in range(FAST.starts):
            for point in sample_sigma(
                fractional_problem,
                FAST.sample_per_start,
                seed=FAST.seed + start,
                sigma_window=cert.sigma_window,
            ):
                assert cert.value <= objective(fractional_problem, point) + 1e-9

    def test_determinism(self, fractional_problem):
        a = minimize(fractional_problem, FAST)
        b = minimize(fractional_problem, FAST)
        assert certificate_json(a) == certificate_json(b)

    def test_doubling_starts_never_increases(self, fractional_problem):
        small = minimize(fractional_problem, OptimizerConfig(starts=4, sample_per_start=16, seed=42))
        large = minimize(fractional_problem, OptimizerConfig(starts=8, sample_per_start=16, seed=42))
        assert large.value <= small.value + 1e-12

    def test_inadmissible(self):
        problem = GnsProblem(1, 1.0, 1.0, 0.0, TWO, TWO, TWO)
        with pytest.raises(InadmissibleError):
            minimize(problem, FAST)

    def test_coinciding_exponents_pin_pairing_boundary(self):
        # with all three exponents equal, the convexity conditions and the
        # pairing caps force every exponent coordinate onto the diagonal;
        # the feasible set lives on that closed boundary
        problem = GnsProblem(3, 1.0, 2.0, 0.0, TWO, TWO, TWO)
        points = sample_sigma(problem, 8, seed=3)
        for point in points:
            # pinned to the diagonal up to one rounding of the degenerate box
            for e in (point.r1, point.q1, point.r2, point.q2):
                assert e.recip == pytest.approx(0.5, abs=1e-12)
            assert point.sigma > 0.5  # keeps the shifted orders nonnegative
        cert = minimize(problem, FAST)
        assert cert.margins.ok
        assert cert.value <= min(objective(problem, pt) for pt in points) + 1e-12

    def test_tiny_sigma_window_expands_once(self, fractional_problem):
        # a window below the feasible sigma range triggers the single
        # allowed expansion at the sampling stage
        cert = minimize(
            fractional_problem,
            OptimizerConfig(starts=6, sample_per_start=16, seed=42, sigma_window=0.05),
        )
        assert cert.sigma_window == pytest.approx(0.2)
        assert cert.margins.ok

    def test_structurally_empty_propagates(self):
        from gnsbound.errors import StructurallyEmptyError

        problem = GnsProblem(
            1, 0.0, -1.0, 1.0, LebesgueExponent(1.0), TWO, TWO
        )
        with pytest.raises(StructurallyEmptyError):
            minimize(problem, FAST)

    def test_planar_instance(self):
        problem = GnsProblem(2, 0.0, 1.0, 0.0, LebesgueExponent(0.25), TWO, TWO)
        cert = minimize(problem, FAST)
        assert cert.margins.ok
        assert cert.theta.value == pytest.approx(0.5)


class TestSerialization:
    def test_round_trip(self, agmon_problem):
        cert = minimize(agmon_problem, FAST)
        doc = json.loads(certificate_json(cert))
        # a version 0.1.0 file also carried the alt_form_agrees flag
        old_doc = {**doc, "artifact_version": "0.1.0", "alt_form_agrees": True}
        for stored in (doc, old_doc):
            assert certificate_from_dict(stored) == cert

    def test_stored_verdicts_are_not_trusted(self, agmon_problem):
        doc = json.loads(certificate_json(minimize(agmon_problem, FAST)))
        infeasible = {
            **doc, "beta1": 0.1, "sigma": -5.0, "value": 1e9,
            "margins_ok": True, "theta": 0.2,
        }
        with pytest.raises(InfeasibleError):
            certificate_from_dict(infeasible)
        with pytest.raises(InfeasibleError):
            certificate_from_dict({**doc, "value": doc["value"] * (1.0 + 1e-8)})
        # the stored theta, orientation and margins are recomputed, not read
        edited = {**doc, "theta": 0.2, "relabeled": False, "margins_ok": False}
        assert certificate_from_dict(edited) == certificate_from_dict(doc)

    def test_flat_keys_and_decimal_strings(self, agmon_problem):
        cert = minimize(agmon_problem, FAST)
        doc = certificate_to_dict(cert)
        assert doc["artifact_version"]
        assert isinstance(doc["p_recip"], str)
        assert float(doc["p_recip"]) == cert.problem.p.recip
        assert not any(isinstance(v, dict) for v in doc.values())
        assert doc["objective_form"] == "equalized-two-term"
