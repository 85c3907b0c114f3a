import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gnsbound.errors import EmptyFeasibleError, InadmissibleError, InfeasibleError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta, validate
from gnsbound.feasible import SigmaPoint, in_sigma, sample_sigma, sigma_lower_bound
from gnsbound.optimizer import (
    CORNER_THETA_MIN,
    PENALTY,
    OptimizerConfig,
    _corner_is_optimal,
    _corner_search,
    _log_objective_at,
    _parts_at,
    _penalized_log_objective,
    _point_from_z,
    _run_pass,
    _widened_search,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,
    equalizing_t0,
    minimize,
    objective,
    two_term_bound,
)

TWO = LebesgueExponent(0.5)
INF = LebesgueExponent(0.0)

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
        bad = point._replace(sigma=point.sigma * 1e-9)
        with pytest.raises(InfeasibleError):
            objective(fractional_problem, bad)

    def test_blowup_as_beta2_approaches_weight(self, fractional_problem):
        # push beta2 toward the interpolation weight along a feasible family
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        base = sample_sigma(fractional_problem, 1, seed=8)[0]
        values = []
        for gap in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
            probe = base._replace(
                beta2=th * (1.0 - gap),
                q1_recip=(oriented.p.recip - base.beta1 * base.r1_recip) / (1.0 - base.beta1),
                q2_recip=(oriented.p.recip - (1.0 - th * (1.0 - gap)) * base.r2_recip)
                / (th * (1.0 - gap)),
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
        point = sample_sigma(fractional_problem, 1, seed=14)[0]
        t0 = equalizing_t0(fractional_problem, point)
        oriented, _ = fractional_problem.oriented()
        th = theta(oriented).value
        log_small, log_large, a, b = _parts_at(oriented, th, point)

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
        _, _, a, b = _parts_at(oriented, th, point)
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

    def log_a(out_recip, inp, order):
        return math.log(a_par(ParabolicParams(LebesgueExponent(out_recip), inp, order, d)))

    log_small = point.beta2 * log_a(point.q2_recip, oriented.p1, order1) + (
        1.0 - point.beta2
    ) * log_a(point.r2_recip, oriented.p2, order2)
    log_large = point.beta1 * log_a(point.r1_recip, oriented.p1, order1) + (
        1.0 - point.beta1
    ) * log_a(point.q1_recip, oriented.p2, order2)
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
            assert got == _log_objective_at(oriented, th, point)
            assert got == _log_objective_via_a_par(oriented, th, point)


class TestMinimize:
    def test_reference_values_unchanged(self, agmon_problem, fractional_problem):
        # certificate values and witnesses at FAST from version 0.3.0, all on
        # the corner route; a change that keeps the bound must reproduce them
        # to the last bit (problem, (value, beta1, beta2, sigma))
        corner = (0.9999999999999929, 1.1102230246251565e-16)
        expected = [
            (agmon_problem, (3.2045178765088833, *corner, 0.5)),
            (fractional_problem, (2.3588270393349453, *corner, 0.25)),
            (
                GnsProblem(3, 1.0, 2.0, 0.0, TWO, TWO, TWO),
                (30.277590264242146, *corner, 1.5000000000000002),
            ),
        ]
        for problem, want in expected:
            cert = minimize(problem, FAST)
            assert cert.route == "corner"
            assert (cert.value, cert.point.beta1, cert.point.beta2, cert.point.sigma) == want

    def test_corner_infeasible_problem_keeps_the_multistart(self):
        # p2 = inf > p: r2 -> p cannot pair with p2 at order >= 0, so no
        # corner point is feasible; the certificate is the 0.2.0 one
        problem = GnsProblem(
            2, 0.0, 1.0, 0.0, LebesgueExponent.parse("3"), LebesgueExponent(1.0), INF
        )
        oriented, _ = problem.oriented()
        lb = sigma_lower_bound(oriented)
        assert _corner_search(oriented, theta(oriented).value, lb, 40.0) is None
        cert = minimize(problem)
        assert cert.route == "multistart"
        assert cert.value == 3.69729802092843
        assert cert.point == (
            0.9999999999972935, 0.33333333511623553, 0.3333333333342355, 0.0,
            0.0, 0.9999999946512934, 0.49999999999999994,
        )
        assert cert.sigma_window == 10.0

    def test_corner_loses_outside_the_proven_class(self):
        # p = 4, p1 = p2 = 1: the output exponents are not forced to p, and
        # interior betas beat the corner by 1.7%
        problem = GnsProblem(
            2, 0.0, 2.0, 0.5, LebesgueExponent.parse("4"), LebesgueExponent(1.0),
            LebesgueExponent(1.0),
        )
        oriented, _ = problem.oriented()
        th = theta(oriented).value
        corner = _corner_search(oriented, th, sigma_lower_bound(oriented), FAST.sigma_window)
        assert corner is not None and not _corner_is_optimal(oriented, th)
        cert = minimize(problem, FAST)
        assert cert.route == "multistart"
        assert cert.value < math.exp(corner[0]) * (1.0 - 1e-2)

    @pytest.mark.parametrize("index", [0, 2, 5, 6])
    def test_corner_route_evaluation_budget(self, index, monkeypatch):
        # the benchmark problems in the class where the corner is optimal
        # (p = inf, or p = p1 = p2) never run the multistart
        from gnsbound import optimizer

        calls = []
        original = optimizer._penalized_at

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(optimizer, "_penalized_at", counting)
        cert = minimize(CERTIFY_PROBLEMS[index])
        assert cert.route == "corner"
        assert len(calls) <= 2000

    @given(
        d=st.sampled_from([1, 2, 3]),
        orders=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=3, max_size=3),
        exps=st.lists(st.sampled_from(["1", "2", "4", "inf"]), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_corner_route_never_loses_to_the_multistart(self, d, orders, exps):
        problem = GnsProblem(d, *orders, *(LebesgueExponent.parse(e) for e in exps))
        assume(validate(problem).admissible)
        try:
            cert = minimize(problem, FAST)
        except EmptyFeasibleError:
            return
        if cert.route == "corner":
            oriented, _ = problem.oriented()
            multistart = partial(_run_pass, problem, oriented, theta(oriented).value, FAST)
            found = _widened_search(multistart, sigma_lower_bound(oriented), FAST.sigma_window)
            assert found is not None
            assert cert.value <= objective(problem, found[1]) * (1.0 + 1e-12)

    def test_corner_minimizes_the_weight_term_exactly_in_its_theta_range(self):
        # the lemma behind _corner_is_optimal, on a grid of (x, y) in the box
        def weight_term(x, y):
            return -(y * math.log(x) + x * math.log(y)) / (x + y)

        grid = [i / 64.0 for i in range(1, 65)]
        for th in [i / 100.0 for i in range(1, 100)]:
            at_corner = weight_term(th, 1.0 - th)
            best = min(weight_term(th * a, (1.0 - th) * b) for a in grid for b in grid)
            inside = CORNER_THETA_MIN <= th <= 1.0 - CORNER_THETA_MIN
            assert (best >= at_corner - 1e-15) == inside

    def test_saturated_logistic_decodes_to_none(self, agmon_problem):
        # expit(40) rounds to 1.0, so beta1 = 1 and the convexity condition
        # for q1 cannot be solved
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
            for recip in (point.r1_recip, point.q1_recip, point.r2_recip, point.q2_recip):
                assert recip == pytest.approx(0.5, abs=1e-12)
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

    def test_widened_search_keeps_the_better_window(self):
        # searched again at 4x when nothing is found or the best sigma is
        # within 1% of the upper edge; the wide result replaces the narrow one
        # only when it scores strictly lower
        def at(sigma):
            return SigmaPoint(0.9, 0.1, 0.0, 0.0, 0.0, 0.0, sigma)

        inner, edge, wide = (1.0, at(5.0)), (1.0, at(9.95)), (0.5, at(30.0))
        cases = [
            ({10.0: inner}, (*inner, 10.0)),  # not widened: a 40 lookup would fail
            ({10.0: edge, 40.0: wide}, (*wide, 40.0)),
            ({10.0: edge, 40.0: (2.0, at(30.0))}, (*edge, 10.0)),
            ({10.0: edge, 40.0: None}, (*edge, 10.0)),
            ({10.0: None, 40.0: wide}, (*wide, 40.0)),
            ({10.0: None, 40.0: None}, None),
        ]
        for results, want in cases:
            assert _widened_search(results.__getitem__, 0.0, 10.0) == want

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
        assert doc["route"] == "corner"
        # a version 0.1.0 file also carried the alt_form_agrees flag
        old_doc = {**doc, "artifact_version": "0.1.0", "alt_form_agrees": True}
        for stored in (doc, old_doc):
            assert certificate_from_dict(stored) == cert
        # files before 0.3.0 have no route; only the multistart wrote them
        pre_route = {k: v for k, v in doc.items() if k != "route"}
        loaded = certificate_from_dict({**pre_route, "artifact_version": "0.2.0"})
        assert loaded.route == "multistart" and loaded.point == cert.point
        with pytest.raises(ValueError):
            certificate_from_dict({**doc, "route": "guess"})

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
