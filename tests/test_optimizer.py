import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsbound.errors import DomainError, EmptyFeasibleError, InadmissibleError, InfeasibleError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta, validate
from gnsbound.feasible import (
    decode_candidate,
    in_sigma,
    margins_ok,
    sample_sigma,
    sigma_lower_bound,
)
from gnsbound.optimizer import (
    CORNER_THETA_MIN,
    PENALTY,
    _corner_is_optimal,
    _corner_search,
    _kink_sigmas,
    _log_objective_at,
    _orders_agree,
    _parts_at,
    _penalized_at,
    _separable_search,
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

# The admissible problems with d in {1, 2, 3}, orders in {0, 1/2, 1, 3/2, 2}
# and exponents in {1, 2, 4, inf}: drawn from directly rather than filtered,
# since about three in four of these tuples are inadmissible.
SMALL_ADMISSIBLE = [
    problem
    for d in (1, 2, 3)
    for orders in itertools.product([0.0, 0.5, 1.0, 1.5, 2.0], repeat=3)
    for exps in itertools.product(["1", "2", "4", "inf"], repeat=3)
    for problem in [GnsProblem(d, *orders, *(LebesgueExponent.parse(e) for e in exps))]
    if validate(problem).admissible
]

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
    """The objective from ParabolicParams(...).log_value, one dataclass per constant."""
    from gnsbound.parabolic import ParabolicParams

    order1 = oriented.s + 2.0 * point.sigma - oriented.s1
    order2 = oriented.s + 2.0 * point.sigma - oriented.s2
    d = oriented.d

    def log_a(out_recip, inp, order):
        return ParabolicParams(LebesgueExponent(out_recip), inp, order, d).log_value

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
        u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        offset=st.floats(1e-6, 12.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_descent_objective_matches_object_path(self, index, u, offset):
        # the search scores decoded candidates on plain floats; wherever the
        # candidate is a member it must return the object path's value bit for
        # bit, and the penalty everywhere else
        problem = CERTIFY_PROBLEMS[index]
        oriented, _ = problem.oriented()
        th = theta(oriented).value
        sigma = sigma_lower_bound(oriented) + offset
        point = decode_candidate(oriented, th + (1.0 - th) * u[0], th * u[1], sigma, u[2], u[3])
        got = _penalized_at(oriented, th, point)
        if point is None or not in_sigma(problem, point).ok:
            assert got == PENALTY
        else:
            assert got == _log_objective_at(oriented, th, point)
            assert got == _log_objective_via_a_par(oriented, th, point)


class TestMinimize:
    def test_reference_values_unchanged(self):
        # the seven benchmark certificates, all on the corner route; a change
        # that keeps the bound must reproduce them to the last bit: (value,
        # beta1, beta2, sigma) per CERTIFY_PROBLEMS entry.  The d = 3 kink
        # sits at sigma = 1.5 exactly; it was once certified one float above,
        # where the exact shifted orders are past the jump
        corner = (0.9999999999999929, 1.1102230246251565e-16)
        expected = [
            (3.2045178765088833, *corner, 0.5),  # agmon
            (2.3588270393349453, *corner, 0.25),  # fractional
            (3.2045178765088833, *corner, 0.5),  # agmon_swapped
            (3.3435610100621673, *corner, 0.5),  # d2_s0
            (1.8930574102210858, *corner, 0.5),  # d2_half
            (30.277590264242157, *corner, 1.5),  # d3_s1
            (0.9608713661238738, *corner, 1.0),  # d3_sup
        ]
        for problem, want in zip(CERTIFY_PROBLEMS, expected, strict=True):
            cert = minimize(problem)
            assert cert.route == "corner"
            assert (cert.value, cert.point.beta1, cert.point.beta2, cert.point.sigma) == want

    def test_high_orders_certify(self):
        # single smoothing constants leave float range long before the bound
        # does; both routes and the certificate add their logs, so these certify
        cert = minimize(GnsProblem(1, 0.0, 400.0, 0.0, INF, TWO, TWO))
        assert cert.margins.ok and 1e61 < cert.value < 1e62
        assert minimize(GnsProblem(2, 0.0, 300.0, 0.0, INF, TWO, TWO)).value < 3.5e47
        # a bound past float range is reported as such, not as an exhausted search
        with pytest.raises(DomainError, match="not a positive normal float"):
            minimize(GnsProblem(1, 0.0, 5000.0, 0.0, INF, TWO, TWO))

    def test_corner_infeasible_problem_keeps_the_multistart(self):
        # p2 = inf > p: r2 -> p cannot pair with p2 at order >= 0, so no
        # corner point is feasible; the separable search replaces the 0.2.0
        # multistart, whose certificate was 3.69729802092843
        problem = GnsProblem(
            2, 0.0, 1.0, 0.0, LebesgueExponent.parse("3"), LebesgueExponent(1.0), INF
        )
        oriented, _ = problem.oriented()
        lb = sigma_lower_bound(oriented)
        assert _corner_search(oriented, theta(oriented).value, lb, 40.0) is None
        cert = minimize(problem)
        assert cert.route == "separable"
        assert cert.value == 3.6972980083113267
        assert cert.point == (
            0.9999999999999929, 0.33333333379899466, 0.3333333333333357, 0.0,
            0.0, 0.999999998603016, 0.5,
        )
        assert cert.sigma_window == 10.0

    def test_corner_loses_outside_the_proven_class(self):
        # p = 4, p1 = p2 = 1: the output exponents are not forced to p, and
        # interior betas at sigma = 1/4 beat the corner, at sigma = 1, by 2.8%
        problem = GnsProblem(
            2, 0.0, 2.0, 0.5, LebesgueExponent.parse("4"), LebesgueExponent(1.0),
            LebesgueExponent(1.0),
        )
        oriented, _ = problem.oriented()
        th = theta(oriented).value
        corner = _corner_search(oriented, th, sigma_lower_bound(oriented), 10.0)
        assert corner is not None and not _corner_is_optimal(oriented, th)
        cert = minimize(problem)
        assert cert.route == "separable"
        assert cert.value < math.exp(corner[0]) * (1.0 - 1e-2)
        assert cert.value < 1.2127 and cert.point.sigma == 0.25

    @pytest.mark.parametrize(
        "args, value, separable",
        [
            # theta = 5/8 and p1 != p2: the separable search finds no point
            ((2, 1.0, 2.5, 0.5, "3", "3/2", "3"), 4.914514080525702, None),
            # theta = 1/3 and p1 != p2: the separable search stops at 17.347
            ((1, 0.0, 1 / 3, 1 / 3, "3", "2", "1"), 1.8513092233593609, 17.34732418603983),
        ],
    )
    def test_corner_wins_outside_the_proven_class(self, args, value, separable):
        # why the corner search runs even where _corner_is_optimal fails
        problem = GnsProblem(*args[:4], *(LebesgueExponent.parse(e) for e in args[4:]))
        oriented, _ = problem.oriented()
        th = theta(oriented).value
        assert not _corner_is_optimal(oriented, th)
        cert = minimize(problem)
        assert (cert.route, cert.value) == ("corner", value)
        found = _separable_search(oriented, th, sigma_lower_bound(oriented), 10.0)
        if separable is None:
            assert found is None
        else:
            assert math.exp(found[0]) == pytest.approx(separable, rel=1e-12)

    @pytest.mark.parametrize("index", [0, 2, 5, 6])
    def test_corner_route_evaluation_budget(self, index, monkeypatch):
        # the benchmark problems in the class where the corner is optimal
        # (p = inf, or p = p1 = p2) never run the separable search
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

    @pytest.mark.parametrize("index", [1, 3, 4])
    def test_separable_route_evaluation_budget(self, index, monkeypatch):
        # fractional, d2_s0 and d2_half, which verify's set-up certifies, run
        # both searches; the corner still wins on each
        from gnsbound import optimizer

        calls = []
        original = optimizer._log_a_par

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(optimizer, "_log_a_par", counting)
        cert = minimize(CERTIFY_PROBLEMS[index])
        assert cert.route == "corner"
        assert len(calls) <= 30_000

    @given(problem=st.sampled_from(SMALL_ADMISSIBLE))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_corner_route_never_loses_to_the_multistart(self, problem):
        # the corner is kept only where the separable search does not beat it
        try:
            cert = minimize(problem)
        except EmptyFeasibleError:
            return
        if cert.route == "corner":
            oriented, _ = problem.oriented()
            lb = sigma_lower_bound(oriented)
            found = _separable_search(oriented, theta(oriented).value, lb, 10.0)
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

    def test_kinks_are_the_last_floats_below_the_jump(self):
        # every kink is the largest float sigma whose shifted order is at most
        # its even integer 2k both exactly and as _parts_at rounds it, and
        # where both orders have the same sign and evenness in the two
        orders = [0.0, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0, 2.5]

        def regime(x):
            return (x > 0) - (x < 0), x >= 0 and x == 2 * math.floor(x / 2)

        def below(s, s_j, k, sigma):
            for s_i in (s1, s2):
                exact = Fraction(s) + 2 * Fraction(sigma) - Fraction(s_i)
                rounded = s + 2.0 * sigma - s_i
                if regime(exact) != regime(rounded):
                    return False
                if s_i == s_j and not (exact <= 2 * k and rounded <= 2 * k):
                    return False
            return True

        lb, window = 0.25, 4.0
        for s, s1, s2 in itertools.product(orders, repeat=3):
            problem = GnsProblem(1, s, s1, s2, TWO, TWO, TWO)
            kinks = _kink_sigmas(problem, lb, window)
            want = set()
            for s_j in (s1, s2):
                for k in range(8):
                    exact = (2 * k + Fraction(s_j) - Fraction(s)) / 2
                    if lb < exact <= lb + window:
                        sigma = math.nextafter(float(exact), math.inf)
                        while not below(s, s_j, k, sigma):
                            sigma = math.nextafter(sigma, -math.inf)
                        want.add(sigma)
                        assert not below(s, s_j, k, math.nextafter(sigma, math.inf))
            assert kinks == sorted(want), (s, s1, s2)

    def test_agmon_certificate(self, agmon_problem):
        cert = minimize(agmon_problem)
        assert cert.margins.ok
        assert cert.value >= 1.0  # cannot beat the known sharp constant
        assert cert.theta.value == pytest.approx(0.5)
        assert cert.relabeled

    def test_certificate_self_consistency(self, fractional_problem):
        cert = minimize(fractional_problem)
        assert objective(fractional_problem, cert.point) == pytest.approx(
            cert.value, rel=1e-12
        )

    def test_certificate_dominated_by_samples(self, fractional_problem):
        cert = minimize(fractional_problem)
        for seed in range(8):
            for point in sample_sigma(fractional_problem, 16, seed=seed):
                assert cert.value <= objective(fractional_problem, point) + 1e-9

    def test_determinism(self, fractional_problem):
        a = minimize(fractional_problem)
        b = minimize(fractional_problem)
        assert certificate_json(a) == certificate_json(b)

    def test_inadmissible(self):
        problem = GnsProblem(1, 1.0, 1.0, 0.0, TWO, TWO, TWO)
        with pytest.raises(InadmissibleError):
            minimize(problem)

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
        cert = minimize(problem)
        assert cert.margins.ok
        assert cert.value <= min(objective(problem, pt) for pt in points) + 1e-12

    def test_structurally_empty_propagates(self):
        from gnsbound.errors import StructurallyEmptyError

        problem = GnsProblem(
            1, 0.0, -1.0, 1.0, LebesgueExponent(1.0), TWO, TWO
        )
        with pytest.raises(StructurallyEmptyError):
            minimize(problem)

    def test_planar_instance(self):
        problem = GnsProblem(2, 0.0, 1.0, 0.0, LebesgueExponent(0.25), TWO, TWO)
        cert = minimize(problem)
        assert cert.margins.ok
        assert cert.theta.value == pytest.approx(0.5)


class TestSerialization:
    def test_round_trip(self, agmon_problem):
        cert = minimize(agmon_problem)
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
        # the widening search could record a 4x window
        assert certificate_from_dict({**doc, "sigma_window": 40.0}).sigma_window == 40.0
        with pytest.raises(ValueError):
            certificate_from_dict({**doc, "route": "guess"})

    def test_stored_verdicts_are_not_trusted(self, agmon_problem):
        doc = json.loads(certificate_json(minimize(agmon_problem)))
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

    def test_equality_residual_is_checked_on_load(self):
        # a separable-route witness at an interior beta2, with 1/q2 moved off
        # 1/p = (1-beta2)/r2 + beta2/q2: only the q2 residual fails
        exps = (LebesgueExponent.parse(e) for e in ("3/2", "1", "2"))
        problem = GnsProblem(1, 1.0, 1.0, 2.0, *exps)
        cert = minimize(problem)
        assert cert.route == "separable" and 0.1 < cert.point.beta2 < cert.theta.value - 0.1
        moved = cert.point._replace(q2_recip=cert.point.q2_recip - 1e-9)
        report = in_sigma(problem, moved)
        assert report.margins["q2_consistency"] < 0.0
        others = {k: v for k, v in report.margins.items() if k != "q2_consistency"}
        assert margins_ok(others, report.closed, 0.0)
        doc = {**certificate_to_dict(cert), "q2_recip": repr(moved.q2_recip)}
        with pytest.raises(InfeasibleError, match="outside the feasible set"):
            certificate_from_dict(doc)

    def test_flat_keys_and_decimal_strings(self, agmon_problem):
        cert = minimize(agmon_problem)
        doc = certificate_to_dict(cert)
        assert doc["artifact_version"]
        assert isinstance(doc["p_recip"], str)
        assert float(doc["p_recip"]) == cert.problem.p.recip
        assert not any(isinstance(v, dict) for v in doc.values())
        assert doc["objective_form"] == "equalized-two-term"
