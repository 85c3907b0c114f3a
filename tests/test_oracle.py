import math

import numpy as np
import pytest

from gnsbound import oracle
from gnsbound.errors import AccuracyError, DomainError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta
from gnsbound.optimizer import minimize
from gnsbound.oracle import (
    _KERNEL_PREFACTOR,
    _KERNEL_SERIES,
    _LEVELS,
    _SPLIT_FACTOR,
    _STUB_TERMS,
    RadialTestFunction,
    _freq_rule,
    _kernel_matrix,
    _leggauss,
    _profile_zeros,
    _radial_rule,
    _RadialProfile,
    check_gns,
    check_parabolic,
    default_parabolic_grid,
    fractional_heat_norm,
    frequency_space_l2_norm,
    gaussian_lp_norm,
    gns_ratio,
    surface_area,
    unit_heat_norm,
)
from lemmas import convolution_ratio, heat_l1_deriv_check, young_extremizer_check

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)
FOUR = LebesgueExponent(0.25)


class TestGaussianNorms:
    def test_closed_forms(self):
        assert gaussian_lp_norm(1.0, 1, TWO) == pytest.approx((math.pi / 2) ** 0.25)
        assert gaussian_lp_norm(0.7, 2, ONE) == pytest.approx(math.pi / 0.7)
        assert gaussian_lp_norm(3.0, 3, INF) == 1.0

    @pytest.mark.parametrize("width", [1e215, 1e217, 1e-310])
    def test_outside_normal_float_range_is_an_accuracy_error(self, width):
        # subnormal, zero and overflowing closed forms are not norms
        with pytest.raises(AccuracyError):
            gaussian_lp_norm(width, 3, ONE)

    def test_surface_area(self):
        assert surface_area(1) == pytest.approx(2.0)
        assert surface_area(2) == pytest.approx(2 * math.pi)
        assert surface_area(3) == pytest.approx(4 * math.pi)


class TestFractionalHeatNorm:
    def test_plain_l2(self):
        f = RadialTestFunction(1.0, 1)
        assert fractional_heat_norm(f, 0.0, 0.0, TWO) == pytest.approx(
            (math.pi / 2) ** 0.25, rel=1e-10
        )

    def test_mass_conservation(self):
        # positive function: the integral is preserved by the flow
        for d in (1, 2, 3):
            f = RadialTestFunction(0.7, d)
            want = (math.pi / 0.7) ** (0.5 * d)
            for t in (0.0, 0.5, 3.0):
                got = fractional_heat_norm(f, 0.0, t, ONE)
                assert got == pytest.approx(want, rel=1e-8)

    def test_gaussian_closure_under_flow(self):
        # the flow of a Gaussian is again a Gaussian with shifted width
        a, t = 1.3, 0.8
        for d in (1, 2, 3):
            f = RadialTestFunction(a, d)
            scale = (1 + 4 * a * t) ** (-0.5 * d)
            width = a / (1 + 4 * a * t)
            for p in (ONE, TWO, FOUR, INF):
                want = scale * gaussian_lp_norm(width, d, p)
                got = fractional_heat_norm(f, 0.0, t, p)
                assert got == pytest.approx(want, rel=1e-8)

    def test_plancherel(self):
        for d in (1, 2, 3):
            for s in (0.0, 0.5, 1.0, 2.0, 3.5, -0.25):
                if 2 * s + d <= 0:
                    continue
                f = RadialTestFunction(0.9, d)
                real_side = fractional_heat_norm(f, s, 0.3, TWO)
                freq_side = frequency_space_l2_norm(f, s, 0.3)
                assert real_side == pytest.approx(freq_side, rel=1e-8)

    def test_second_derivative_value(self):
        f = RadialTestFunction(1.0, 1)
        want = math.sqrt(3.0) * (math.pi / 2) ** 0.25
        assert fractional_heat_norm(f, 2.0, 0.0, TWO) == pytest.approx(want, rel=1e-10)

    def test_sup_norm_of_gaussian(self):
        for d in (1, 2, 3):
            f = RadialTestFunction(1.0, d)
            assert fractional_heat_norm(f, 0.0, 0.0, INF) == pytest.approx(1.0, rel=1e-10)

    def test_domain_guards(self):
        f = RadialTestFunction(1.0, 1)
        with pytest.raises(DomainError):
            fractional_heat_norm(f, -1.0, 0.0, TWO)  # s <= -d
        with pytest.raises(DomainError):
            fractional_heat_norm(f, 0.0, -0.1, TWO)
        with pytest.raises(DomainError):
            fractional_heat_norm(f, -0.25, 1.0, ONE)  # algebraic tail not in L1
        with pytest.raises(DomainError):
            RadialTestFunction(1.0, 4)


class TestParabolicSweep:
    def test_contraction_ratio_near_one_at_small_time(self):
        f = RadialTestFunction(1.0, 1)
        r_small = fractional_heat_norm(f, 0.0, 1e-4, TWO) / gaussian_lp_norm(1.0, 1, TWO)
        r_large = fractional_heat_norm(f, 0.0, 1.0, TWO) / gaussian_lp_norm(1.0, 1, TWO)
        assert r_small <= 1.0 + 1e-9
        assert r_large < r_small
        assert r_small > 0.99

    def test_small_grid_domination(self):
        grid = [case for case in default_parabolic_grid((1, 2)) if case[4] == 1.0]
        report = check_parabolic(grid, (1.0,))
        assert report.ok
        assert report.worst_slack >= -1e-6
        assert not report.violations()

    def test_negative_order_cases_present(self):
        grid = default_parabolic_grid((2,))
        assert any(s == -0.25 for _, s, _, _, _ in grid)
        # diagonal exponent pair cannot host a negative order
        assert not any(
            s < 0 and r.recip == p.recip for _, s, r, p, _ in grid
        )

    def test_negative_order_domination_and_guard(self):
        from gnsbound.errors import InvalidRegimeError
        from gnsbound.parabolic import ParabolicParams, bound_at_time

        params = ParabolicParams(TWO, ONE, -0.5, 2)
        bound = bound_at_time(params, 1.0)
        f = RadialTestFunction(1.0, 2)
        measured = fractional_heat_norm(f, -0.5, 1.0, TWO) / gaussian_lp_norm(1.0, 2, ONE)
        assert measured <= bound * (1 + 1e-6)
        # the order equal to -d*(1/r - 1/p) sits on the divergent boundary
        with pytest.raises(InvalidRegimeError):
            ParabolicParams(TWO, ONE, -1.0, 2)

    def test_csv_roundtrip(self, tmp_path):
        grid = [(1, 0.0, ONE, TWO, 1.0)]
        report = check_parabolic(grid, (1.0,))
        path = tmp_path / "sweep.csv"
        report.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "d,s,r,p,t,width,measured,bound,slack"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[-2]) == report.rows[0][-2]


class TestScaleCovariantRule:
    """Norms are measured on the unit profile, so its tables depend on neither
    b nor s, and the dilation to b is applied in closed form."""

    def test_one_kernel_table_per_node_set(self, monkeypatch):
        seen = []
        evaluate = _RadialProfile._evaluate

        def spy(profile, kernel, y):
            seen.append(kernel)
            return evaluate(profile, kernel, y)

        monkeypatch.setattr(_RadialProfile, "_evaluate", spy)
        for s in (0.5, 2.0):
            _RadialProfile(2, s, "fine").on_nodes("lp")
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_rows_independent_of_cache_state_and_order(self):
        grid, widths = default_parabolic_grid((1,)), [0.7, 1.9]

        def clear():
            for cache in (_leggauss, _freq_rule, _radial_rule, _kernel_matrix):
                cache.cache_clear()

        clear()
        cold = check_parabolic(grid, widths).rows
        warm = check_parabolic(grid, widths).rows
        clear()
        backward = check_parabolic(grid[::-1], widths).rows
        assert cold == warm
        assert len(backward) == len(cold)
        assert {row[:6]: row for row in backward} == {row[:6]: row for row in cold}

    def test_one_measurement_per_unit_norm(self, monkeypatch):
        calls = []
        measure = oracle._norm_at_level

        def spy(d, s, p, level, far):
            calls.append((d, s, p.recip, level))
            return measure(d, s, p, level, far)

        grid, widths = default_parabolic_grid(), (0.5, 1.0, 2.0)
        monkeypatch.setattr(oracle, "_norm_at_level", spy)
        rows = check_parabolic(grid, widths).rows
        monkeypatch.undo()
        keys = {(d, s, p.recip) for d, s, _, p, _ in grid}
        assert len(grid) * len(widths) == 774 and len(keys) == 53
        assert len(calls) == 106
        assert set(calls) == {(*key, level) for key in keys for level in ("coarse", "fine")}
        for d, s, r, p, t, width, measured, _, _ in rows:
            f = RadialTestFunction(width, d)
            assert measured == fractional_heat_norm(f, s, t, p) / gaussian_lp_norm(width, d, r)

    def test_one_far_field_table_per_unit_norm(self, monkeypatch, agmon_cert):
        tables = []
        tabulate = oracle._tail_values

        def spy(coeffs, s, d, y):
            if np.size(y) > 1:
                tables.append((d, s))
            return tabulate(coeffs, s, d, y)

        monkeypatch.setattr(oracle, "_tail_values", spy)
        grid = default_parabolic_grid()
        check_parabolic(grid, (0.5, 1.0, 2.0))
        # one table per (d, s, p) with finite p and a non-smooth multiplier
        keys = {(d, s, p.recip) for d, s, _, p, _ in grid}
        far = [(d, s) for d, s, u in keys if u > 0.0 and not oracle._smooth_multiplier(s)]
        assert len(tables) == len(far) == 23
        assert sorted(tables) == sorted(far)
        tables.clear()
        # Agmon: only ||f'||_2 (s = 1, p = 2) has a far field, one table per row
        check_gns(agmon_cert, widths=(1.0,), dilations=(0.25, 1.0, 4.0))
        assert tables == [(1, 1.0)] * 3

    def test_negative_time_fails_after_its_unit_norm_was_measured(self):
        grid = [(1, 0.5, ONE, TWO, 1.0), (1, 0.5, ONE, TWO, -1.0)]
        with pytest.raises(DomainError):
            check_parabolic(grid, (1.0,))

    def test_unit_norm_accuracy_error_stops_the_sweep_at_its_first_row(self, monkeypatch):
        calls = []
        measure = oracle._norm_at_level

        def disagreeing_at_s2(d, s, p, level, far):
            calls.append((s, level))
            value = measure(d, s, p, level, far)
            return 1.1 * value if s == 2.0 and level == "coarse" else value

        monkeypatch.setattr(oracle, "_norm_at_level", disagreeing_at_s2)
        grid = [(1, 0.5, ONE, TWO, 1.0), (1, 2.0, ONE, TWO, 1.0), (1, 0.5, ONE, TWO, 10.0)]
        with pytest.raises(AccuracyError, match="quadrature levels disagree"):
            check_parabolic(grid, (0.7, 1.9))
        assert calls == [(0.5, "coarse"), (0.5, "fine"), (2.0, "coarse"), (2.0, "fine")]

    def test_time_is_checked_before_the_unit_norm(self, monkeypatch):
        def unreachable(*args):
            raise AccuracyError("the unit norm was measured")

        monkeypatch.setattr(oracle, "_norm_at_level", unreachable)
        with pytest.raises(DomainError, match="time must be nonnegative"):
            fractional_heat_norm(RadialTestFunction(1.0, 1), 0.5, -0.1, TWO)

    def test_unit_norm_domain_guards(self):
        with pytest.raises(DomainError):
            unit_heat_norm(4, 0.0, TWO)
        with pytest.raises(DomainError):
            unit_heat_norm(1, -1.0, TWO)
        with pytest.raises(DomainError):
            unit_heat_norm(1, -0.25, ONE)


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sup_norm_is_the_closed_form_moment(self, d):
        # h(0) = K_d * cf * int rho^(s+d-1) e^(-b rho^2) drho
        #      = K_d * cf * Gamma((s+d)/2) / (2 b^((s+d)/2))
        for s in (-0.25, 0.0, 0.5, 1.0, 2.0, 3.5):
            for width in 10.0 ** np.arange(-5.0, 6.0):
                for t in (0.0, 0.1, 10.0):
                    b = t + 0.25 / width
                    cf = (math.pi / width) ** (0.5 * d)
                    want = _KERNEL_PREFACTOR[d] * cf * math.gamma(0.5 * (s + d)) / (
                        2.0 * b ** (0.5 * (s + d))
                    )
                    got = fractional_heat_norm(RadialTestFunction(width, d), s, t, INF)
                    assert got == pytest.approx(want, rel=1e-12), (s, width, t)

    @pytest.mark.parametrize("problem", ["agmon_problem", "fractional_problem"])
    def test_gns_ratio_survives_extreme_dilations(self, problem, request):
        # widths 4^k far beyond where the b-dependent rule overflowed
        problem = request.getfixturevalue(problem)
        th = theta(problem).value
        unit = gns_ratio(problem, th, 1.0)
        for k in range(-200, 201, 10):
            assert gns_ratio(problem, th, 4.0**k) == pytest.approx(unit, rel=1e-12), k


class TestHeatKernelDerivatives:
    def test_density_case(self):
        measured, bound = heat_l1_deriv_check(0, 2, 1.0)
        assert measured == pytest.approx(1.0, rel=1e-10)
        assert bound == pytest.approx(1.0, rel=1e-12)

    def test_first_derivative_line(self):
        measured, bound = heat_l1_deriv_check(1, 1, 1.0)
        assert bound == pytest.approx(1.0, rel=1e-12)
        assert measured <= bound * (1 + 1e-8)
        # exact value: total variation of the kernel slope
        x_star = math.sqrt(2.0)
        g_prime = (
            x_star / 2.0 * (4 * math.pi) ** -0.5 * math.exp(-x_star * x_star / 4)
        )
        assert measured == pytest.approx(4 * g_prime, rel=1e-9)

    def test_domination_grid(self):
        for n in range(5):
            for d in (1, 2, 3):
                for t in (0.5, 1.0, 2.0):
                    measured, bound = heat_l1_deriv_check(n, d, t)
                    assert measured <= bound * (1 + 1e-8)

    def test_guards(self):
        with pytest.raises(DomainError):
            heat_l1_deriv_check(5, 1, 1.0)
        with pytest.raises(DomainError):
            heat_l1_deriv_check(1, 1, 0.0)


class TestYoungExtremizers:
    def test_line_case(self):
        best, constant = young_extremizer_check(TWO, LebesgueExponent.parse("4/3"), LebesgueExponent.parse("4/3"), 1)
        assert best <= constant * (1 + 1e-6)
        assert best >= constant * (1 - 1e-3)

    def test_plane_case(self):
        p = LebesgueExponent.parse("3")
        qr = LebesgueExponent.parse("3/2")
        best, constant = young_extremizer_check(p, qr, qr, 2)
        assert constant == pytest.approx(0.75, rel=1e-12)
        assert best <= constant * (1 + 1e-6)
        assert best >= constant * (1 - 1e-3)

    def test_endpoint_case(self):
        best, constant = young_extremizer_check(TWO, TWO, ONE, 1)
        assert constant == 1.0
        assert best <= 1.0 + 1e-9

    def test_convolution_ratio_scale_invariance(self):
        q = LebesgueExponent.parse("4/3")
        base = convolution_ratio(1.0, 2.5, TWO, q, q, 1)
        scaled = convolution_ratio(3.0, 7.5, TWO, q, q, 1)
        assert base == pytest.approx(scaled, rel=1e-12)


@pytest.fixture(scope="module")
def agmon_cert():
    problem = GnsProblem(1, 0.0, 1.0, 0.0, INF, TWO, TWO)
    return minimize(problem)


class TestGnsSweep:
    def test_ratio_value(self, agmon_cert):
        # at unit width both denominator norms equal (pi/2)^(1/4), so the
        # measured ratio is (pi/2)^(-1/4)
        ratio = gns_ratio(agmon_cert.problem, agmon_cert.theta.value, 1.0)
        assert ratio == pytest.approx((math.pi / 2) ** -0.25, rel=1e-8)

    def test_domination_and_dilation_invariance(self, agmon_cert):
        report = check_gns(agmon_cert, widths=(1.0,), dilations=(0.25, 1.0, 4.0))
        assert report.ok
        ratios = [row[2] for row in report.rows]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread <= 1e-6

    def test_csv_header(self, agmon_cert, tmp_path):
        report = check_gns(agmon_cert, widths=(1.0,), dilations=(1.0,))
        path = tmp_path / "gns.csv"
        report.to_csv(str(path))
        assert path.read_text().splitlines()[0] == "width,dilation,measured,bound,slack"


class TestAccuracyControl:
    def test_target_rel_enforced(self):
        # an absurdly tight target must trip the two-level disagreement guard
        f = RadialTestFunction(1.0, 1)
        with pytest.raises(AccuracyError):
            fractional_heat_norm(f, 0.5, 0.1, TWO, target_rel=1e-17)

    def test_non_even_exponent_zero_splitting(self):
        # |h|^p has kinks at profile zeros unless p is an even integer;
        # verify a signed profile in L1 against the closed-form evolved
        # Gaussian derivative
        a, t = 0.7, 0.3
        scale = (1 + 4 * a * t) ** -0.5
        ap = a / (1 + 4 * a * t)
        from scipy.integrate import quad

        ref, _ = quad(
            lambda x: abs(scale * (4 * ap * ap * x * x - 2 * ap) * math.exp(-ap * x * x)),
            -50,
            50,
            limit=400,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        got = fractional_heat_norm(RadialTestFunction(a, 1), 2.0, t, ONE)
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("level", sorted(_LEVELS))
    def test_roundoff_sign_flips_are_not_zeros(self, level):
        # the unit profile of s = 2, d = 1 is (2 - y^2) exp(-y^2/4)/(8 sqrt(pi)),
        # with one positive zero at y = sqrt(2); far out, where |H| is below
        # 1e-16 of H(0), the computed profile flips sign by roundoff alone,
        # and those flips are no zeros
        profile = _RadialProfile(1, 2.0, level)
        scout, values = profile.on_nodes("scout")
        assert np.count_nonzero(values[:-1] * values[1:] < 0.0) > 1
        zeros = _profile_zeros(profile)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_huge_exponent_no_overflow(self):
        value = fractional_heat_norm(RadialTestFunction(0.8, 1), 0.5, 0.2, LebesgueExponent(0.001))
        assert math.isfinite(value) and value > 0


def _stub_double_loop(d, s, eps, r):
    """The unit profile's stub series summed term by term, as the oracle once
    did per call."""
    kernel = _KERNEL_SERIES[d]
    exp_coeff = [(-1.0) ** i / math.factorial(i) for i in range(_STUB_TERMS + 1)]
    r2 = r * r
    r2_pow = [np.ones_like(r)]
    for _ in range(_STUB_TERMS):
        r2_pow.append(r2_pow[-1] * r2)
    total = np.zeros_like(r)
    for m in range(_STUB_TERMS + 1):
        gamma_m = np.zeros_like(r)
        for jj in range(m + 1):
            gamma_m += kernel(jj) * r2_pow[jj] * exp_coeff[m - jj]
        total += gamma_m * eps ** (s + d + 2 * m) / (s + d + 2 * m)
    return total


class TestStubPolynomial:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [-0.25, 0.5, 2.0, 3.5])
    @pytest.mark.parametrize("level", sorted(_LEVELS))
    def test_matches_term_by_term_series(self, d, s, level):
        profile = _RadialProfile(d, s, level)
        y = np.linspace(0.0, _SPLIT_FACTOR, 257)
        want = _stub_double_loop(d, s, profile.eps, y)
        got = np.polynomial.polynomial.polyval(y * y, profile.stub)
        peak = float(np.abs(profile(y)).max())
        assert _KERNEL_PREFACTOR[d] * float(np.abs(got - want).max()) <= 1e-14 * peak


# Sizes of the dense radius grid the sup norm was once scanned on.
_SUP_GRID = {"coarse": 1536, "fine": 4096}


class TestSupNormAtOrigin:
    """|h(r)| <= h(0): ghat >= 0 and each reduced kernel is at most its value 1
    at rho*r = 0, so the sup norm needs no search."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [-0.25, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("level", sorted(_LEVELS))
    def test_dense_scan_never_beats_origin(self, d, s, level):
        profile = _RadialProfile(d, s, level)
        scan = np.abs(profile(np.linspace(0.0, _SPLIT_FACTOR, _SUP_GRID[level])))
        at_origin = abs(float(profile(np.zeros(1))[0]))
        assert scan.max() <= at_origin * (1.0 + 1e-14)
