import math

import numpy as np
import pytest

from gnsbound.errors import AccuracyError, DomainError
from gnsbound.exponents import GnsProblem, LebesgueExponent, theta
from gnsbound.optimizer import OptimizerConfig, minimize
from gnsbound.oracle import (
    _KERNEL_PREFACTOR,
    _KERNEL_SERIES,
    _LEVELS,
    _SPLIT_FACTOR,
    _STUB_TERMS,
    RadialTestFunction,
    _freq_rule,
    _profile_zeros,
    _RadialProfile,
    check_gns,
    check_parabolic,
    convolution_ratio,
    default_parabolic_grid,
    fractional_heat_norm,
    frequency_space_l2_norm,
    gaussian_lp_norm,
    gns_ratio,
    heat_l1_deriv_check,
    surface_area,
    young_extremizer_check,
)

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)
FOUR = LebesgueExponent(0.25)


class TestGaussianNorms:
    def test_closed_forms(self):
        assert gaussian_lp_norm(1.0, 1, TWO) == pytest.approx((math.pi / 2) ** 0.25)
        assert gaussian_lp_norm(0.7, 2, ONE) == pytest.approx(math.pi / 0.7)
        assert gaussian_lp_norm(3.0, 3, INF) == 1.0

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
    return minimize(problem, OptimizerConfig(starts=8, sample_per_start=16, seed=42))


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
        # the same signed profile has one positive zero, r = 1/sqrt(2a'); far
        # out, where |h| < 4e-16 against h(0) = 0.56, the computed profile
        # flips sign by roundoff alone, and those flips are no zeros
        a, t, s = 0.7, 0.3, 2.0
        ap = a / (1 + 4 * a * t)
        b = t + 0.25 / a
        r_split = _SPLIT_FACTOR * math.sqrt(b)
        scale, order = _LEVELS[level]
        profile = _RadialProfile(RadialTestFunction(a, 1), s, t, r_split, scale=scale, order=order)
        zeros = _profile_zeros(profile, r_split)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx((2 * ap) ** -0.5, rel=1e-9)

    def test_huge_exponent_no_overflow(self):
        value = fractional_heat_norm(RadialTestFunction(0.8, 1), 0.5, 0.2, LebesgueExponent(0.001))
        assert math.isfinite(value) and value > 0


def _stub_double_loop(d, s, b, eps, cf, r):
    """The stub series summed term by term, as the oracle once did per call."""
    kernel = _KERNEL_SERIES[d]
    exp_coeff = [(-b) ** i / math.factorial(i) for i in range(_STUB_TERMS + 1)]
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
    return cf * total


class TestStubPolynomial:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [-0.25, 0.5, 2.0, 3.5])
    @pytest.mark.parametrize("level", sorted(_LEVELS))
    def test_matches_term_by_term_series(self, d, s, level):
        f, t = RadialTestFunction(1.3, d), 0.1
        scale, order = _LEVELS[level]
        b = t + 0.25 / f.width
        r_split = _SPLIT_FACTOR * math.sqrt(b)
        profile = _RadialProfile(f, s, t, r_split, scale=scale, order=order)
        eps = _freq_rule(b, r_split, scale, order)[0]
        r = np.linspace(0.0, r_split, 257)
        want = _stub_double_loop(d, s, b, eps, profile.cf, r)
        got = np.polynomial.polynomial.polyval(r * r, profile.stub)
        peak = float(np.abs(profile(r)).max())
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
        scale, order = _LEVELS[level]
        for t in (0.0, 0.1, 10.0):
            for width in (0.5, 2.0):
                f = RadialTestFunction(width, d)
                r_split = _SPLIT_FACTOR * math.sqrt(t + 0.25 / width)
                profile = _RadialProfile(f, s, t, r_split, scale=scale, order=order)
                scan = np.abs(profile(np.linspace(0.0, r_split, _SUP_GRID[level])))
                at_origin = abs(float(profile(np.zeros(1))[0]))
                assert scan.max() <= at_origin * (1.0 + 1e-14), (t, width)
