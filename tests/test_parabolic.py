import math

import pytest
from scipy.integrate import quad

from gnsbound.errors import DomainError, InvalidRegimeError, TripleMismatchError
from gnsbound.exponents import LebesgueExponent
from gnsbound.parabolic import (
    ParabolicParams,
    _log_a_par,
    a_par,
    bound_at_time,
)
from lemmas import heat_kernel_norm, young_constant

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)
FOUR = LebesgueExponent(0.25)
FOUR_THIRDS = LebesgueExponent.parse("4/3")


class TestYoungConstant:
    def test_endpoint_branches(self):
        assert young_constant(TWO, TWO, ONE, 3) == 1.0
        assert young_constant(INF, TWO, TWO, 2) == 1.0

    def test_interior_value(self):
        # closed form reduces to 2/3^(3/4) for this triple on the line
        value = young_constant(TWO, FOUR_THIRDS, FOUR_THIRDS, 1)
        assert value == pytest.approx(2.0 / 3.0**0.75, rel=1e-14)
        assert value == pytest.approx(0.87738, abs=5e-6)

    def test_triple_mismatch(self):
        with pytest.raises(TripleMismatchError):
            young_constant(TWO, TWO, TWO, 1)


class TestHeatKernelNorm:
    def test_mass(self):
        for t in (0.1, 1.0, 10.0):
            for d in (1, 2, 3):
                assert heat_kernel_norm(t, ONE, d) == 1.0

    def test_sup(self):
        for t in (0.5, 2.0):
            for d in (1, 2, 3):
                want = (4.0 * math.pi * t) ** (-0.5 * d)
                assert heat_kernel_norm(t, INF, d) == pytest.approx(want, rel=1e-14)

    def test_l2_against_quadrature(self):
        t, d = 1.0, 1
        sq, _ = quad(
            lambda x: ((4 * math.pi * t) ** -0.5 * math.exp(-x * x / (4 * t))) ** 2,
            -60.0,
            60.0,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        assert heat_kernel_norm(t, TWO, d) == pytest.approx(math.sqrt(sq), rel=1e-12)
        assert heat_kernel_norm(1.0, TWO, 1) == pytest.approx(
            (8.0 * math.pi) ** -0.25, rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_kernel_norm(0.0, TWO, 1)


class TestAParRegimes:
    def test_contraction(self):
        for p in (ONE, TWO, INF):
            for d in (1, 2, 3):
                assert abs(a_par(ParabolicParams(p, p, 0.0, d)) - 1.0) <= 1e-12

    def test_integer_order_diagonal(self):
        for p in (ONE, TWO, INF):
            for d in (1, 2, 3):
                assert abs(a_par(ParabolicParams(p, p, 2.0, d)) - d) <= 1e-12 * d

    def test_matches_kernel_norm_at_zero_order(self):
        # zero order, differing exponents: the constant is exactly the
        # kernel-norm prefactor at unit time
        value = a_par(ParabolicParams(TWO, ONE, 0.0, 1))
        assert value == pytest.approx((8.0 * math.pi) ** -0.25, rel=1e-14)
        assert value == pytest.approx(heat_kernel_norm(1.0, TWO, 1), rel=1e-14)

    def test_negative_order_value(self):
        value = a_par(ParabolicParams(INF, TWO, -0.5, 2))
        want = (
            (4.0 * math.pi) ** -0.5
            * 2.0**-0.5
            * math.gamma(0.25)
            / math.gamma(0.5)
        )
        assert value == pytest.approx(want, rel=1e-13)

    def test_invalid_regimes(self):
        # each case is rejected alike by the dataclass and the float kernel
        cases = [
            (INF, TWO, -1.0, 2),  # endpoint of the negative range
            (FOUR, ONE, -2.25, 3),  # endpoint again: -s = d*(1/r - 1/p) exactly
            (ONE, TWO, 1.0, 2),  # input exponent above output
            (LebesgueExponent(2e-12), INF, 0.0, 1),  # above output beyond the snap
            (ONE, ONE, -0.5, 2),  # negative order needs a gap
        ]
        for p, r, s, d in cases:
            with pytest.raises(InvalidRegimeError):
                ParabolicParams(p, r, s, d)
            with pytest.raises(InvalidRegimeError):
                _log_a_par(p.recip, r.recip, s, d)

    def test_continuity_splice(self):
        # fractional branch approaches the even-integer branch from below
        for m in (1, 2):
            for d in (1, 2, 3):
                at_integer = a_par(ParabolicParams(TWO, ONE, 2.0 * m, d))
                just_below = a_par(ParabolicParams(TWO, ONE, 2.0 * m - 1e-6, d))
                assert 0.99 <= just_below / at_integer <= 1.01

    def test_sobolev_blowup_monotone(self):
        near = a_par(ParabolicParams(TWO, ONE, -(0.5 - 1e-3), 1))
        far = a_par(ParabolicParams(TWO, ONE, -(0.5 - 1e-1), 1))
        assert near > far

    def test_diagonal_consistency_of_branches(self):
        # the off-diagonal formula at r = p collapses to the diagonal one:
        # the partner exponent becomes 1, the gap vanishes, and the
        # power-product minimum is 1, leaving only the Gamma ratio
        # an input reciprocal BOUNDARY_SNAP = 1e-12 below the output one is
        # snapped onto the diagonal, by the dataclass and the float kernel
        snapped = LebesgueExponent(1e-12)
        for p, r in ((TWO, TWO), (snapped, INF)):
            for s in (0.0, 2.0, 4.0):
                for d in (1, 2, 3):
                    params = ParabolicParams(p, r, s, d)
                    got = a_par(params)
                    want = math.exp(
                        math.lgamma(0.5 * (d + s))
                        - math.lgamma(0.5 * d)
                        + 0.5 * s * math.log(2.0)
                    )
                    assert got == pytest.approx(want, rel=1e-14)
                    assert params.r == p
                    assert got == math.exp(_log_a_par(p.recip, r.recip, s, d))
                    assert got == a_par(ParabolicParams(p, p, s, d))

    @staticmethod
    def _halfline_power_integral(a: float, b: float) -> float:
        """int_0^inf tau^-a (1+tau)^-b dtau, split at 1 with tau -> 1/tau."""
        head, _ = quad(
            lambda tau: tau**-a * (1 + tau) ** -b, 0, 1, epsabs=1e-14, epsrel=1e-13
        )
        tail, _ = quad(
            lambda u: u ** (a + b - 2.0) * (1 + u) ** -b,
            0,
            1,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        return head + tail

    def test_fractional_branch_against_time_integral(self):
        # the fractional reduction pays the factor
        # Gamma(s/2 + D) / Gamma(floor(s/2) + 1 + D), which equals
        # (1/Gamma(1 - {s/2})) * int tau^{-{s/2}} (1+tau)^{-floor(s/2)-1-D}
        # by the Beta identity; verify the composition by quadrature
        for s in (0.5, 1.0, 2.7, 3.5):
            for p, r, d in ((TWO, ONE, 1), (INF, TWO, 2), (TWO, TWO, 3)):
                params = ParabolicParams(p, r, s, d)
                gap = params.gap
                frac = s / 2 - math.floor(s / 2)
                even = a_par(ParabolicParams(p, r, 2.0 * math.floor(s / 2) + 2.0, d))
                integral = self._halfline_power_integral(
                    frac, math.floor(s / 2) + 1.0 + gap
                )
                want = even * integral / math.gamma(1.0 - frac)
                assert a_par(params) == pytest.approx(want, rel=1e-9)

    def test_negative_branch_against_time_integral(self):
        # negative orders come from the Gamma-weighted time integral of the
        # zero-order bound: with sigma = -s/2 the ratio Gamma(D + s/2)/Gamma(D)
        # equals (1/Gamma(sigma)) * int tau^{sigma-1} (1+tau)^{-D} dtau
        for s in (-0.3, -0.5):
            params = ParabolicParams(INF, TWO, s, 2)
            gap = params.gap
            zero_order = a_par(ParabolicParams(INF, TWO, 0.0, 2))
            sigma = -0.5 * s
            integral = self._halfline_power_integral(1.0 - sigma, gap)
            want = zero_order * integral / math.gamma(sigma)
            assert a_par(params) == pytest.approx(want, rel=1e-9)


class TestBoundAtTime:
    def test_diagonal(self):
        assert bound_at_time(ParabolicParams(TWO, TWO, 0.0, 2), 7.0) == pytest.approx(
            1.0, rel=1e-14
        )
        assert bound_at_time(ParabolicParams(TWO, TWO, 2.0, 3), 2.0) == pytest.approx(
            1.5, rel=1e-13
        )

    def test_time_power(self):
        params = ParabolicParams(TWO, ONE, 0.0, 1)
        want = a_par(params) * 4.0 ** -params.gap
        assert bound_at_time(params, 4.0) == pytest.approx(want, rel=1e-14)
        assert bound_at_time(params, 4.0) == pytest.approx(
            0.44662 * 4.0**-0.25, abs=5e-6
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_at_time(ParabolicParams(TWO, TWO, 0.0, 1), 0.0)
