import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnsbound.errors import DomainError
from gnsbound.specialfn import min_product_power
from lemmas import (
    SizeError,
    bell_complete,
    bell_via_generating_function,
    beta_integral,
    heat_deriv_l1_bound,
    partition_multiplicity_vectors,
)


class TestMinProductPower:
    def test_examples(self):
        assert min_product_power(1.0, 1.0) == pytest.approx(4.0, rel=1e-15)
        assert min_product_power(1.0, 2.0) == pytest.approx(27.0 / 4.0, rel=1e-14)
        assert min_product_power(0.0, 3.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            min_product_power(-0.1, 1.0)

    def test_dominates_and_attains(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            alpha, beta = rng.uniform(0.05, 5.0, size=2)
            lam = rng.uniform(1e-6, 1.0 - 1e-6)
            value = min_product_power(alpha, beta)
            assert value <= lam**-alpha * (1.0 - lam) ** -beta * (1.0 + 1e-12)
            attained = alpha / (alpha + beta)
            at_min = attained**-alpha * (1.0 - attained) ** -beta
            assert value == pytest.approx(at_min, rel=1e-9)


class TestBetaIntegral:
    def test_examples(self):
        assert beta_integral(0.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        # alpha = 1/2, beta slightly above the boundary: integral close to pi
        assert beta_integral(0.5, 1.0 + 1e-12) == pytest.approx(math.pi, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_integral(1.0, 3.0)
        with pytest.raises(DomainError):
            beta_integral(0.5, 0.5)

    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = rng.uniform(-1.5, 0.9)
            beta = 1.0 - alpha + rng.uniform(0.1, 3.0)
            closed = beta_integral(alpha, beta)
            head, _ = quad(
                lambda x: x**-alpha * (1 + x) ** -beta, 0, 1, epsabs=1e-13, epsrel=1e-13
            )
            # substitute x -> 1/x on (1, inf) to keep the range finite
            tail, _ = quad(
                lambda x: x ** (alpha + beta - 2.0) * (1 + x) ** -beta,
                0,
                1,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert closed == pytest.approx(head + tail, rel=1e-9)


class TestPartitions:
    def test_counts(self):
        # number of multiplicity vectors equals the partition count of ell
        expected = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for ell, count in expected.items():
            assert len(list(partition_multiplicity_vectors(ell))) == count

    def test_r4_contents(self):
        vectors = set(partition_multiplicity_vectors(4))
        assert vectors == {
            (4, 0, 0, 0),
            (2, 1, 0, 0),
            (0, 2, 0, 0),
            (1, 0, 1, 0),
            (0, 0, 0, 1),
        }

    def test_weight_condition(self):
        for ell in range(1, 9):
            for rvec in partition_multiplicity_vectors(ell):
                assert sum(j * rj for j, rj in enumerate(rvec, start=1)) == ell


class TestBellPolynomials:
    def test_small_cases(self):
        assert bell_complete([]) == 1.0
        assert bell_complete([3.0]) == 3.0
        assert bell_complete([2.0, 5.0]) == pytest.approx(2.0**2 + 5.0)
        assert bell_complete([1.0, 1.0, 1.0, 1.0]) == pytest.approx(15.0)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            bell_complete([1.0] * 21)
        with pytest.raises(SizeError):
            bell_via_generating_function(21, 1.0)

    def test_generating_function_small(self):
        assert bell_via_generating_function(0, 2.0) == 1.0
        assert bell_via_generating_function(1, 2.0) == pytest.approx(2.0)

    def test_identity_with_factorial_arguments(self):
        for sigma in (0.3, 1.0, 4.0):
            for ell in range(0, 13):
                xs = [sigma * math.factorial(j) for j in range(1, ell + 1)]
                direct = bell_complete(xs)
                via_series = bell_via_generating_function(ell, sigma)
                assert direct == pytest.approx(via_series, rel=1e-10)


class TestHeatDerivBound:
    def test_examples(self):
        assert heat_deriv_l1_bound(0, 3) == pytest.approx(1.0, rel=1e-15)
        assert heat_deriv_l1_bound(1, 2) == pytest.approx(2.0, rel=1e-14)
        assert heat_deriv_l1_bound(2, 3) == pytest.approx(15.0, rel=1e-13)

    def test_assembled_partition_sum(self):
        # the binomial-weighted partition sums reassemble the closed form
        for d in (1, 2, 3):
            half_d = 0.5 * d
            for n in range(0, 7):
                total = 0.0
                for k in range(n + 1):
                    inner = 0.0
                    for rvec in partition_multiplicity_vectors(n - k):
                        weight = math.gamma(half_d + sum(rvec))
                        for rj in rvec:
                            weight /= math.factorial(rj)
                        inner += weight
                    total += (
                        math.gamma(half_d + k)
                        / (math.factorial(k) * math.gamma(half_d) ** 2)
                        * inner
                    )
                total *= math.factorial(n)
                assert total == pytest.approx(heat_deriv_l1_bound(n, d), rel=1e-9)
