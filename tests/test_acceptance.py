"""Acceptance gate: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The criteria are property-based plus hand-derivable values; no
external reference data is required.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gnsbound.cli import main as cli_main
from gnsbound.exponents import GnsProblem, LebesgueExponent
from gnsbound.feasible import sample_sigma
from gnsbound.optimizer import (
    OptimizerConfig,
    equalizing_t0,
    minimize,
    objective,
    two_term_bound,
)
from gnsbound.oracle import (
    check_gns,
    check_parabolic,
    default_parabolic_grid,
    heat_l1_deriv_check,
    young_extremizer_check,
)
from gnsbound.parabolic import ParabolicParams, a_par, heat_kernel_norm
from gnsbound.specialfn import (
    bell_complete,
    bell_via_generating_function,
    beta_integral,
    heat_deriv_l1_bound,
    min_product_power,
    partition_multiplicity_vectors,
)

INF = LebesgueExponent(0.0)
ONE = LebesgueExponent(1.0)
TWO = LebesgueExponent(0.5)

AGMON = GnsProblem(1, 0.0, 1.0, 0.0, INF, TWO, TWO)
FRACTIONAL = GnsProblem(1, 0.5, 1.0, 0.0, LebesgueExponent(0.25), TWO, TWO)


def _report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_closed_form_sanity():
    for p in (ONE, TWO, INF):
        for d in (1, 2, 3):
            assert abs(a_par(ParabolicParams(p, p, 0.0, d)) - 1.0) <= 1e-12
            assert abs(a_par(ParabolicParams(p, p, 2.0, d)) - d) <= 1e-12 * d
    for t in (0.1, 1.0, 10.0):
        for d in (1, 2, 3):
            assert abs(heat_kernel_norm(t, ONE, d) - 1.0) <= 1e-12
    _report(1, "diagonal smoothing constants and kernel mass exact to 1e-12")


def test_criterion_2_appendix_lemmas():
    rng = np.random.default_rng(314)
    for _ in range(100):
        alpha, beta = (float(x) for x in rng.uniform(1e-3, 5.0, size=2))
        closed = min_product_power(alpha, beta)
        lam_coarse = np.linspace(1e-6, 1.0 - 1e-6, 100_001)
        values = lam_coarse**-alpha * (1.0 - lam_coarse) ** -beta
        center = lam_coarse[int(values.argmin())]
        lam_fine = np.linspace(
            max(center - 2e-5, 1e-9), min(center + 2e-5, 1.0 - 1e-9), 40_001
        )
        grid_min = float(
            (lam_fine**-alpha * (1.0 - lam_fine) ** -beta).min()
        )
        assert closed == pytest.approx(grid_min, rel=1e-8)
    for _ in range(20):
        alpha = float(rng.uniform(-1.5, 0.9))
        beta = 1.0 - alpha + float(rng.uniform(0.1, 3.0))
        closed = beta_integral(alpha, beta)
        head, _ = quad(
            lambda x: x**-alpha * (1 + x) ** -beta, 0, 1, epsabs=1e-13, epsrel=1e-13
        )
        tail, _ = quad(
            lambda x: x ** (alpha + beta - 2.0) * (1 + x) ** -beta,
            0,
            1,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert closed == pytest.approx(head + tail, rel=1e-9)
    _report(2, "power-product minimum (1e-8) and Beta integral (1e-9) vs oracles")


def test_criterion_3_derivative_bound_chain():
    # combinatorial identity between the two Bell-polynomial routes
    for sigma in (0.3, 1.0, 4.0):
        for ell in range(13):
            xs = [sigma * math.factorial(j) for j in range(1, ell + 1)]
            assert bell_complete(xs) == pytest.approx(
                bell_via_generating_function(ell, sigma), rel=1e-10
            )
    # assembled binomial-partition sum reproduces the closed-form factor
    for d in (1, 2, 3):
        half_d = 0.5 * d
        for n in range(7):
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
    # measured kernel-derivative masses stay under the bound
    for n in range(5):
        for d in (1, 2, 3):
            for t in (0.5, 1.0, 2.0):
                measured, bound = heat_l1_deriv_check(n, d, t)
                assert measured <= bound * (1 + 1e-8)
    _report(3, "Bell identity (1e-10), assembled sum (1e-9), L1 domination (1e-8)")


def test_criterion_4_young_optimality():
    cases = (
        (TWO, LebesgueExponent.parse("4/3"), LebesgueExponent.parse("4/3"), 1),
        (LebesgueExponent.parse("3"), LebesgueExponent.parse("3/2"), LebesgueExponent.parse("3/2"), 2),
    )
    for p, q, r, d in cases:
        best, constant = young_extremizer_check(p, q, r, d)
        assert best <= constant * (1 + 1e-6)
        assert best >= constant * (1 - 1e-3)
    _report(4, "Gaussian pairs attain the convolution constants within [1-1e-3, 1+1e-6]")


def test_criterion_5_smoothing_sweep():
    grid = default_parabolic_grid((1, 2, 3))
    report = check_parabolic(grid, widths=(0.5, 1.0, 2.0))
    assert report.ok, f"violations: {report.violations()[:5]}"
    _report(
        5,
        f"{len(report.rows)} measured ratios dominated at 1+1e-6 "
        f"(worst slack {report.worst_slack:.3e})",
    )


def test_criterion_6_end_to_end_bounds():
    config = OptimizerConfig(starts=64, sample_per_start=32, seed=42)
    dilations = [2.0**k for k in range(-5, 6)]
    values = {}
    for name, problem in (("agmon", AGMON), ("fractional", FRACTIONAL)):
        cert = minimize(problem, config)
        assert cert.margins.ok
        values[name] = cert.value
        report = check_gns(cert, widths=(0.5, 1.0, 2.0), dilations=dilations)
        assert report.ok, f"violations: {report.violations()[:5]}"
        for width in (0.5, 1.0, 2.0):
            ratios = [row[2] for row in report.rows if row[0] == width]
            spread = (max(ratios) - min(ratios)) / min(ratios)
            assert spread <= 1e-6
    assert values["agmon"] >= 1.0  # the sharp constant is 1; a bound cannot beat it
    _report(
        6,
        f"certificates (agmon {values['agmon']:.4f}, fractional "
        f"{values['fractional']:.4f}) dominate all Gaussian ratios; "
        "dilation-invariant to 1e-6",
    )


def test_criterion_7_objective_cross_check():
    for problem in (AGMON, FRACTIONAL):
        points = sample_sigma(problem, 100, seed=2718)
        assert len(points) == 100
        for point in points:
            value = objective(problem, point)
            pivot = equalizing_t0(problem, point)
            assert two_term_bound(problem, point, pivot) == pytest.approx(
                value, rel=1e-9
            )
    # the certificate records the substitution value itself
    cert = minimize(FRACTIONAL, OptimizerConfig(starts=4, sample_per_start=16, seed=5))
    recomputed = two_term_bound(
        FRACTIONAL, cert.point, equalizing_t0(FRACTIONAL, cert.point)
    )
    assert recomputed == pytest.approx(cert.value, rel=1e-9)
    _report(
        7,
        "objective equals the pivot-substituted two-term bound to 1e-9 on 200 points",
    )


def test_criterion_8_certificate_determinism(tmp_path):
    flags = [
        "bound", "--d", "1", "--s", "0", "--p", "inf",
        "--s1", "1", "--p1", "2", "--s2", "0", "--p2", "2",
        "--starts", "8", "--samples", "16", "--seed", "42",
    ]
    payloads = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli_main([*flags, "--json-out", str(path)]) == 0
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    doc = json.loads(payloads[0])
    assert doc["margins_ok"] is True
    _report(8, "byte-identical certificates across repeated runs")
