"""Objective evaluation and multi-start minimization over the feasible set.

The bound at a feasible candidate comes from splitting the inverse-Laplacian
time integral at the pivot equalizing the two resulting terms.  Writing

    a = (theta - beta2) * (d/2) * K,    b = (beta1 - theta) * (d/2) * K,
    C_small = A(q2, p1)^beta2 * A(r2, p2)^(1-beta2),
    C_large = A(r1, p1)^beta1 * A(q1, p2)^(1-beta1),

with K the chain gap and A the smoothing constants at the shifted orders,
the equalized value is

    objective = (2 / Gamma(sigma)) * (C_small/a)^(b/(a+b)) * (C_large/b)^(a/(a+b)).

This is the two-term bound of :func:`two_term_bound`, valid at every pivot,
evaluated at the pivot of :func:`equalizing_t0`; the test suite checks the
identity.  It is the only closed form used for a bound.

Minimization is multi-start derivative-free simplex descent in transformed
coordinates: betas through logistic maps onto their open ranges, sigma
through a softplus offset from its lower bound, and the two ratio quantities
through logistic maps onto fractions of their draw boxes (re-derived at every
evaluation).  :func:`~gnsbound.feasible.decode_candidate` turns those values
into a candidate exactly as the sampler does.  Trial points failing the
membership rule of :func:`~gnsbound.feasible.in_sigma` receive a large
penalty.  Each evaluation works on the candidate's plain floats
(:data:`~gnsbound.feasible.Coords`) and builds no dataclass; a
:class:`~gnsbound.feasible.SigmaPoint` is built only for the sampled start
points and for the best point of a pass.  Starts own generators seeded ``seed + start_index`` and results
merge by start order, so the certificate is a deterministic function of
(problem, config).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.special import expit

from . import __version__
from .errors import (
    EmptyFeasibleError,
    GnsboundError,
    InadmissibleError,
    InfeasibleError,
    StructurallyEmptyError,
)
from .exponents import GnsProblem, LebesgueExponent, Theta, theta, validate
from .feasible import (
    DEFAULT_SIGMA_WINDOW,
    SIGMA_OFFSET_MIN,
    Coords,
    FeasibilityReport,
    SigmaPoint,
    candidate_box,
    decode_candidate,
    feasibility_margins,
    in_sigma,
    margins_ok,
    sample_sigma,
    sigma_lower_bound,
)
from .parabolic import _log_a_par

# Not called here: the descent evaluates _log_a_par on plain reciprocals.  The
# name stays importable from this module, where perfbench's tracer rebinds it.
from .parabolic import a_par  # noqa: F401

PENALTY = 1e100
# Simplex descent per start: iteration cap, and the spread of log values
# across the simplex at which it stops.
MAX_ITERS = 2000
REL_TOL = 1e-9
# A loaded certificate's stored value must match the recomputed bound to this.
CERT_VALUE_RTOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 32
    sample_per_start: int = 32
    seed: int = 0
    sigma_window: float = DEFAULT_SIGMA_WINDOW

    def __post_init__(self) -> None:
        if self.starts < 1 or self.sample_per_start < 1:
            raise ValueError("counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.sigma_window <= 0.0:
            raise ValueError("sigma_window must be positive")


@dataclass(frozen=True)
class BoundCertificate:
    """A feasible candidate, the bound value at it, and reproducibility data.

    ``point`` is expressed in the oriented labeling (``relabeled`` records
    whether the endpoints were swapped to direct the chain); ``theta`` refers
    to the problem's labeling as given.
    """

    problem: GnsProblem
    point: SigmaPoint
    value: float
    theta: Theta
    margins: FeasibilityReport
    sample_count: int
    starts: int
    seed: int
    relabeled: bool
    sigma_window: float


def _log_a(p_recip: float, r_recip: float, s: float, d: int) -> float:
    """log of a_par, through exp and back: log(exp(x)) can differ from x in
    its last bit, and certificate values are kept bit-identical to the
    ``math.log(a_par(...))`` form."""
    return math.log(math.exp(_log_a_par(p_recip, r_recip, s, d)))


def _parts_at(
    oriented: GnsProblem, theta_value: float, coords: Coords
) -> tuple[float, float, float, float]:
    """(log C_small, log C_large, a, b) at a candidate given as plain floats."""
    beta1, beta2, r1, r2, q1, q2, sigma = coords
    order1 = oriented.s + 2.0 * sigma - oriented.s1
    order2 = oriented.s + 2.0 * sigma - oriented.s2
    d = oriented.d
    p1, p2 = oriented.p1.recip, oriented.p2.recip
    log_small = beta2 * _log_a(q2, p1, order1, d) + (1.0 - beta2) * _log_a(r2, p2, order2, d)
    log_large = beta1 * _log_a(r1, p1, order1, d) + (1.0 - beta1) * _log_a(q1, p2, order2, d)
    half_dk = 0.5 * d * oriented.chain_gap()
    a = (theta_value - beta2) * half_dk
    b = (beta1 - theta_value) * half_dk
    return log_small, log_large, a, b


def _log_objective_parts(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint
) -> tuple[float, float, float, float]:
    """(log C_small, log C_large, a, b) at a candidate, oriented labels."""
    return _parts_at(oriented, theta_value, point.coords)


def _feasible_frame(problem: GnsProblem, point: SigmaPoint) -> tuple[GnsProblem, float]:
    """(oriented problem, its theta) for a candidate that must be feasible."""
    report = in_sigma(problem, point)
    if not report.ok:
        raise InfeasibleError(
            f"candidate outside the feasible set; worst margin {report.min_margin!r}"
        )
    oriented = problem.oriented()[0]
    return oriented, theta(oriented).value


def _log_objective_at(oriented: GnsProblem, theta_value: float, coords: Coords) -> float:
    log_small, log_large, a, b = _parts_at(oriented, theta_value, coords)
    log_p = log_small - math.log(a)
    log_q = log_large - math.log(b)
    w = a / (a + b)
    return math.log(2.0) - math.lgamma(coords[6]) + (1.0 - w) * log_p + w * log_q


def _log_objective(oriented: GnsProblem, theta_value: float, point: SigmaPoint) -> float:
    return _log_objective_at(oriented, theta_value, point.coords)


def objective(problem: GnsProblem, point: SigmaPoint) -> float:
    """Bound value at a feasible candidate (equalized two-term form)."""
    return math.exp(_log_objective(*_feasible_frame(problem, point), point))


def _oriented_norms(
    problem: GnsProblem, norm1: float, norm2: float
) -> tuple[float, float]:
    _, swapped = problem.oriented()
    return (norm2, norm1) if swapped else (norm1, norm2)


def equalizing_t0(
    problem: GnsProblem, point: SigmaPoint, norm1: float = 1.0, norm2: float = 1.0
) -> float:
    """Pivot time equalizing the two terms of the split bound.

    ``norm1`` and ``norm2`` stand in for the two endpoint seminorms, in the
    problem's labeling as given.
    """
    if norm1 <= 0.0 or norm2 <= 0.0:
        raise InfeasibleError("norms must be positive")
    log_small, log_large, a, b = _log_objective_parts(*_feasible_frame(problem, point), point)
    n1, n2 = _oriented_norms(problem, norm1, norm2)
    log_t0 = (
        (point.beta1 - point.beta2) * (math.log(n1) - math.log(n2))
        + math.log(a)
        - math.log(b)
        + log_large
        - log_small
    ) / (a + b)
    return math.exp(log_t0)


def two_term_bound(
    problem: GnsProblem,
    point: SigmaPoint,
    t0: float,
    norm1: float = 1.0,
    norm2: float = 1.0,
) -> float:
    """The split bound at an arbitrary pivot t0 > 0 (valid for every t0)."""
    if t0 <= 0.0:
        raise InfeasibleError("pivot time must be positive")
    log_small, log_large, a, b = _log_objective_parts(*_feasible_frame(problem, point), point)
    n1, n2 = _oriented_norms(problem, norm1, norm2)
    log_n1, log_n2 = math.log(n1), math.log(n2)
    term_small = math.exp(
        log_small
        + point.beta2 * log_n1
        + (1.0 - point.beta2) * log_n2
        + a * math.log(t0)
        - math.log(a)
    )
    term_large = math.exp(
        log_large
        + point.beta1 * log_n1
        + (1.0 - point.beta1) * log_n2
        - b * math.log(t0)
        - math.log(b)
    )
    return (term_small + term_large) * math.exp(-math.lgamma(point.sigma))


# ---------------------------------------------------------------------------
# Transformed coordinates for the simplex descent
# ---------------------------------------------------------------------------


def _softplus(z: float) -> float:
    return float(np.logaddexp(0.0, z))


def _softplus_inv(y: float) -> float:
    y = max(y, 1e-300)
    return y + math.log1p(-math.exp(-y)) if y > 1e-12 else math.log(math.expm1(y))


def _logit(u: float) -> float:
    u = min(max(u, 1e-12), 1.0 - 1e-12)
    return math.log(u / (1.0 - u))


def _coords_from_z(
    oriented: GnsProblem, theta_value: float, lb: float, z: np.ndarray
) -> Coords | None:
    """Decode a transformed coordinate vector; None if no candidate exists."""
    u0, u1, _, u3, u4 = expit(z).tolist()
    return decode_candidate(
        oriented,
        theta_value + (1.0 - theta_value) * u0,
        theta_value * u1,
        lb + SIGMA_OFFSET_MIN + _softplus(float(z[2])),
        u3,
        u4,
    )


def _point_from_z(
    oriented: GnsProblem, theta_value: float, lb: float, z: np.ndarray
) -> SigmaPoint | None:
    coords = _coords_from_z(oriented, theta_value, lb, z)
    return None if coords is None else SigmaPoint.from_coords(coords)


def _z_from_point(
    oriented: GnsProblem, theta_value: float, lb: float, point: SigmaPoint
) -> np.ndarray:
    z = np.zeros(5)
    z[0] = _logit((point.beta1 - theta_value) / (1.0 - theta_value))
    z[1] = _logit(point.beta2 / theta_value)
    z[2] = _softplus_inv(max(point.sigma - lb - SIGMA_OFFSET_MIN, 1e-12))
    box1, box2 = candidate_box(oriented, point.sigma, point.beta1, point.beta2)
    for i, (box, x) in enumerate(
        ((box1, point.beta1 * point.r1.recip), (box2, (1.0 - point.beta2) * point.r2.recip))
    ):
        lo, hi = box
        z[3 + i] = 0.0 if hi <= lo else _logit((x - lo) / (hi - lo))
    return z


def _penalized_log_objective(
    oriented: GnsProblem, theta_value: float, lb: float
) -> Callable[[np.ndarray], float]:
    def fn(z: np.ndarray) -> float:
        coords = _coords_from_z(oriented, theta_value, lb, z)
        if coords is None:
            return PENALTY
        if not margins_ok(*feasibility_margins(oriented, theta_value, coords), 0.0):
            return PENALTY
        try:
            return _log_objective_at(oriented, theta_value, coords)
        except (GnsboundError, ArithmeticError, ValueError):
            return PENALTY

    return fn


def _nelder_mead(
    fn: Callable[[np.ndarray], float],
    z0: np.ndarray,
    *,
    step: float = 0.25,
) -> tuple[np.ndarray, float]:
    """Standard simplex descent; returns the best vertex ever visited.

    The simplex is one (n+1) x n array, one vertex per row.
    """
    n = len(z0)
    simplex = np.tile(z0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += step
    values = [fn(v) for v in simplex]
    best_i = min(range(n + 1), key=lambda i: values[i])
    best_z, best_f = simplex[best_i].copy(), values[best_i]

    for _ in range(MAX_ITERS):
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = simplex[order]
        values = [values[i] for i in order]
        if values[0] < best_f:
            best_f, best_z = values[0], simplex[0].copy()
        if values[-1] < PENALTY and values[-1] - values[0] < REL_TOL:
            break
        # the arithmetic of np.mean, without its per-call dispatch
        centroid = simplex[:-1].sum(axis=0) / n
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = fn(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
                f_c = fn(contracted)
                accept = f_c < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [fn(v) for v in simplex[1:]]
    order = sorted(range(n + 1), key=lambda i: values[i])
    if values[order[0]] < best_f:
        best_f, best_z = values[order[0]], simplex[order[0]].copy()
    return best_z, best_f


def _run_pass(
    problem: GnsProblem,
    oriented: GnsProblem,
    theta_value: float,
    config: OptimizerConfig,
    sigma_window: float,
) -> tuple[SigmaPoint, float, float]:
    """All starts at a fixed sigma window; returns (best point, best log value,
    minimum sampled log value)."""
    lb = sigma_lower_bound(oriented)
    fn = _penalized_log_objective(oriented, theta_value, lb)
    best_point: SigmaPoint | None = None
    best_val = math.inf
    min_sampled = math.inf
    for start in range(config.starts):
        points = sample_sigma(
            problem,
            config.sample_per_start,
            config.seed + start,
            sigma_window=sigma_window,
        )
        scored = [(_log_objective(oriented, theta_value, pt), pt) for pt in points]
        start_val, start_pt = min(scored, key=lambda t: t[0])
        min_sampled = min(min_sampled, start_val)
        z0 = _z_from_point(oriented, theta_value, lb, start_pt)
        z_best, f_best = _nelder_mead(fn, z0)
        if f_best < min(best_val, start_val):
            candidate = _point_from_z(oriented, theta_value, lb, z_best)
            if candidate is not None:
                best_point, best_val = candidate, f_best
        elif start_val < best_val:
            best_point, best_val = start_pt, start_val
    assert best_point is not None
    return best_point, best_val, min_sampled


def minimize(problem: GnsProblem, config: OptimizerConfig | None = None) -> BoundCertificate:
    """Multi-start minimization of the bound over the feasible set.

    Deterministic given (problem, config).  The sigma search window expands
    once (by a factor 4) if the best sigma lands within 1% of its upper edge,
    or if sampling finds nothing inside the original window; a provably empty
    feasible set propagates as :class:`StructurallyEmptyError` instead.
    """
    config = config or OptimizerConfig()
    report = validate(problem)
    if not report.admissible:
        raise InadmissibleError(
            f"problem is not admissible: margins "
            f"({report.lower_margin!r}, {report.upper_margin!r})"
        )
    oriented, swapped = problem.oriented()
    theta_oriented = theta(oriented).value
    lb = sigma_lower_bound(oriented)

    window = config.sigma_window
    try:
        best_point, best_val, min_sampled = _run_pass(
            problem, oriented, theta_oriented, config, window
        )
        expand = best_point.sigma > lb + 0.99 * window
    except StructurallyEmptyError:
        raise
    except EmptyFeasibleError:
        # the window may sit entirely below the feasible sigma range; the
        # one allowed expansion then applies to the sampling stage itself
        best_val = math.inf
        best_point = None
        min_sampled = math.inf
        expand = True
    if expand:
        wide_point, wide_val, wide_sampled = _run_pass(
            problem, oriented, theta_oriented, config, 4.0 * window
        )
        min_sampled = min(min_sampled, wide_sampled)
        if wide_val < best_val:
            best_point, best_val = wide_point, wide_val
            window = 4.0 * window
    assert best_point is not None

    value = objective(problem, best_point)
    margins = in_sigma(problem, best_point)
    assert margins.ok
    assert best_val <= min_sampled + 1e-12
    return BoundCertificate(
        problem=problem,
        point=best_point,
        value=value,
        theta=theta(problem),
        margins=margins,
        sample_count=config.starts * config.sample_per_start,
        starts=config.starts,
        seed=config.seed,
        relabeled=swapped,
        sigma_window=window,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: BoundCertificate) -> dict:
    """Flat key-value form; exponent reciprocals as decimal strings."""
    doc: dict = {
        "artifact_version": __version__,
        "d": cert.problem.d,
        "s": cert.problem.s,
        "s1": cert.problem.s1,
        "s2": cert.problem.s2,
        "p_recip": repr(cert.problem.p.recip),
        "p1_recip": repr(cert.problem.p1.recip),
        "p2_recip": repr(cert.problem.p2.recip),
        "theta": cert.theta.value,
        "value": cert.value,
        "beta1": cert.point.beta1,
        "beta2": cert.point.beta2,
        "sigma": cert.point.sigma,
        "r1_recip": repr(cert.point.r1.recip),
        "r2_recip": repr(cert.point.r2.recip),
        "q1_recip": repr(cert.point.q1.recip),
        "q2_recip": repr(cert.point.q2.recip),
        "margins_ok": cert.margins.ok,
        "min_margin": cert.margins.min_margin,
        "sample_count": cert.sample_count,
        "starts": cert.starts,
        "seed": cert.seed,
        "relabeled": cert.relabeled,
        "sigma_window": cert.sigma_window,
        "objective_form": "equalized-two-term",
        "closed_margins": ",".join(sorted(cert.margins.closed)),
    }
    for name, margin in cert.margins.margins.items():
        doc[f"margin_{name}"] = margin
    return doc


def certificate_from_dict(doc: Mapping) -> BoundCertificate:
    """Inverse of :func:`certificate_to_dict`, re-verified from the witness.

    Only the problem, the point and the search record are read.  Theta, the
    relabeling flag and the margins are recomputed, and the value is the
    objective at the point; :class:`InfeasibleError` is raised when the
    point is infeasible or the stored value differs from the recomputed one
    by more than ``CERT_VALUE_RTOL``.  Keys it does not read, such as those
    only older format versions wrote, are ignored.
    """
    problem = GnsProblem(
        d=int(doc["d"]),
        s=float(doc["s"]),
        s1=float(doc["s1"]),
        s2=float(doc["s2"]),
        p=LebesgueExponent(float(doc["p_recip"])),
        p1=LebesgueExponent(float(doc["p1_recip"])),
        p2=LebesgueExponent(float(doc["p2_recip"])),
    )
    point = SigmaPoint(
        beta1=float(doc["beta1"]),
        beta2=float(doc["beta2"]),
        r1=LebesgueExponent(float(doc["r1_recip"])),
        r2=LebesgueExponent(float(doc["r2_recip"])),
        q1=LebesgueExponent(float(doc["q1_recip"])),
        q2=LebesgueExponent(float(doc["q2_recip"])),
        sigma=float(doc["sigma"]),
    )
    value = objective(problem, point)
    stored = float(doc["value"])
    if not abs(stored - value) <= CERT_VALUE_RTOL * value:
        raise InfeasibleError(
            f"stored value {stored!r} is not the bound {value!r} at the witness"
        )
    return BoundCertificate(
        problem=problem,
        point=point,
        value=value,
        theta=theta(problem),
        margins=in_sigma(problem, point),
        sample_count=int(doc["sample_count"]),
        starts=int(doc["starts"]),
        seed=int(doc["seed"]),
        relabeled=problem.oriented()[1],
        sigma_window=float(doc["sigma_window"]),
    )


def certificate_json(cert: BoundCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"
