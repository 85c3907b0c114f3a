"""Objective evaluation and minimization over the feasible set.

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

:func:`minimize` has two routes, and the certificate names the one that
found its point.  The corner route puts beta1 -> 1, beta2 -> 0: the direct
two-term estimate, small t with (s2, p2) and large t with (s1, p1).  There
the bound is smooth in sigma except at kinks, where a shifted order
s + 2*sigma - s_j is an even integer >= 0.  Where :func:`_corner_is_optimal`
holds, that is the answer.  Elsewhere the multistart runs simplex descent
from sampled starts (seeded ``seed + start_index``) in logistic and softplus
coordinates, and a feasible corner point still wins if it scores lower.
Each route searches the configured sigma window and widens it once by the
rule of :func:`_widened_search`.  Both decode with
:func:`~gnsbound.feasible.decode_candidate` into a
:class:`~gnsbound.feasible.SigmaPoint`, the seven floats every kernel reads,
apply the rule of :func:`~gnsbound.feasible.in_sigma` and score it;
non-members score a large penalty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
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

# (1 - beta1, beta2) toward the corner.  Powers of two keep 1 - beta1, the box
# edges and the derived q's exact, where rounding would be amplified by 1/beta2.
CORNER_LADDER = ((2.0**-40, 2.0**-43), (2.0**-44, 2.0**-50), (2.0**-47, 2.0**-53))
# Golden-section evaluations per smooth piece between two kinks.
PIECE_EVALS = 32
# A shifted order this far above an even integer at a kink is rounding; a
# piece this short lies between a kink and its float neighbours.
KINK_ROUNDING = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# v0/(1 + v0), v0 = W(1/e) the root of log v + v + 1 = 0; see _corner_is_optimal.
CORNER_THETA_MIN = 0.2784645427610738 / 1.2784645427610738
ROUTES = ("corner", "multistart")


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
    to the problem's labeling as given.  ``route`` names the search that found
    the point; ``sample_count``, ``starts`` and ``seed`` echo the config.
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
    route: str


def _log_a(p_recip: float, r_recip: float, s: float, d: int) -> float:
    """log of a_par, through exp and back: log(exp(x)) can differ from x in
    its last bit, and certificate values are kept bit-identical to the
    ``math.log(a_par(...))`` form."""
    return math.log(math.exp(_log_a_par(p_recip, r_recip, s, d)))


def _parts_at(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint
) -> tuple[float, float, float, float]:
    """(log C_small, log C_large, a, b) at a candidate."""
    beta1, beta2, r1, r2, q1, q2, sigma = point
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


def _feasible_frame(problem: GnsProblem, point: SigmaPoint) -> tuple[GnsProblem, float]:
    """(oriented problem, its theta) for a candidate that must be feasible."""
    report = in_sigma(problem, point)
    if not report.ok:
        raise InfeasibleError(
            f"candidate outside the feasible set; worst margin {report.min_margin!r}"
        )
    oriented = problem.oriented()[0]
    return oriented, theta(oriented).value


def _log_objective_at(oriented: GnsProblem, theta_value: float, point: SigmaPoint) -> float:
    log_small, log_large, a, b = _parts_at(oriented, theta_value, point)
    log_p = log_small - math.log(a)
    log_q = log_large - math.log(b)
    w = a / (a + b)
    return math.log(2.0) - math.lgamma(point.sigma) + (1.0 - w) * log_p + w * log_q


def objective(problem: GnsProblem, point: SigmaPoint) -> float:
    """Bound value at a feasible candidate (equalized two-term form)."""
    return math.exp(_log_objective_at(*_feasible_frame(problem, point), point))


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
    log_small, log_large, a, b = _parts_at(*_feasible_frame(problem, point), point)
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
    log_small, log_large, a, b = _parts_at(*_feasible_frame(problem, point), point)
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


def _point_from_z(
    oriented: GnsProblem, theta_value: float, lb: float, z: np.ndarray
) -> SigmaPoint | None:
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


def _z_from_point(
    oriented: GnsProblem, theta_value: float, lb: float, point: SigmaPoint
) -> np.ndarray:
    z = np.zeros(5)
    z[0] = _logit((point.beta1 - theta_value) / (1.0 - theta_value))
    z[1] = _logit(point.beta2 / theta_value)
    z[2] = _softplus_inv(max(point.sigma - lb - SIGMA_OFFSET_MIN, 1e-12))
    box1, box2 = candidate_box(oriented, point.sigma, point.beta1, point.beta2)
    for i, (box, x) in enumerate(
        ((box1, point.beta1 * point.r1_recip), (box2, (1.0 - point.beta2) * point.r2_recip))
    ):
        lo, hi = box
        z[3 + i] = 0.0 if hi <= lo else _logit((x - lo) / (hi - lo))
    return z


def _penalized_at(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint | None
) -> float:
    """Log objective at a decoded candidate; PENALTY unless it is a member."""
    if point is None:
        return PENALTY
    if not margins_ok(*feasibility_margins(oriented, theta_value, point), 0.0):
        return PENALTY
    try:
        return _log_objective_at(oriented, theta_value, point)
    except (GnsboundError, ArithmeticError, ValueError):
        return PENALTY


def _penalized_log_objective(
    oriented: GnsProblem, theta_value: float, lb: float
) -> Callable[[np.ndarray], float]:
    def fn(z: np.ndarray) -> float:
        return _penalized_at(oriented, theta_value, _point_from_z(oriented, theta_value, lb, z))

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


def _kink_sigmas(oriented: GnsProblem, lb: float, window: float) -> list[float]:
    """Sigmas in (lb, lb + window] where some s + 2*sigma - s_j is in 2*N0.

    The smoothing constant is continuous from below at a kink and jumps above
    it, so each kink comes with the next float above it and, where rounding
    puts the shifted order above its even integer, the floats just below.
    """
    kinks = set()
    for s_j in (oriented.s1, oriented.s2):
        base = 0.5 * (s_j - oriented.s)
        k = max(0, math.floor(lb - base))
        while base + k <= lb + window:
            sigma = base + k
            kinks.update((sigma, math.nextafter(sigma, math.inf)))
            while 0.0 < oriented.s + 2.0 * sigma - s_j - 2.0 * k < KINK_ROUNDING:
                sigma = math.nextafter(sigma, -math.inf)
                kinks.add(sigma)
            k += 1
    return sorted(kink for kink in kinks if lb < kink <= lb + window)


def _golden_min(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(value, x) at the best of PIECE_EVALS golden-section probes in (lo, hi).

    Ties move right: corner feasibility only gets easier as sigma grows.
    """
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(PIECE_EVALS - 2):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return min((fc, c), (fd, d))


def _corner_search(
    oriented: GnsProblem, theta_value: float, lb: float, window: float
) -> tuple[float, SigmaPoint] | None:
    """(log value, candidate) of the best feasible corner point, or None.

    Sigma is the best of the kinks and of a golden-section minimum per smooth
    piece, on the first ladder rung; then every rung is tried at that sigma.
    """

    def at(sigma: float, eps: tuple[float, float]) -> tuple[float, SigmaPoint | None]:
        point = decode_candidate(oriented, 1.0 - eps[0], eps[1], sigma, 0.5, 0.5)
        return _penalized_at(oriented, theta_value, point), point

    def along(sigma: float) -> float:
        return at(sigma, CORNER_LADDER[0])[0]

    kinks = _kink_sigmas(oriented, lb, window)
    edges = sorted({lb, *kinks, lb + window})
    scored = [(along(sigma), sigma) for sigma in kinks]
    pieces = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi - lo > KINK_ROUNDING]
    scored += [_golden_min(along, lo, hi) for lo, hi in pieces]
    best_val, sigma = min(scored, default=(PENALTY, lb))
    if best_val >= PENALTY:
        return None
    return min((at(sigma, eps) for eps in CORNER_LADDER), key=lambda found: found[0])


def _corner_is_optimal(oriented: GnsProblem, theta_value: float) -> bool:
    """Whether the corner minimizes the bound over the betas at every sigma.

    So it does when p = inf or p = p1 = p2, which forces every output exponent
    to p, and theta is in [CORNER_THETA_MIN, 1 - CORNER_THETA_MIN]; the proof
    is in the README.  Elsewhere interior betas can win.
    """
    p_recip = oriented.p.recip
    forced = p_recip == 0.0 or p_recip == oriented.p1.recip == oriented.p2.recip
    return forced and CORNER_THETA_MIN <= theta_value <= 1.0 - CORNER_THETA_MIN


def _widened_search(
    search: Callable[[float], tuple[float, SigmaPoint] | None], lb: float, window: float
) -> tuple[float, SigmaPoint, float] | None:
    """(log value, point, window) of ``search`` at the sigma window, or None.

    The search runs once more at a 4x window when it finds nothing or its
    best sigma lies within 1% of the upper edge; the better result is kept.
    """
    found = search(window)
    if found is None or found[1].sigma > lb + 0.99 * window:
        wide = search(4.0 * window)
        if wide is not None and (found is None or wide[0] < found[0]):
            return (*wide, 4.0 * window)
    return None if found is None else (*found, window)


def _run_pass(
    problem: GnsProblem,
    oriented: GnsProblem,
    theta_value: float,
    config: OptimizerConfig,
    sigma_window: float,
) -> tuple[float, SigmaPoint] | None:
    """(log value, point) of the best of all starts at one sigma window.

    None when a start samples no feasible point, as when the window lies
    below the feasible sigma range; a provably empty set raises.
    """
    lb = sigma_lower_bound(oriented)
    fn = _penalized_log_objective(oriented, theta_value, lb)
    best_point: SigmaPoint | None = None
    best_val = math.inf
    min_sampled = math.inf
    for start in range(config.starts):
        try:
            points = sample_sigma(
                problem, config.sample_per_start, config.seed + start, sigma_window=sigma_window
            )
        except StructurallyEmptyError:
            raise
        except EmptyFeasibleError:
            return None
        scored = [(_log_objective_at(oriented, theta_value, pt), pt) for pt in points]
        start_val, start_pt = min(scored, key=lambda t: t[0])
        min_sampled = min(min_sampled, start_val)
        z0 = _z_from_point(oriented, theta_value, lb, start_pt)
        z_best, f_best = _nelder_mead(fn, z0)
        if f_best < min(best_val, start_val):
            point = _point_from_z(oriented, theta_value, lb, z_best)
            if point is not None:
                best_point, best_val = point, f_best
        elif start_val < best_val:
            best_point, best_val = start_pt, start_val
    assert best_point is not None
    assert best_val <= min_sampled + 1e-12
    return best_val, best_point


def minimize(problem: GnsProblem, config: OptimizerConfig | None = None) -> BoundCertificate:
    """Minimize the bound over the feasible set; deterministic given (problem, config).

    Each search widens the sigma window once (see :func:`_widened_search`).
    A provably empty feasible set propagates from the multistart as
    :class:`StructurallyEmptyError`; when neither search finds a point,
    :class:`EmptyFeasibleError` is raised.
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

    corner = partial(_corner_search, oriented, theta_oriented, lb)
    route, best = "corner", _widened_search(corner, lb, config.sigma_window)
    if best is None or not _corner_is_optimal(oriented, theta_oriented):
        multistart = partial(_run_pass, problem, oriented, theta_oriented, config)
        found = _widened_search(multistart, lb, config.sigma_window)
        if found is not None and (best is None or found[0] <= best[0]):
            route, best = "multistart", found
    if best is None:
        raise EmptyFeasibleError(
            "no feasible point found by the corner search or the multistart "
            f"({config.starts} starts x {config.sample_per_start} samples, seed "
            f"{config.seed}, sigma window {config.sigma_window!r} and 4x that)"
        )
    _, best_point, window = best

    value = objective(problem, best_point)
    margins = in_sigma(problem, best_point)
    assert margins.ok
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
        route=route,
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
        "r1_recip": repr(cert.point.r1_recip),
        "r2_recip": repr(cert.point.r2_recip),
        "q1_recip": repr(cert.point.q1_recip),
        "q2_recip": repr(cert.point.q2_recip),
        "margins_ok": cert.margins.ok,
        "min_margin": cert.margins.min_margin,
        "sample_count": cert.sample_count,
        "starts": cert.starts,
        "seed": cert.seed,
        "relabeled": cert.relabeled,
        "sigma_window": cert.sigma_window,
        "route": cert.route,
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
    only older format versions wrote, are ignored.  ``route`` takes no part in
    the check; files before 0.3.0 lack it and came from the multistart.
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
    # each stored reciprocal must lie in [0, 1]
    recips = (LebesgueExponent(float(doc[f"{e}_recip"])).recip for e in ("r1", "r2", "q1", "q2"))
    point = SigmaPoint(float(doc["beta1"]), float(doc["beta2"]), *recips, float(doc["sigma"]))
    route = doc.get("route", "multistart")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
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
        route=route,
    )


def certificate_json(cert: BoundCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"
