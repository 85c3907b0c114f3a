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
holds, that is the answer.  Elsewhere the separable search runs, and its
point replaces a feasible corner one only when lower by more than 1e-12
relative.  It uses that at fixed sigma, log C_large depends on (beta1, r1)
alone and log C_small on (beta2, r2) alone: one inner minimization over a box
per beta (:func:`_side_profile`), and a table over beta pairs per sigma
(:func:`_separable_at`).  Both routes are deterministic, search the one
sigma window (lb, lb + DEFAULT_SIGMA_WINDOW], and score a candidate by the
rule of :func:`~gnsbound.feasible.in_sigma`; non-members score a large
penalty.

Scores and certificate values alike add the logs of the smoothing constants
from the one kernel :func:`~gnsbound.parabolic._log_a_par` and equalize them
in :func:`_equalized`, so a bound is found wherever its logarithm is finite,
even where one constant alone overflows a float.  A found point and a loaded
file both become a certificate through :func:`_certificate`, which re-verifies
the witness.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import __version__
from .errors import EmptyFeasibleError, GnsboundError, InfeasibleError
from .exponents import GnsProblem, LebesgueExponent, Theta, theta
from .feasible import (
    DEFAULT_SIGMA_WINDOW,
    FeasibilityReport,
    SigmaPoint,
    decode_candidate,
    feasibility_margins,
    in_sigma,
    margins_ok,
    search_frame,
    section_edges,
)
from .parabolic import _log_a_par, _normal_exp

# Not called here: the search evaluates _log_a_par on plain reciprocals.  The
# name stays importable from this module, where perfbench's tracer rebinds it.
from .parabolic import a_par  # noqa: F401

PENALTY = 1e100
# A loaded certificate's stored value must match the recomputed bound to this.
CERT_VALUE_RTOL = 1e-9

# (1 - beta1, beta2) toward the corner.  Powers of two keep 1 - beta1, the box
# edges and the derived q's exact, where rounding would be amplified by 1/beta2.
CORNER_LADDER = ((2.0**-40, 2.0**-43), (2.0**-44, 2.0**-50), (2.0**-47, 2.0**-53))
# Golden-section evaluations per smooth piece between two kinks.
PIECE_EVALS = 32
# A piece this short lies between two snapped copies of one kink.
KINK_ROUNDING = 1e-12
# Floats below the exact kink searched for one where the float order agrees.
KINK_SNAP_ULPS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# v0/(1 + v0), v0 = W(1/e) the root of log v + v + 1 = 0; see _corner_is_optimal.
CORNER_THETA_MIN = 0.2784645427610738 / 1.2784645427610738
# The separable search: golden-section evaluations per inner minimization and
# per refined beta piece, and per inner minimization when screening a sigma;
# kinks refined, the log margin of a screen over the best refined value within
# which it is refined, and rounds of refinement.
GOLDEN_EVALS = 18
SCREEN_EVALS = 2
REFINED_KINKS = 2
SCREEN_SLACK = math.log(2.0)
REFINE_ROUNDS = 2
# Open edges, and betas beside a box break, are probed this far inside.
EDGE_INSET = 2.0**-30
# Beta nodes: 1 - beta1 and beta2 at BETA_GEOMETRIC (the last is the corner
# ladder's last 1 - beta1) and BETA_INTERIOR even nodes; nodes closer than
# NODE_GAP of the range bound no refined piece.
BETA_GEOMETRIC = (2.0**-2, 2.0**-4, 2.0**-8, 2.0**-16, 2.0**-32, 2.0**-47)
BETA_INTERIOR = 4
NODE_GAP = 2.0**-20
ROUTES = ("corner", "separable", "multistart")


@dataclass(frozen=True)
class BoundCertificate:
    """A feasible candidate, the bound value at it, and how it was found.

    ``point`` is expressed in the oriented labeling (``relabeled`` records
    whether the endpoints were swapped to direct the chain); ``theta`` refers
    to the problem's labeling as given.  ``route`` names the search that found
    the point, and ``sigma_window`` the width of the sigma window searched,
    DEFAULT_SIGMA_WINDOW (files from the widening search may hold 40.0).
    """

    problem: GnsProblem
    point: SigmaPoint
    value: float
    theta: Theta
    margins: FeasibilityReport
    relabeled: bool
    sigma_window: float
    route: str


def _parts_at(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint
) -> tuple[float, float, float, float]:
    """(log C_small, log C_large, a, b) at a candidate."""
    beta1, beta2, r1, r2, q1, q2, sigma = point
    order1 = oriented.s + 2.0 * sigma - oriented.s1
    order2 = oriented.s + 2.0 * sigma - oriented.s2
    d = oriented.d
    p1, p2 = oriented.p1.recip, oriented.p2.recip
    log_small = beta2 * _log_a_par(q2, p1, order1, d) + (1.0 - beta2) * _log_a_par(
        r2, p2, order2, d
    )
    log_large = beta1 * _log_a_par(r1, p1, order1, d) + (1.0 - beta1) * _log_a_par(
        q1, p2, order2, d
    )
    half_dk = 0.5 * d * oriented.chain_gap()
    a = (theta_value - beta2) * half_dk
    b = (beta1 - theta_value) * half_dk
    return log_small, log_large, a, b


def _equalized(log_front: float, log_small: float, log_large: float, a: float, b: float) -> float:
    """The equalized log bound from log_front = log(2/Gamma(sigma)) and the
    parts of :func:`_parts_at`; both routes and the certificate score this."""
    w = a / (a + b)
    return log_front + (1.0 - w) * (log_small - math.log(a)) + w * (log_large - math.log(b))


def _log_objective_at(oriented: GnsProblem, theta_value: float, point: SigmaPoint) -> float:
    log_front = math.log(2.0) - math.lgamma(point.sigma)
    return _equalized(log_front, *_parts_at(oriented, theta_value, point))


def _certificate(
    problem: GnsProblem, point: SigmaPoint, route: str = "", sigma_window: float = 0.0
) -> BoundCertificate:
    """The certificate of a candidate: one membership test, then one value.

    Raises :class:`InfeasibleError` unless ``point`` is a member, and
    :class:`DomainError` when the bound is not a positive normal float.
    ``route`` and ``sigma_window`` record the search; :func:`objective`,
    :func:`equalizing_t0` and :func:`two_term_bound` leave them unset.
    """
    margins = in_sigma(problem, point)
    if not margins.ok:
        raise InfeasibleError(
            f"candidate outside the feasible set; worst margin {margins.min_margin!r}"
        )
    oriented, swapped = problem.oriented()
    value = _normal_exp(_log_objective_at(oriented, theta(oriented).value, point), "the bound")
    return BoundCertificate(
        problem, point, value, theta(problem), margins, swapped, sigma_window, route
    )


def _checked_parts(problem: GnsProblem, point: SigmaPoint) -> tuple[float, float, float, float]:
    """:func:`_parts_at` at a candidate :func:`_certificate` accepts."""
    oriented = _certificate(problem, point).problem.oriented()[0]
    return _parts_at(oriented, theta(oriented).value, point)


def objective(problem: GnsProblem, point: SigmaPoint) -> float:
    """Bound value at a feasible candidate (equalized two-term form)."""
    return _certificate(problem, point).value


def equalizing_t0(
    problem: GnsProblem, point: SigmaPoint, norm1: float = 1.0, norm2: float = 1.0
) -> float:
    """Pivot time equalizing the two terms of the split bound.

    ``norm1`` and ``norm2`` stand in for the two endpoint seminorms, in the
    problem's labeling as given.
    """
    if norm1 <= 0.0 or norm2 <= 0.0:
        raise InfeasibleError("norms must be positive")
    log_small, log_large, a, b = _checked_parts(problem, point)
    n1, n2 = (norm2, norm1) if problem.oriented()[1] else (norm1, norm2)
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
    log_small, log_large, a, b = _checked_parts(problem, point)
    n1, n2 = (norm2, norm1) if problem.oriented()[1] else (norm1, norm2)
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


def _orders_agree(oriented: GnsProblem, sigma: float) -> bool:
    """Whether each shifted order s + 2*sigma - s_j has one sign and evenness as
    :func:`_parts_at` rounds it and exactly (in units of the finest input ulp)."""

    def regime(order: float | int, unit: int) -> tuple[int, bool]:
        return (order > 0) - (order < 0), order >= 0 and order % (2 * unit) == 0

    for s_j in (oriented.s1, oriented.s2):
        ratios = [x.as_integer_ratio() for x in (oriented.s, 2.0 * sigma, -s_j)]
        unit = max(den for _, den in ratios)
        exact = sum(num * (unit // den) for num, den in ratios)
        if regime(oriented.s + 2.0 * sigma - s_j, 1) != regime(exact, unit):
            return False
    return True


def _kink_sigmas(oriented: GnsProblem, lb: float, window: float) -> list[float]:
    """Sigmas in (lb, lb + window] where some s + 2*sigma - s_j reaches 2k >= 0.

    The smoothing constant is continuous from below at a kink and jumps above
    it.  Each kink is the largest float sigma whose order is at most 2k both
    exactly, in Fractions of the float inputs, and as :func:`_parts_at`
    rounds it, and where both orders fall in the same regime in the two
    arithmetics (:func:`_orders_agree`), so that both evaluate the same
    regime below the jump.
    """
    kinks = set()
    for s_j in (oriented.s1, oriented.s2):
        base = 0.5 * (s_j - oriented.s)
        k = max(0, math.floor(lb - base))
        while base + k <= lb + window:
            exact = (Fraction(s_j) - Fraction(oriented.s)) / 2 + k
            sigma = float(exact)
            if Fraction(sigma) > exact:
                sigma = math.nextafter(sigma, -math.inf)
            for _ in range(KINK_SNAP_ULPS):
                if oriented.s + 2.0 * sigma - s_j <= 2 * k and _orders_agree(oriented, sigma):
                    kinks.add(sigma)
                    break
                sigma = math.nextafter(sigma, -math.inf)
            k += 1
    return sorted(sigma for sigma in kinks if lb < sigma <= lb + window)


def _golden_min(
    fn: Callable[[float], float], lo: float, hi: float, evals: int = PIECE_EVALS,
    probes: tuple[float, ...] = (),
) -> tuple[float, float]:
    """(value, x) at the best of ``evals`` golden-section probes in (lo, hi)
    and of the extra ``probes``.

    Ties move right: corner feasibility only gets easier as sigma grows.
    """
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(evals - 2):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    return min((fc, c), (fd, d), *((fn(x), x) for x in probes))


def _penalized_at(
    oriented: GnsProblem, theta_value: float, point: SigmaPoint | None
) -> float:
    """Log objective at a decoded candidate; PENALTY unless it is a member."""
    if point is None or not margins_ok(*feasibility_margins(oriented, theta_value, point), 0.0):
        return PENALTY
    try:
        return _log_objective_at(oriented, theta_value, point)
    except (GnsboundError, ArithmeticError, ValueError):
        return PENALTY


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


# ---------------------------------------------------------------------------
# The separable search
# ---------------------------------------------------------------------------


def _side_profile(
    oriented: GnsProblem, sigma: float
) -> tuple[Callable[[float, int], tuple[float, float]], list[float]]:
    """(section, breaks) of the inner problem at one sigma.

    ``section(beta, evals)`` is (min, argmin) of beta*log A(X/beta; p1) +
    (1-beta)*log A((1/p - X)/(1-beta); p2) over the box of X in
    :func:`~gnsbound.feasible.section_edges`, the argmin as a fraction of the
    box: log C_large at beta = beta1, log C_small at beta = beta2.  An empty
    box gives inf; closed edges are probed exactly, open ones EDGE_INSET of
    the box inside.  ``breaks`` are where two edges bounding the box cross.
    """
    p, p1, p2, d = oriented.p.recip, oriented.p1.recip, oriented.p2.recip, oriented.d
    order1, order2 = (oriented.s + 2.0 * sigma - s_j for s_j in (oriented.s1, oriented.s2))
    lower, upper = section_edges(oriented, sigma)

    def box(beta: float) -> tuple[list[float], list[float]]:
        return [c0 + c1 * beta for c0, c1 in lower], [c0 + c1 * beta for c0, c1 in upper]

    def section(beta: float, evals: int) -> tuple[float, float]:
        lows, highs = box(beta)
        lo, hi = max(lows), min(highs)
        if not (lows[0] < hi and lo < highs[0] and lo <= hi):
            return math.inf, lo

        def log_const(u: float) -> float:
            x = lo + u * (hi - lo)
            try:
                return beta * _log_a_par(min(1.0, x / beta), p1, order1, d) + (
                    1.0 - beta
                ) * _log_a_par(max(0.0, (p - x) / (1.0 - beta)), p2, order2, d)
            except (GnsboundError, ArithmeticError, ValueError):
                return math.inf

        probes = (EDGE_INSET if lo == lows[0] else 0.0, 1.0 - EDGE_INSET if hi == highs[0] else 1.0)
        return _golden_min(log_const, 0.0, 1.0, evals, probes) if hi > lo else (log_const(0.0), 0.0)

    breaks = []
    for (a0, a1), (b0, b1) in itertools.combinations(lower + upper, 2):
        beta = (b0 - a0) / (a1 - b1) if a1 != b1 else -1.0
        lows, highs = box(beta)
        ends = (max(lows), min(highs))
        if 0.0 < beta < 1.0 and all(
            min(abs(v - end) for end in ends) <= 1e-12 for v in (a0 + a1 * beta, b0 + b1 * beta)
        ):
            breaks.append(beta)
    return section, breaks


def _separable_at(
    oriented: GnsProblem, theta_value: float, sigma: float, refine: bool
) -> tuple[float, SigmaPoint | None]:
    """(log value, candidate) of the best beta pair at one sigma.

    Each beta is tabulated at the box breaks and EDGE_INSET to either side,
    at BETA_INTERIOR even nodes and at the BETA_GEOMETRIC nodes toward the
    corner; the equalized bound is cheap on every pair of entries.  Without
    ``refine`` that screens sigma (value only).  With it, REFINE_ROUNDS times,
    each beta of the best pair is golden-section refined on the pieces to its
    neighbouring nodes or, toward theta, the range end; pairs are then scored.
    """
    section, breaks = _side_profile(oriented, sigma)
    half_dk = 0.5 * oriented.d * oriented.chain_gap()
    log_front = math.log(2.0) - math.lgamma(sigma)

    def log_value(pair: list[tuple[float, float, float]]) -> float:
        (beta1, log_large, _), (beta2, log_small, _) = pair
        a, b = (theta_value - beta2) * half_dk, (beta1 - theta_value) * half_dk
        if not (a > 0.0 and b > 0.0 and log_large < math.inf and log_small < math.inf):
            return math.inf
        return _equalized(log_front, log_small, log_large, a, b)

    ranges = ((theta_value, 1.0), (0.0, theta_value))
    tables = []
    for side, (lo, hi) in enumerate(ranges):
        nodes = {lo + (hi - lo) * (i + 0.5) / BETA_INTERIOR for i in range(BETA_INTERIOR)}
        nodes.update(1.0 - g if side == 0 else g for g in BETA_GEOMETRIC)
        nodes.update(b + k * EDGE_INSET * (hi - lo) for b in breaks for k in (-1, 0, 1))
        evals = GOLDEN_EVALS if refine else SCREEN_EVALS
        tables.append(sorted((b, *section(b, evals)) for b in nodes if lo < b < hi))
    cells = ((log_value([e1, e2]), [e1, e2]) for e1, e2 in itertools.product(*tables))
    best, pair = min(cells, default=(math.inf, []))
    if not refine or best == math.inf:
        return min(best, PENALTY), None
    found = [pair]
    for _ in range(REFINE_ROUNDS):
        for side, (lo, hi) in enumerate(ranges):
            beta0, gap = pair[side][0], NODE_GAP * (hi - lo)
            betas = [node[0] for node in tables[side]]
            left = max((b for b in betas if b < beta0 - gap), default=(lo, beta0)[side])
            right = min((b for b in betas if b > beta0 + gap), default=(beta0, hi)[side])
            tried = {}

            def along(beta: float) -> float:
                trial = pair[:]
                trial[side] = tried[beta] = (beta, *section(beta, GOLDEN_EVALS))
                return log_value(trial)

            for a, b in [(a, b) for a, b in ((left, beta0), (beta0, right)) if a < b]:
                inset = EDGE_INSET * (b - a)
                value, beta = _golden_min(along, a, b, GOLDEN_EVALS, (a + inset, b - inset))
                if value < best:
                    best, pair = value, [*pair[:side], tried[beta], *pair[side + 1 :]]
        found.append(pair)
    points = [  # the draw box of (1-beta2)/r2 is that of X = beta2/q2 reversed
        decode_candidate(oriented, b1, b2, sigma, u1, 1 - u2) for (b1, _, u1), (b2, _, u2) in found
    ]
    return min(((_penalized_at(oriented, theta_value, p), p) for p in points), key=lambda f: f[0])


def _separable_search(
    oriented: GnsProblem, theta_value: float, lb: float, window: float
) -> tuple[float, SigmaPoint] | None:
    """(log value, candidate) of the separable search, or None: every kink
    is screened, and the REFINED_KINKS best refined, a later one only while
    its screen is within SCREEN_SLACK of the best."""
    kinks = _kink_sigmas(oriented, lb, window)
    screened = sorted((_separable_at(oriented, theta_value, s, False)[0], s) for s in kinks)
    best = (PENALTY, None)
    for value, sigma in screened[:REFINED_KINKS]:
        if value < best[0] + SCREEN_SLACK:
            best = min(best, _separable_at(oriented, theta_value, sigma, True), key=lambda f: f[0])
    return best if best[0] < PENALTY else None


def minimize(problem: GnsProblem) -> BoundCertificate:
    """Minimize the bound over the feasible set; deterministic given the problem.

    Each route searches sigma in (lb, lb + DEFAULT_SIGMA_WINDOW] once.  A
    provably empty feasible set raises :class:`StructurallyEmptyError`; when
    neither search finds a point, :class:`EmptyFeasibleError` is raised.  The
    point found is re-verified as any loaded certificate is.
    """
    oriented, theta_oriented, lb = search_frame(problem)
    search = (oriented, theta_oriented, lb, DEFAULT_SIGMA_WINDOW)

    route, best = "corner", _corner_search(*search)
    if best is None or not _corner_is_optimal(oriented, theta_oriented):
        found = _separable_search(*search)
        # a corner point is replaced only by one lower by more than 1e-12 relative
        if found is not None and (best is None or found[0] < best[0] - 1e-12):
            route, best = "separable", found
    if best is None:
        raise EmptyFeasibleError(
            "no feasible point found by the corner search or the separable search "
            f"(sigma window {DEFAULT_SIGMA_WINDOW!r})"
        )
    return _certificate(problem, best[1], route, DEFAULT_SIGMA_WINDOW)


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
    the check; files before 0.3.0 lack it and came from the multistart, the
    search before 0.4.0 that ``"multistart"`` still names.
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
    cert = _certificate(problem, point, route, float(doc["sigma_window"]))
    stored = float(doc["value"])
    if not abs(stored - cert.value) <= CERT_VALUE_RTOL * cert.value:
        raise InfeasibleError(
            f"stored value {stored!r} is not the bound {cert.value!r} at the witness"
        )
    return cert


def certificate_json(cert: BoundCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"
