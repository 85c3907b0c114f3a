"""Independent numerical verification of the inequalities on Gaussians.

Test functions are centered Gaussians f(x) = exp(-a*|x|^2) in dimension
d <= 3.  With the convention hat{f}(xi) = int f(x) exp(-i x.xi) dx (inverse
carrying (2*pi)^(-d)), the transform is (pi/a)^(d/2) * exp(-|xi|^2/(4a)),
the operator |grad|^s has symbol |xi|^s, and the heat flow has symbol
exp(-t*|xi|^2).  Applying the multiplier gives a radial frequency profile

    ghat(rho) = cf * rho^s * exp(-b*rho^2),    cf = (pi/a)^(d/2),  b = t + 1/(4a).

The heat flow is a dilation, so the inverse transform is
h(r) = cf * b^(-(s+d)/2) * H(r/sqrt(b)), with H the unit profile (b = 1,
cf = 1) of (d, s), and ||h||_p = cf * b^(d/(2p) - (s+d)/2) * ||H||_p.  Every
norm is measured on H by :func:`unit_heat_norm` and dilated once, in closed
form; :func:`fractional_heat_norm` composes the two.  The parabolic sweep
measures each (d, s, p) unit norm once per call and dilates every row from
it.  H is computed by the dimension-reduced kernels

    d=1:  H(y) = (1/pi)      * int_0^inf x^s e^(-x^2) cos(x*y)          dx
    d=2:  H(y) = (1/(2pi))   * int_0^inf x^s e^(-x^2) J0(x*y)  x        dx
    d=3:  H(y) = (1/(2pi^2)) * int_0^inf x^s e^(-x^2) sinc(x*y) x^2     dx.

Quadrature is composite Gauss-Legendre on panels graded geometrically toward
x = 0 (the profile has an integrable algebraic singularity there for
non-integer s) and capped in width so the oscillatory kernel is resolved; a
small leading stub (0, eps) is integrated analytically from the joint power
series of the Gaussian factor and the kernel, a polynomial in y^2 built once
per profile.

For s/2 not a nonnegative integer, H decays only algebraically.  The far
field is summed from the asymptotic expansion generated by the frequency
singularity at 0,

    H(y) ~ sum_k  (-1)^k/k! * 2^(s+2k) * pi^(-d/2)
                  * Gamma((d+s)/2 + k)/Gamma(-s/2 - k) * y^(-d-s-2k),

truncated per radius at its smallest term (optimal truncation; the
remainder is O(exp(-y^2/4)) beyond the splitting radius y = 16 used here).
Lp norms integrate |H|^p y^(d-1) numerically up to the splitting radius and
the asymptotic form beyond, on one panel per octave.  The far field does not
depend on the quadrature level, so :func:`unit_heat_norm` tabulates it once
per unit norm and both levels divide that table by their own peak; on a
2-core x86-64 VM this took a fresh ``gnsbound verify gns`` on the fractional
certificate from 0.88 s to 0.69 s (medians of 7 alternating runs).

The sup norm is |H(0)|: the multiplied transform is nonnegative and each
reduced kernel is bounded by its value 1 at x*y = 0, so |H(y)| <= H(0) for
every y.

Every norm is evaluated on two rules of different order and panel density;
their disagreement is the error estimate, and exceeding the requested target
raises :class:`AccuracyError` rather than degrading silently.

The rules, including the far field's octave rule, and the kernel tables
built from them depend only on (d, level, node set) and are cached once each.  The caches are pure memoization
(results never depend on cache state or call order) and rely on the
interpreter's global lock for safe concurrent use.

scipy is imported where it is used, never at module level, because the
package imports this module and ``bound`` and ``parabolic`` never integrate:
``scipy.special`` adds about 0.3 s to a start and only the J0 kernel (d = 2)
and the far-field coefficients need it; ``scipy.integrate`` is used only by
:func:`frequency_space_l2_norm`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import AccuracyError, DomainError
from .exponents import GnsProblem, LebesgueExponent, theta
from .optimizer import BoundCertificate
from .parabolic import ParabolicParams, bound_at_time

DOMINANCE_RTOL = 1e-6

# Frequency cutoff: exp(-x^2) below exp(-100); spatial split at y = 16 where
# the optimal-truncation remainder exp(-y^2/4) is about exp(-64).
_FREQ_CUTOFF = 100.0
_SPLIT_FACTOR = 16.0
_TAIL_KMAX = 60
_STUB_TERMS = 12

_KERNEL_PREFACTOR = {1: 1.0 / math.pi, 2: 0.5 / math.pi, 3: 0.5 / math.pi**2}


def _bessel_j0(z: np.ndarray) -> np.ndarray:
    from scipy.special import j0  # lazily: see the module docstring

    return j0(z)


# The reduced kernels cos, J0 and sinc, and their Taylor coefficients in z^2.
_KERNELS = {1: np.cos, 2: _bessel_j0, 3: lambda z: np.sinc(z / math.pi)}
_KERNEL_SERIES = {
    1: lambda j: (-1.0) ** j / math.factorial(2 * j),
    2: lambda j: (-1.0) ** j / (4.0**j * math.factorial(j) ** 2),
    3: lambda j: (-1.0) ** j / math.factorial(2 * j + 1),
}


def surface_area(d: int) -> float:
    """Area of the unit sphere in R^d: 2*pi^(d/2)/Gamma(d/2)."""
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


@dataclass(frozen=True)
class RadialTestFunction:
    """Centered Gaussian exp(-width * |x|^2) in dimension d."""

    width: float
    d: int

    def __post_init__(self) -> None:
        if not (0.0 < self.width < math.inf):
            raise DomainError(f"width must be positive and finite, got {self.width!r}")
        if self.d not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.d!r}")


def gaussian_lp_norm(width: float, d: int, p: LebesgueExponent) -> float:
    """Closed-form Lp norm of exp(-width*|x|^2): (pi/(p*width))^(d/(2p)).

    Raises :class:`AccuracyError` when it is not a positive normal float.
    """
    if width <= 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    u = p.recip
    if u == 0.0:
        return 1.0
    try:
        norm = (math.pi * u / width) ** (0.5 * d * u)
    except OverflowError:
        norm = math.inf
    if not sys.float_info.min <= norm < math.inf:
        raise AccuracyError(f"Gaussian norm at width {width!r} is {norm!r}, not a normal float")
    return norm


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on consecutive panels."""
    x, w = _leggauss(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


# (scale, Gauss-Legendre order) per accuracy level.
_LEVELS = {"coarse": (1.0, 16), "fine": (0.7, 22)}

_SCOUT_GRID = 1025


@functools.lru_cache(maxsize=None)
def _freq_rule(level: str) -> tuple[float, np.ndarray, np.ndarray]:
    """Stub size, frequency nodes and weights of the unit profile.

    Panels double in width from the stub up to a cap; the stub and the cap
    are tied to the splitting radius so that the kernel is resolved there.
    """
    scale, order = _LEVELS[level]
    cutoff = math.sqrt(_FREQ_CUTOFF)
    eps = 0.3 / math.sqrt(1.0 + _SPLIT_FACTOR**2)
    w_max = scale * min(1.2, 8.0 / _SPLIT_FACTOR)
    edges = [eps]
    width = eps
    while edges[-1] < cutoff:
        width = min(2.0 * width, w_max)
        edges.append(min(edges[-1] + width, cutoff))
    return (eps, *_panel_rule(np.asarray(edges), order))


@functools.lru_cache(maxsize=None)
def _radial_rule(level: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel edges, nodes and weights on (0, _SPLIT_FACTOR) for the unit profile."""
    scale, order = _LEVELS[level]
    n_panels = math.ceil(_SPLIT_FACTOR / (0.8 * scale))
    edges = np.linspace(0.0, _SPLIT_FACTOR, n_panels + 1)
    return (edges, *_panel_rule(edges, order))


@functools.lru_cache(maxsize=None)
def _octave_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, nodes and weights of the far-field rule: one panel per octave
    on (_SPLIT_FACTOR, 2^41 * _SPLIT_FACTOR)."""
    edges = _SPLIT_FACTOR * 2.0 ** np.arange(0.0, 42.0)
    return (edges, *_panel_rule(edges, 12))


@functools.lru_cache(maxsize=None)
def _kernel_matrix(d: int, level: str, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Radial nodes y of the unit profile and the kernel matrix K(y x).

    ``kind`` is ``"lp"`` for the nodes of the radial rule or ``"scout"`` for
    the zero-search grid.
    """
    if kind == "lp":
        y = _radial_rule(level)[1]
    else:
        y = np.linspace(0.0, _SPLIT_FACTOR, _SCOUT_GRID)
    return y, _KERNELS[d](np.outer(y, _freq_rule(level)[1]))


class _RadialProfile:
    """The unit profile H (b = 1, unit amplitude) at a fixed quadrature level."""

    def __init__(self, d: int, s: float, level: str):
        self.d = d
        self.level = level
        self.eps, self.x, w = _freq_rule(level)
        self.weights = w * self.x ** (s + d - 1) * np.exp(-self.x * self.x)
        # The integral over (0, eps) from the joint even power series of the
        # Gaussian factor and the kernel, as a polynomial in y^2: coefficient
        # j is k_j * sum_i (-1)^i/i! * eps^(s+d+2(i+j)) / (s+d+2(i+j)).
        n = np.arange(_STUB_TERMS + 1)
        exp_coeff = np.array([(-1.0) ** i / math.factorial(i) for i in n])
        power = s + d + 2.0 * n
        moments = self.eps**power / power
        self.stub = np.array(
            [_KERNEL_SERIES[d](j) * (exp_coeff[: n.size - j] @ moments[j:]) for j in n]
        )

    def _evaluate(self, kernel: np.ndarray, y: np.ndarray) -> np.ndarray:
        stub = np.polynomial.polynomial.polyval(y * y, self.stub)
        return _KERNEL_PREFACTOR[self.d] * (kernel @ self.weights + stub)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Profile at arbitrary radii y."""
        y = np.asarray(y, dtype=float)
        return self._evaluate(_KERNELS[self.d](np.outer(y, self.x)), y)

    def on_nodes(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The cached radii y of node set ``kind`` and H there."""
        y, kernel = _kernel_matrix(self.d, self.level, kind)
        return y, self._evaluate(kernel, y)


def _smooth_multiplier(s: float) -> bool:
    """True when s/2 is a nonnegative integer: |xi|^s is then smooth at the
    origin, the far-field expansion vanishes and H decays like a Gaussian."""
    return s >= 0.0 and 0.5 * s == math.floor(0.5 * s)


def _tail_coefficients(s: float, d: int) -> np.ndarray | None:
    """Signed far-field coefficients of H, or None when the expansion vanishes.

    The expansion is identically zero when the multiplier is smooth.
    """
    if _smooth_multiplier(s):
        return None
    from scipy.special import gammaln, gammasgn  # lazily: see the module docstring

    k = np.arange(_TAIL_KMAX)
    pole_arg = -0.5 * s - k
    log_mag = (
        -gammaln(k + 1.0)
        + (s + 2 * k) * math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        + gammaln(0.5 * (d + s) + k)
        - gammaln(pole_arg)
    )
    sign = (-1.0) ** k * gammasgn(pole_arg)
    return sign * np.exp(log_mag)


def _tail_values(coeffs: np.ndarray, s: float, d: int, y: np.ndarray) -> np.ndarray:
    """Far-field H from the expansion, truncated at the smallest term."""
    y = np.asarray(y, dtype=float)
    k = np.arange(len(coeffs))
    powers = y[None, :] ** (-(d + s + 2.0 * k[:, None]))
    terms = coeffs[:, None] * powers
    mags = np.abs(terms)
    increasing = mags[1:] >= mags[:-1]
    cutoff = np.where(increasing.any(axis=0), increasing.argmax(axis=0) + 1, len(coeffs))
    mask = k[:, None] < cutoff[None, :]
    return (terms * mask).sum(axis=0)


# The far field of H for one unit norm: |c0| and H_tail at the splitting
# radius (sup norm) or on the nodes of :func:`_octave_rule` (finite p).
_FarField = tuple[float, np.ndarray]


def _tail_lp_integral(
    far: _FarField, s: float, d: int, p_value: float, h_scale: float
) -> float:
    """Integral over (_SPLIT_FACTOR, inf) of |H_tail / h_scale|^p y^(d-1) dy.

    Geometric panels, one per octave out to 2^41 * _SPLIT_FACTOR, closed by
    the leading-power remainder (|c0|/h_scale)^p * X^(-E)/E with
    E = p*(d+s) - d; the next-order correction there is smaller by a factor
    X^(-2).  The integrand is pre-scaled by the profile's peak so that large
    exponents cannot overflow.
    """
    leading, values = far
    decay = p_value * (d + s) - d
    edges, nodes, weights = _octave_rule()
    h = values / h_scale
    octaves = float(np.sum(weights * np.abs(h) ** p_value * nodes ** (d - 1)))
    closing = math.exp(
        p_value * (math.log(leading) - math.log(h_scale))
        - decay * math.log(edges[-1])
    ) / decay
    return octaves + closing


# A scout sign change whose two values both lie below this fraction of the
# grid's largest |H| is quadrature roundoff, not a zero: where a Gaussian
# tail has decayed below it, the computed profile flips sign at random.
_ZERO_FLOOR = 1e-12


def _profile_zeros(profile: _RadialProfile) -> list[float]:
    """Sign-change locations of the profile on (0, _SPLIT_FACTOR), by bisection.

    Needed because |H|^p is only C^1 at zeros of H unless p is an even
    integer, which would degrade the panel rule; the zeros become panel
    edges instead.  Sign changes between values below ``_ZERO_FLOOR`` times
    the largest scout value are ignored.
    """
    scout, values = profile.on_nodes("scout")
    zeros: list[float] = []
    magnitude = np.abs(values)
    above_floor = np.maximum(magnitude[:-1], magnitude[1:]) >= _ZERO_FLOOR * magnitude.max()
    sign_change = np.nonzero((values[:-1] * values[1:] < 0.0) & above_floor)[0]
    for i in sign_change:
        lo, hi = float(scout[i]), float(scout[i + 1])
        f_lo = float(values[i])
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            f_mid = float(profile(np.array([mid]))[0])
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        zeros.append(0.5 * (lo + hi))
    return zeros


def _norm_at_level(
    d: int, s: float, p: LebesgueExponent, level: str, far: _FarField | None
) -> float:
    """||H||_p of the unit profile at one quadrature level.

    ``far`` is the far field of (d, s, p), or None for a smooth multiplier.
    """
    profile = _RadialProfile(d, s, level)

    if p.recip == 0.0:
        peak = abs(float(profile(np.zeros(1))[0]))
        if far is not None and abs(float(far[1][0])) > peak:
            raise AccuracyError("sup apparently beyond the splitting radius")
        return peak

    p_value = p.value
    p_even = 0.5 * p_value == math.floor(0.5 * p_value)
    edges, _, weights = _radial_rule(level)
    if p_even or s == 0.0:
        # |H|^p is smooth (even power, or a positive profile): cached nodes
        nodes, h = profile.on_nodes("lp")
    else:
        zeros = _profile_zeros(profile)
        if zeros:
            edges = np.unique(np.concatenate([edges, np.asarray(zeros)]))
        nodes, weights = _panel_rule(edges, _LEVELS[level][1])
        h = profile(nodes)
    habs = np.abs(h)
    h_scale = float(habs.max())
    if h_scale == 0.0:
        return 0.0
    main = float(np.sum(weights * (habs / h_scale) ** p_value * nodes ** (d - 1)))
    tail = _tail_lp_integral(far, s, d, p_value, h_scale) if far is not None else 0.0
    return h_scale * (surface_area(d) * (main + tail)) ** (1.0 / p_value)


def unit_heat_norm(
    d: int, s: float, p: LebesgueExponent, *, target_rel: float = 1e-6
) -> float:
    """||H||_p of the unit profile of (d, s), checked to ``target_rel``.

    The norm is evaluated at two quadrature levels; their relative
    disagreement is the error estimate and must not exceed ``target_rel``.
    The far field does not depend on the level, so it is tabulated once and
    both levels read it.
    """
    if d not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {d!r}")
    if not (s > -d):
        raise DomainError(f"need s > -d for integrability, got s={s!r}, d={d}")
    if p.recip > 0.0 and not _smooth_multiplier(s) and p.value * (d + s) <= d:
        raise DomainError(
            f"Lp norm diverges: the profile decays like r^-(d+s) and "
            f"p*(d+s) = {p.value * (d + s)!r} <= d = {d}"
        )
    far = None
    coeffs = _tail_coefficients(s, d)
    if coeffs is not None:
        y = np.array([_SPLIT_FACTOR]) if p.recip == 0.0 else _octave_rule()[1]
        far = (abs(coeffs[0]), _tail_values(coeffs, s, d, y))
    coarse = _norm_at_level(d, s, p, "coarse", far)
    fine = _norm_at_level(d, s, p, "fine", far)
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise AccuracyError(f"non-finite norm evaluations ({coarse!r}, {fine!r})")
    err = abs(coarse - fine) / max(abs(fine), 1e-300)
    if err > target_rel:
        raise AccuracyError(
            f"quadrature levels disagree by {err:.3e} > target {target_rel:.1e}"
        )
    return fine


def _dilate(unit: float, f: RadialTestFunction, s: float, t: float, p: LebesgueExponent) -> float:
    """||h||_p from the unit profile's norm ``unit``, in closed form; needs t >= 0.

    ||h||_p = (pi/a)^(d/2) * b^e * ||H||_p with b = t + 1/(4a) and
    e = d/(2p) - (s+d)/2.  With pi/a = m1 * 2^k1 and b = m2 * 2^k2, e and
    the exponent x of 2^x are exact Fractions, and 2^x is split into 2^n and
    2^(x - n): the product leaves float range only where the norm, pi/a or b
    does.  Through exp(log(scale)), or with e rounded, it loses about
    |log(scale)| ulps.
    """
    d = f.d
    e = (d * Fraction(p.recip) - Fraction(s) - d) / 2
    m1, k1 = math.frexp(math.pi / f.width)
    m2, k2 = math.frexp(t + 0.25 / f.width)
    x = Fraction(d * k1, 2) + e * k2
    n = math.floor(x)
    try:
        norm = math.ldexp(m1 ** (0.5 * d) * m2 ** float(e) * 2.0 ** float(x - n) * unit, n)
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise AccuracyError(f"norm at width {f.width!r}, t = {t!r} is beyond float range")
    return norm


def fractional_heat_norm(
    f: RadialTestFunction,
    s: float,
    t: float,
    p: LebesgueExponent,
    *,
    target_rel: float = 1e-6,
) -> float:
    """Lp norm of |grad|^s applied to the heat flow of a Gaussian.

    :func:`unit_heat_norm` measures the unit profile, and the dilation to
    b = t + 1/(4a) is applied in closed form, with its power of two carried
    exactly.  The time is checked first, so a negative one is a
    :class:`DomainError` whatever the measurement would raise.
    """
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t!r}")
    return _dilate(unit_heat_norm(f.d, s, p, target_rel=target_rel), f, s, t, p)


def frequency_space_l2_norm(f: RadialTestFunction, s: float, t: float) -> float:
    """L2 norm via the frequency side: (2pi)^(-d/2) ||ghat||_2, by quadrature."""
    d = f.d
    if 2.0 * s + d <= 0.0:
        raise DomainError(f"need s > -d/2 for the L2 norm, got s={s!r}")
    from scipy.integrate import quad  # lazily: see the module docstring

    b = t + 0.25 / f.width
    cf = (math.pi / f.width) ** (0.5 * d)
    cutoff = math.sqrt(_FREQ_CUTOFF / b)
    integral, _ = quad(
        lambda rho: rho ** (2.0 * s + d - 1.0) * math.exp(-2.0 * b * rho * rho),
        0.0,
        cutoff,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return (2.0 * math.pi) ** (-0.5 * d) * cf * math.sqrt(surface_area(d) * integral)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """Rows of (parameters..., measured, bound, slack) with slack relative.

    slack = (bound - measured)/bound; a row violates domination when
    slack < -DOMINANCE_RTOL.
    """

    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    @property
    def slacks(self) -> list[float]:
        return [row[-1] for row in self.rows]

    @property
    def worst_slack(self) -> float:
        return min(self.slacks) if self.rows else math.inf

    @property
    def ok(self) -> bool:
        return all(slack >= -DOMINANCE_RTOL for slack in self.slacks)

    def violations(self) -> list[tuple]:
        return [row for row in self.rows if row[-1] < -DOMINANCE_RTOL]

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(self.header) + "\n")
            for row in self.rows:
                handle.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, LebesgueExponent):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


ParabolicCase = tuple[int, float, LebesgueExponent, LebesgueExponent, float]


def default_parabolic_grid(dims: Iterable[int] = (1, 2, 3)) -> list[ParabolicCase]:
    """Admissible (d, s, r, p, t) cases over the standard sweep menu."""
    exponent_pairs = [
        (LebesgueExponent(1.0), LebesgueExponent(0.5)),
        (LebesgueExponent(0.5), LebesgueExponent(0.5)),
        (LebesgueExponent(1.0), LebesgueExponent(0.0)),
        (LebesgueExponent(0.5), LebesgueExponent(0.0)),
        (LebesgueExponent(0.5), LebesgueExponent(0.25)),
    ]
    cases: list[ParabolicCase] = []
    for d in dims:
        for s in (0.0, 0.5, 1.0, 2.0, 3.5, -0.25):
            for r, p in exponent_pairs:
                if s < 0.0 and not (-s < d * (r.recip - p.recip)):
                    continue
                for t in (0.1, 1.0, 10.0):
                    cases.append((d, s, r, p, t))
    return cases


def check_parabolic(grid: Iterable[ParabolicCase], widths: Sequence[float]) -> SweepReport:
    """Measure ||grad^s e^{t*Lap} f||_p / ||f||_r against the closed-form bound.

    Rows are emitted in grid order, widths innermost.  The unit-profile norm
    depends on (d, s, p) alone, so each is measured once per call, at the
    first row that needs it, and every row dilates it in closed form exactly
    as :func:`fractional_heat_norm` does; ``bound_at_time`` rejects t <= 0
    before any norm is taken.
    """
    report = SweepReport(
        header=("d", "s", "r", "p", "t", "width", "measured", "bound", "slack")
    )
    unit_norms: dict[tuple[int, float, float], float] = {}
    for d, s, r, p, t in grid:
        for width in widths:
            bound = bound_at_time(ParabolicParams(p, r, s, d), t)
            f = RadialTestFunction(width, d)
            key = (d, s, p.recip)
            if key not in unit_norms:
                unit_norms[key] = unit_heat_norm(d, s, p)
            measured = _dilate(unit_norms[key], f, s, t, p) / gaussian_lp_norm(width, d, r)
            slack = (bound - measured) / bound
            report.rows.append((d, s, r, p, t, width, float(measured), bound, float(slack)))
    return report


def gns_ratio(problem: GnsProblem, theta_value: float, width: float) -> float:
    """Measured interpolation ratio on a Gaussian of the given width."""
    f = RadialTestFunction(width, problem.d)
    num = fractional_heat_norm(f, problem.s, 0.0, problem.p)
    den1 = fractional_heat_norm(f, problem.s1, 0.0, problem.p1)
    den2 = fractional_heat_norm(f, problem.s2, 0.0, problem.p2)
    return num / (den1**theta_value * den2 ** (1.0 - theta_value))


def check_gns(
    certificate: BoundCertificate,
    widths: Sequence[float],
    dilations: Sequence[float],
) -> SweepReport:
    """Measured interpolation ratios against a certificate's bound value.

    Dilation lam rescales a base width a to a*lam^2 (the Gaussian analogue of
    f(x) -> f(lam*x)); the ratio is scale-free.  Every norm is measured on the
    unit profile and dilated in closed form, so at t = 0 every row divides
    the same three unit norms: the rows agree up to rounding by construction
    and check the closed-form scale factors, not the discretization.
    """
    problem = certificate.problem
    theta_value = certificate.theta.value
    report = SweepReport(header=("width", "dilation", "measured", "bound", "slack"))
    for width in widths:
        for lam in dilations:
            ratio = gns_ratio(problem, theta_value, width * lam * lam)
            slack = (certificate.value - ratio) / certificate.value
            report.rows.append((width, lam, float(ratio), certificate.value, float(slack)))
    return report
