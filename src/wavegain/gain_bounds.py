"""Certified brackets for the asymptotic disturbance-to-displacement gains.

Four quantities bracket the two true gains of the damped string:
L_inf <= gamma_inf <= U_inf (sup-norm in space) and L_2 <= gamma_2 <= U_2
(L2 norm in space). Upper bounds come from closed-form estimates of the
per-mode forcing kernels; lower bounds maximize the exact periodic-response
gains over the forcing frequency. U_inf exists only where the feasibility
condition 2 < 2*mu*sigma + sigma^2*pi^2 holds; in that regime the asymptotic
gain itself is known to be finite, so L_inf is unconditional there and
conditional elsewhere.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._numerics import refine_local_maxima
from .freq_response import DampingParams, l2_stats_at, sup_gain_at
from .modal import _check_mode_index, _mode_table

__all__ = [
    "ModeConstants",
    "GainBounds",
    "U2Value",
    "LowerBound",
    "InternalConsistencyError",
    "upper_sup",
    "lower_sup",
    "mode_constants",
    "upper_l2",
    "lower_l2",
    "gain_bounds",
]

INV_SQRT3 = 1.0 / math.sqrt(3.0)
ZETA2 = math.pi * math.pi / 6.0


class InternalConsistencyError(AssertionError):
    """A computed set of bounds violated an ordering that must always hold.

    Raised by gain_bounds when e.g. a lower bound exceeds its upper bound
    beyond rounding slack; this signals an implementation bug, never a
    property of the inputs.
    """


def _feasible(params: DampingParams) -> bool:
    # the regime where the sup-gain is known finite, 2 < 2 mu sigma +
    # sigma^2 pi^2: it holds for every sigma > 0 once mu sigma >= 1, even
    # where sigma^2 underflows to 0. That test is exact on the float inputs:
    # (a/b)(c/d) >= 1 in integers
    (a, b), (c, d) = (params.mu.as_integer_ratio(),
                      params.sigma.as_integer_ratio())
    if a * c >= b * d:
        return True
    return 2.0 < 2.0 * params.mu * params.sigma + params.sigma ** 2 * math.pi ** 2


# ---------------------------------------------------------------------------
# frequency search constants
# ---------------------------------------------------------------------------

# Fixed search constants; _spike_search says what each one sets.
OMEGA_MIN = 1e-3
BASE_POINTS = 256
WINDOW_HALF_WIDTH = 0.5
REFINE_TOL = 1e-8
STALE_WINDOWS = 5


# ---------------------------------------------------------------------------
# U_inf: closed 1-D minimization over the root angle
# ---------------------------------------------------------------------------

def _theta_objective(s: float, theta: np.ndarray) -> np.ndarray:
    """f(theta) = 1 / (sin(theta) * (1 - |s|/(s + (pi-theta)^2))).

    s is the shifted damping parameter (mu*sigma - 1)/sigma^2; f is finite
    and positive on (0, pi - sqrt(max(0, -2s))) and blows up at both ends.
    """
    gap = math.pi - theta
    # 1 - |s|/(s + gap^2) without cancellation: numerator is gap^2 for
    # s >= 0, 2s + gap^2 for s < 0
    num = gap * gap if s >= 0.0 else 2.0 * s + gap * gap
    return 1.0 / (np.sin(theta) * (num / (s + gap * gap)))


def upper_sup(params: DampingParams) -> Optional[float]:
    """Upper bound U_inf for the asymptotic sup-norm gain, or None.

    None when 2 < 2*mu*sigma + sigma^2*pi^2 fails (no finite bound is
    established there); this is the one place that decides the regime.
    Otherwise the infimum of _theta_objective, located on a 4096-point grid
    and polished to 1e-10 in theta by the same zoom as the frequency search
    (refine_local_maxima on its negative: about eight passes of 16 points
    per grid minimum).
    The result is clamped below at 1 (the gain itself never drops below 1).
    An infimum past the float range raises ValueError naming sigma and mu.
    """
    if not _feasible(params):
        return None
    sig2 = params.sigma ** 2
    excess = params.mu * params.sigma - 1.0
    # sigma^2 underflows to 0 only where mu*sigma >= 1: there s = +inf,
    # or 0 at mu*sigma = 1
    s = excess / sig2 if sig2 else (math.inf if excess else 0.0)
    theta_max = math.pi - math.sqrt(max(0.0, -2.0 * s))  # pi if s >= 0
    thetas = np.linspace(0.0, theta_max, 4098)[1:-1]
    with np.errstate(over="ignore", divide="ignore"):  # inf: refused below
        vals = _theta_objective(s, thetas)
        _, neg_best = refine_local_maxima(
            lambda t: -_theta_objective(s, t), thetas, -vals, tol=1e-10)
    if neg_best == -math.inf:
        raise ValueError(f"sigma={params.sigma!r}, mu={params.mu!r}: U_inf "
                         f"is past the float range")
    return max(1.0, -neg_best)


# ---------------------------------------------------------------------------
# shared spike-aware maximization over omega
# ---------------------------------------------------------------------------

def _window_point_count(delta: float) -> int:
    # resolve the Lorentzian-like peak: spacing about a quarter of its width
    raw = (int(round(2.0 * WINDOW_HALF_WIDTH / (0.25 * delta)))
           if delta > 0.0 else 513)
    count = min(513, max(33, raw))
    return count + 1 if count % 2 == 0 else count


def _spike_search(params, evaluate, limit_value):
    """Maximize a gain curve: log base grid + windows at multiples of pi.

    The curve is sampled on a logarithmic grid of BASE_POINTS (256) over
    [OMEGA_MIN, max(20*pi, 4/sigma)], then on dense linear windows of
    half-width WINDOW_HALF_WIDTH around each multiple of pi in that range
    (the resonant spikes sit near those). evaluate(params, omega) takes a
    1-D array of frequencies and returns their values. One call gives a
    scan's values; then refine_local_maxima zooms on all grid maxima of the
    scan together to REFINE_TOL, one call per pass on 16 points of every
    open bracket, each pass shrinking a bracket to 2/17 of its width. A
    scan whose widest bracket (two grid cells around a maximum, one at an
    end) is W wide thus costs at most 1 + ceil(log(W/REFINE_TOL) /
    log(17/2)) calls (7 or 8 passes in a window), plus one pass when an
    end-of-scan probe, made REFINE_TOL inside that end, shows the curve
    rising there and opens a bracket.

    Returns (best_value, best_omega); best_omega = 0.0 marks the omega -> 0
    limit candidate, which is seeded first so exact ties resolve to it.
    Deterministic: fixed grids, left-to-right refinement, strict-improvement
    updates (ties keep the smaller omega). The window scan stops after
    STALE_WINDOWS windows in a row that do not raise the best, by the same
    strict test that accepts a candidate; on a curve that never rises above
    its omega -> 0 limit that is the first five windows.
    """
    hi = max(20.0 * math.pi, 4.0 / params.sigma)
    if not math.isfinite(hi):
        raise ValueError(
            f"sigma={params.sigma!r} is too small: the search range "
            f"max(20*pi, 4/sigma) = {hi} is not finite")

    best_w, best_v = 0.0, float(limit_value)

    def scan(xs) -> bool:
        """Refine the grid maxima of xs; True if that raised the best."""
        nonlocal best_w, best_v
        vals = np.asarray(evaluate(params, xs), dtype=float)
        w, v = refine_local_maxima(
            lambda x: evaluate(params, x), xs, vals, tol=REFINE_TOL)
        if v > best_v:
            best_w, best_v = w, v
            return True
        return False

    # NaN gains past omega ~ 1.3e154 are never a maximum; a rate overflows to
    # -inf past mu ~ 2.7e154, which gives a window the full 513 points
    with np.errstate(over="ignore", invalid="ignore"):
        scan(np.geomspace(OMEGA_MIN, hi, BASE_POINTS))
        stale = 0
        for n in range(1, math.ceil(hi / math.pi) + 1):
            center = n * math.pi
            a = max(OMEGA_MIN, center - WINDOW_HALF_WIDTH)
            b = min(hi, center + WINDOW_HALF_WIDTH)
            if a >= b:
                continue
            count = _window_point_count(float(_mode_table(params, n).rate))
            if scan(np.linspace(a, b, count)):
                stale = 0
            else:
                stale += 1
                if stale >= STALE_WINDOWS:
                    break
    return best_v, best_w


class LowerBound(NamedTuple):
    """A lower bound on a gain and the frequency where it was attained.

    argmax_omega = 0.0 marks the omega -> 0 limit. It is fixed only to the
    curve's rounding plateau at its maximum: ulp-level changes in
    sup_gain_at moved L_inf's by 5.2e-8 at (sigma, mu) = (0.01, 2.0).
    """

    value: float
    argmax_omega: float


def lower_sup(params: DampingParams) -> LowerBound:
    """Lower bound L_inf: the largest per-frequency sup gain found.

    Spike-aware search (see _spike_search); the omega -> 0 limit value 1 is
    always a candidate, so L_inf >= 1 up to rounding. Where upper_sup is
    None it bounds the gain only if the gain is finite at all.
    """
    return LowerBound(*_spike_search(params, sup_gain_at, limit_value=1.0))


def lower_l2(params: DampingParams) -> LowerBound:
    """Lower bound L_2: the largest per-frequency L2 gain found.

    Same search strategy as lower_sup; the omega -> 0 limit value 1/sqrt(3)
    is always a candidate.
    """
    return LowerBound(*_spike_search(
        params, lambda p, w: l2_stats_at(p, w).Q, limit_value=INV_SQRT3))


# ---------------------------------------------------------------------------
# per-mode kernel amplification factors
# ---------------------------------------------------------------------------

def _amplification_array(params: DampingParams, ns) -> np.ndarray:
    """Kernel L1 amplification factor A_n for an integer array of modes.

    A_n is the ratio of the L1 norm of the forcing kernel of mode n to its
    plain integral; it exceeds 1 exactly where the kernel changes sign.
    mu*sigma >= 1 makes every kernel one-signed, so A_n = 1 identically.
    For mu*sigma < 1 the closed forms are, with k = (mu + n^2 pi^2 sigma)/2
    and w = sqrt(1 - mu*sigma):
      overdamped, n*pi*sigma >= 1:  1 + 2w (Q/P)^(k/2r) = 1 + 2w (w/P)^(k/r),
          P = sigma(k+r) - 1, Q = sigma(k-r) - 1 = w^2/P (P*Q = 1 - mu*sigma).
          Q is never formed: sigma(k-r) - 1 cancels once n*pi*sigma >> 1.
          k > n*pi makes sigma*k > 1, so P > w > Q > 0 and A_n > 1; with
          k/r >= 1 and sigma*k >= (n pi sigma)^2/2 this gives the envelope
          A_n - 1 <= 2w^2/P <= 4w^2/((n pi sigma)^2 - 2) that upper_l2 uses;
      overdamped, n*pi*sigma < 1:   1 (kernel one-signed);
      underdamped:  1 + 2w exp((k/omega_n)(arccos(c) - pi))
                        / (1 - exp(-pi k/omega_n)),
          c = (2 - mu*sigma - n^2 pi^2 sigma^2)/(2w);
      near-critical (within 1e-9 relative of k = n*pi): the two-sided limit,
          1 + 2w exp(-1 - 1/w) when n*pi*sigma > 1, else 1.
    The regime, near-critical flag, r and omega_n are the fields of
    modal._mode_table; only the n*pi*sigma tests are made here.
    """
    ns = np.asarray(ns, dtype=float)
    sigma, mu = params.sigma, params.mu
    A = np.ones_like(ns)
    musig = mu * sigma
    if musig >= 1.0:
        return A
    w = math.sqrt(1.0 - musig)

    npi, k, disc, root, crit, _ = _mode_table(params, ns)

    near_plus = crit & (npi * sigma > 1.0)
    if near_plus.any():
        A[near_plus] = 1.0 + 2.0 * w * math.exp(-1.0 - 1.0 / w)

    over = (disc > 0.0) & ~crit & (npi * sigma >= 1.0)
    if over.any():
        ko, r = k[over], root[over]
        P = sigma * (ko + r) - 1.0
        A[over] = 1.0 + 2.0 * w * np.exp((ko / r) * np.log(w / P))

    under = (disc < 0.0) & ~crit
    if under.any():
        ku, nu = k[under], npi[under]
        wn = root[under]
        c = (2.0 - musig - (nu * sigma) ** 2) / (2.0 * w)
        c = np.clip(c, -1.0, 1.0)  # |c| < 1 holds analytically off criticality
        A[under] = 1.0 + (2.0 * w * np.exp((ku / wn) * (np.arccos(c) - math.pi))
                          / (-np.expm1(-math.pi * ku / wn)))
    return A


@dataclass(frozen=True)
class ModeConstants:
    """Damping decomposition of one sine mode.

    Exactly one of r_n (overdamped/critical split) and omega_n (underdamped
    frequency) is set; beta_n = k_n/r_n is the overdamped power exponent.
    All of them are read off modal._mode_table, whose exact sign of
    k_n^2 - n^2 pi^2 gives the regime even when A_n is evaluated by the
    near-critical limit.
    """

    n: int
    k_n: float
    r_n: Optional[float]
    omega_n: Optional[float]
    regime: str
    beta_n: Optional[float]
    A_n: float


def mode_constants(params: DampingParams, n: int) -> ModeConstants:
    """Regime split, decay constants and amplification factor of mode n."""
    n = _check_mode_index(n)
    _, k, disc, root, _, _ = map(float, _mode_table(params, n))
    A = float(_amplification_array(params, np.array([n]))[0])
    if disc > 0.0:
        return ModeConstants(n=n, k_n=k, r_n=root, omega_n=None,
                             regime="overdamped", beta_n=k / root, A_n=A)
    if disc == 0.0:
        return ModeConstants(n=n, k_n=k, r_n=0.0, omega_n=None,
                             regime="critical", beta_n=None, A_n=A)
    return ModeConstants(n=n, k_n=k, r_n=None, omega_n=root,
                         regime="underdamped", beta_n=None, A_n=A)


# ---------------------------------------------------------------------------
# U_2: weighted series over the amplification factors
# ---------------------------------------------------------------------------

class U2Value(float):
    """The L2-gain upper bound, annotated with how its series was summed.

    Behaves as a plain float. terms is the number M of explicitly summed
    modes (0 for the exact mu*sigma >= 1 branch). The modes past M enter
    through the upper end of a proven bracket on their sum, so the value
    sits on the safe side of the tail; truncation_error_bound is the
    bracket's width carried through to U_2, so the untruncated series value
    lies in [value - truncation_error_bound, value].
    """

    truncation_error_bound: float
    terms: int

    def __new__(cls, value, truncation_error_bound, terms):
        obj = super().__new__(cls, value)
        obj.truncation_error_bound = float(truncation_error_bound)
        obj.terms = int(terms)
        return obj


# Modes per block of the explicit U_2 sum; keeps its memory independent of
# sigma.
_CHUNK = 1 << 16
# The tail bracket may cost U_2 at most this relative width.
_U2_RTOL = 1e-13
# Explicit U_2 terms allowed below n0 = 2/(pi sigma) (2^28, a few seconds per
# 10^8 terms): at mu*sigma < 1 that refuses sigma below 2/(pi 2^28) ~ 2.37e-9.
_U2_MAX_TERMS = 1 << 28


def _excess_terms(params: DampingParams, ns) -> np.ndarray:
    """g(n) = (A_n^2 - 1)/n^2 for an array of modes n.

    upper_l2's tail also evaluates it between integers past 2/(pi sigma),
    where only the overdamped closed form applies and is smooth in n.
    """
    A = _amplification_array(params, ns)
    return (A - 1.0) * (A + 1.0) / (ns * ns)


def _tail_conditions(w, theta):
    """True where conditions (M) and (C) of upper_l2 hold at theta >= 3."""
    C, S = 1.0 / math.tanh(theta), 1.0 / math.sinh(theta)
    dp = C - theta * S * S                      # p'
    d2p = 2.0 * (theta * C - 1.0) * S * S       # p''
    dq = (theta * C - 1.0) * S                  # |q'|
    d2q = (theta * (C * C + S * S) - 2.0 * C) * S   # q''
    s = (1.0 + w * w + 2.0 * w * math.cosh(theta)) / (w * math.sinh(theta))
    tbar = w * w / (1.0 + w * w)
    c = 1.0 + tbar
    # a relative slack keeps rounding from accepting a point just short
    slack = 1.0 - 1e-9
    return (dq <= w * (dp + 1.0 / s) * slack
            and d2q + (1.5 + C) * dq <= w * slack * (
                (6.0 - 4.0 * tbar) / (c * s * s)
                + ((4.0 - c) / (c * s) + C) * dp - d2p))


def _tail_convex_from(w):
    """A u = n pi sigma past which g is proven decreasing and convex.

    Bisects theta for the start of the run where (M) and (C) hold, which
    upper_l2's docstring shows to persist for theta >= 3 once begun; u = 2
    and theta = 3 bound it below. About 4.7 at w = 1, 2.6 at w = 0.1, 4.6
    at w = 1e-4 and 6.2 at w = 1e-8 (w^2 = 1 - mu sigma).
    """
    lo = max(3.0, math.acosh((3.0 - w * w) / (2.0 * w)))
    hi = lo
    while not _tail_conditions(w, hi):
        lo, hi = hi, hi + 1.0
    if hi > lo:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _tail_conditions(w, mid):
                hi = mid
            else:
                lo = mid
    return math.sqrt(1.0 + w * w + 2.0 * w * math.cosh(hi))


def _explicit_excess(params, start, stop):
    """sum of g(n) over start <= n < stop, in blocks of _CHUNK modes."""
    excess = 0.0
    for lo in range(start, stop, _CHUNK):
        ns = np.arange(lo, min(lo + _CHUNK, stop), dtype=float)
        excess += float(_excess_terms(params, ns).sum())
    return excess


def upper_l2(params: DampingParams) -> U2Value:
    """Upper bound U_2 = (1/pi) sqrt(2 sum A_n^2/n^2) for the L2 gain.

    Exactly 1/sqrt(3) when mu*sigma >= 1 (all A_n = 1 and the series is
    zeta(2)). Otherwise U_2 = sqrt(1 + D/zeta(2))/sqrt(3) with the excess
    D = sum g(n), g(n) = (A_n^2 - 1)/n^2 >= 0. The modes n <= M are summed
    explicitly; the tail sum over n > M is bracketed as [lo, hi], and the
    printed U_2 takes hi, so it lies on the safe side of the tail.
    truncation_error_bound is hi - lo carried through to U_2 (its slope in
    D is 1/(6 zeta(2) U_2)), kept at most 1e-13 U_2; terms is M.

    Envelope. Past n0 = 2/(pi sigma) every mode is overdamped with
    n pi sigma > 2, so the envelope in _amplification_array gives
    A_n - 1 <= 8w^2/(n pi sigma)^2 <= 2w^2 (w^2 = 1 - mu*sigma), hence
    A_n^2 - 1 <= (2 + 2w^2)(A_n - 1). With sum_{n>M} n^-4 <= 1/(3M^3) the
    tail past M > n0 lies in [0, 16 w^2 (1 + w^2) / (3 (pi sigma)^2 M^3)].
    That crude bracket is taken with M = ceil(n0) + 1 when it is already
    narrow enough: at small sigma, where D is large, or w tiny.

    Tail variables. With u = n pi sigma, m = mu sigma, a = sigma k =
    (m + u^2)/2, b = sigma r = sqrt(a^2 - u^2) and P = a + b - 1, the
    identity (a - 1)^2 - b^2 = w^2 gives a - 1 = w cosh(theta),
    b = w sinh(theta), P = w e^theta and u^2 = 1 + w^2 + 2w cosh(theta),
    theta > 0 increasing in u. Then h = A - 1 = 2w (w/P)^(a/b) =
    2w exp(-phi(theta)) with phi = p + q/w, p = theta coth(theta),
    q = theta/sinh(theta), and g(n) = (pi sigma)^2 G(u),
    G = h(h + 2)/u^2. For u > 2, P > 1 (u^2 = P + 1 + w^2 + w^2/P is at
    most 4 on w <= P <= 1), so h < 2w^2 and tau = h/(h + 2) < tbar =
    w^2/(1 + w^2).

    Monotone and convex. Let psi(u) = phi(theta(u)), y = u psi'(u) and
    s = u^2/b. Differentiating ln G = ln 2w - psi + ln(h + 2) - 2 ln u,
    with (ln(h + 2))' = -tau psi' and tau' = -tau (1 - tau) psi',
        u G'/G = -(1 + tau) y - 2,
        u^2 G''/G = (1 + 3tau) y^2 + 4(1 + tau) y + 6 - (1 + tau) u^2 psi''.
    So G decreases where y >= -1, and then, as (1 + 3tau) y^2 +
    4(1 + tau) y >= 4y - 4tbar, G is convex where
    (1 + tbar) u^2 psi'' <= 6 - 4tbar + 4y. Since d theta/du = u/b and
    d b/d theta = a - 1, y = s phi' and u^2 psi'' = s^2 phi'' +
    s phi' (1 - s coth(theta)). Using p' > 0, p'' > 0, q' < 0, q'' > 0
    and 1/s <= tanh(theta)/2, the two conditions follow from
      (M)  |q'| <= w (p' + 1/s),
      (C)  q'' + (3/2 + coth(theta)) |q'| <= w (A_s + B_s p' - p''),
           A_s = (6 - 4tbar)/(c s^2), B_s = (4 - c)/(c s) + coth(theta),
           c = 1 + tbar.
    Both persist once true at some theta >= 3 (with u >= 2): their left
    sides fall and right sides rise. With C = coth, S = 1/sinh:
    |q'| = (theta C - 1) S falls because q'' = S (theta (C^2 + S^2) - 2C)
    > 0 for theta >= 2; q'' falls because q''' = S (3(C^2 + S^2) -
    theta C (C^2 + 5S^2)) < 0 for theta >= 3; p' rises (p'' = 2(theta C -
    1) S^2 > 0); p'' falls and p' coth rises for theta >= 3/2 (their
    derivatives are 2S^2 (3C - 2 theta C^2 - theta S^2) < 0 and
    S^2 (2 theta C^2 - 3C + theta S^2) > 0); and s falls, as
    d(b/u^2)/d theta = w ((1 + w^2) cosh(theta) + 2w)/u^4 > 0.
    _tail_convex_from bisects for the start u_c of that run. g need not
    be convex right past n0: at mu sigma = 0.99 it is concave up to
    u = 2.49, and at 1 - 1e-16 it rises up to u = 4.7, so u_c grows as w
    falls (6.2 at w = 1e-8).

    Tail bracket. For g convex on [M + 1/2, inf) the midpoint and
    trapezoid inequalities on each unit cell (Hermite-Hadamard) give
        int_{M+1}^inf g + g(M+1)/2 <= sum_{n>M} g(n) <= int_{M+1/2}^inf g.
    The integral from M + 1 is bracketed by the same inequalities on N
    panels uniform in 1/x, from M + 1 to X = N (M + 1), plus [0, the
    envelope's 16 w^2 (1 + w^2)/(3 (pi sigma)^2 X^3)] past X;
    int_{M+1/2}^{M+1} g is bounded above by one trapezoid. The bracket
    thus holds for the exact g; its float evaluation, like the explicit
    sum's, is not bounded here.

    Work. The width budget in D is 1e-13 (zeta(2) + D), the explicit sum
    to ceil(n0) + 1 standing in for D. M = max(ceil(n0) + 1,
    ceil(u_c/(pi sigma)), M_w), where M_w = (4 w^2/((pi sigma)^2
    budget))^(1/5) fits the cells' share of the width, about
    2 w^2/((pi sigma)^2 M^5), into half the budget. N is set to fit the
    panels' share, about 10 w^2/((pi sigma)^2 N^2 M^3), into the other
    half, and doubles while it does not. That is a few hundred to about
    1700 modes and at most a few hundred panels for sigma in [1e-2, 5];
    below about sigma = 1e-3 the explicit part up to n0 dominates and
    grows like 1/sigma. The explicit sum runs in blocks of at most _CHUNK
    modes. n0 >= _U2_MAX_TERMS raises ValueError before any work.
    """
    musig = params.mu * params.sigma
    if musig >= 1.0:
        return U2Value(INV_SQRT3, truncation_error_bound=0.0, terms=0)

    pis = math.pi * params.sigma
    n0 = 2.0 / pis
    if not n0 < _U2_MAX_TERMS:
        raise ValueError(f"sigma={params.sigma!r} is too small: U_2 would "
                         f"sum {n0:.3g} terms, above {_U2_MAX_TERMS}")
    w2 = 1.0 - musig
    w = math.sqrt(w2)
    # the envelope leaves at most envelope / L^3 of D past L > n0 modes
    envelope = 16.0 * w2 * (1.0 + w2) / (3.0 * pis ** 2)
    m_terms = math.ceil(n0) + 1
    excess = _explicit_excess(params, 1, m_terms + 1)
    # the tail bracket's width budget in D; U_2's relative slope in D is
    # 1/(2 (zeta(2) + D)), so it costs U_2 at most half of _U2_RTOL
    budget = _U2_RTOL * (ZETA2 + excess)
    lo = 0.0
    hi = envelope / m_terms ** 3
    if hi > budget:
        m_new = max(m_terms, math.ceil(_tail_convex_from(w) / pis),
                    math.ceil((4.0 * w2 / (pis * pis * budget)) ** 0.2))
        excess += _explicit_excess(params, m_terms + 1, m_new + 1)
        m_terms = m_new
        x1 = m_terms + 1.0
        panels = max(8, math.ceil(math.sqrt(
            20.0 * w2 / (pis * pis * x1 ** 3 * budget))))
        # int_{M+1}^inf g: per panel, midpoint <= integral <= trapezoid;
        # past the last node, 0 <= integral <= the envelope's. The cap
        # bounds memory; a wider bracket is still reported as it is.
        while True:
            nodes = x1 * panels / np.arange(panels, 0, -1, dtype=float)
            mids = 0.5 * (nodes[:-1] + nodes[1:])
            widths = np.diff(nodes)
            g = _excess_terms(params,
                              np.concatenate((nodes, mids, [x1 - 0.5])))
            g_nodes, g_mids = g[:panels], g[panels:-1]
            mid_sum = float((widths * g_mids).sum())
            trap_sum = (float((widths * (g_nodes[:-1] + g_nodes[1:])).sum())
                        * 0.5 + envelope / nodes[-1] ** 3)
            if trap_sum - mid_sum <= 0.5 * budget or panels >= 1 << 16:
                break
            panels *= 2
        # the cell bracket, with int_{M+1/2}^{M+1} g by one trapezoid
        lo = mid_sum + 0.5 * g_nodes[0]
        hi = trap_sum + 0.25 * (g[-1] + g_nodes[0])

    value = math.sqrt(1.0 + (excess + hi) / ZETA2) * INV_SQRT3
    low = math.sqrt(1.0 + (excess + lo) / ZETA2) * INV_SQRT3
    width = (hi - lo) / (3.0 * ZETA2 * (value + low))
    return U2Value(value, truncation_error_bound=width, terms=m_terms)


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainBounds:
    """The four bounds for one parameter pair, with search diagnostics.

    U_inf is None where no finite sup-gain bound is established. argmax
    values of 0.0 mark the omega -> 0 limit candidates. argmax_omega_sup
    holds only to a rounding plateau.
    """

    params: DampingParams
    L_inf: float
    U_inf: Optional[float]
    L_2: float
    U_2: U2Value
    argmax_omega_sup: float
    argmax_omega_l2: float

    @property
    def L_inf_conditional(self) -> bool:
        """True where U_inf is undefined: L_inf bounds only a finite gain."""
        return self.U_inf is None


def gain_bounds(params: DampingParams) -> GainBounds:
    """All four gain bounds, cross-checked against each other.

    Raises InternalConsistencyError if any ordering that must hold
    mathematically (lower <= upper, L_2 <= L_inf, limit floors) fails
    beyond rounding slack.
    """
    # the closed-form bounds refuse what they cannot compute before a search
    u_2 = upper_l2(params)
    u_inf = upper_sup(params)
    l_inf = lower_sup(params)
    l_2 = lower_l2(params)

    checks = [
        (l_2.value <= u_2 + 1e-9, f"L_2={l_2.value} exceeds U_2={float(u_2)}"),
        (l_2.value <= l_inf.value + 1e-9,
         f"L_2={l_2.value} exceeds L_inf={l_inf.value}"),
        (l_2.value >= INV_SQRT3 - 1e-6,
         f"L_2={l_2.value} fell below the omega->0 limit 1/sqrt(3)"),
        (l_inf.value >= 1.0 - 1e-9,
         f"L_inf={l_inf.value} fell below the omega->0 limit 1"),
    ]
    if u_inf is not None:
        checks.append((l_inf.value <= u_inf + 1e-9,
                       f"L_inf={l_inf.value} exceeds U_inf={u_inf}"))
    for ok, msg in checks:
        if not ok:
            raise InternalConsistencyError(
                f"gain bound ordering violated for sigma={params.sigma}, "
                f"mu={params.mu}: {msg}")

    return GainBounds(params=params, L_inf=l_inf.value, U_inf=u_inf,
                      L_2=l_2.value, U_2=u_2,
                      argmax_omega_sup=l_inf.argmax_omega,
                      argmax_omega_l2=l_2.argmax_omega)
