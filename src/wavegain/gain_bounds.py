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
from .modal import (
    _check_mode_index,
    _decay_rate_array,
    _mode_table,
    _near_critical,
)

__all__ = [
    "FrequencySearchConfig",
    "SupUpperBoundProblem",
    "ModeConstants",
    "GainBounds",
    "U2Value",
    "SupLowerBound",
    "L2LowerBound",
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
    # the regime where the sup-gain is known finite
    return 2.0 < 2.0 * params.mu * params.sigma + params.sigma ** 2 * math.pi ** 2


# ---------------------------------------------------------------------------
# frequency search configuration
# ---------------------------------------------------------------------------

# Fixed search constants; FrequencySearchConfig says what each one sets.
OMEGA_MIN = 1e-3
WINDOW_HALF_WIDTH = 0.5
REFINE_TOL = 1e-8
STALE_WINDOWS = 5


@dataclass(frozen=True)
class FrequencySearchConfig:
    """Search strategy for maximizing a gain curve over omega.

    The curve is sampled on a logarithmic grid of base_points over
    [OMEGA_MIN, omega_max] plus dense linear windows of half-width
    WINDOW_HALF_WIDTH around each multiple of pi (the resonant spikes sit
    near those). All grid-local maxima of a scan are refined together to
    REFINE_TOL by refine_local_maxima's zoom: one call per pass on 16 points
    of every open bracket, each pass shrinking a bracket to 2/17 of its
    width, so a bracket W wide closes after at most
    ceil(log(W/REFINE_TOL) / log(17/2)) passes (7 or 8 in a window). A
    maximum at either end of a scan is refined only when one probe
    REFINE_TOL inside that end, made in the first pass, shows the curve
    rising there. Window scanning stops after STALE_WINDOWS (five) windows
    in a row that do not raise the best.

    omega_max = None resolves to max(20*pi, 4/sigma).
    """

    omega_max: Optional[float] = None
    base_points: int = 256

    def __post_init__(self):
        if self.omega_max is not None and not (
                math.isfinite(self.omega_max) and self.omega_max > OMEGA_MIN):
            raise ValueError(
                f"omega_max must be finite and exceed omega_min={OMEGA_MIN}, "
                f"got {self.omega_max!r}")
        if self.base_points < 2:
            raise ValueError("base_points must be at least 2")

    def resolved_omega_max(self, sigma: float) -> float:
        if self.omega_max is not None:
            return self.omega_max
        return max(20.0 * math.pi, 4.0 / sigma)


# ---------------------------------------------------------------------------
# U_inf: closed 1-D minimization over the root angle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupUpperBoundProblem:
    """The 1-D problem whose infimum is the sup-gain upper bound.

    s is the shifted damping parameter (mu*sigma - 1)/sigma^2; the objective
    f(theta) = 1 / (sin(theta) * (1 - |s|/(s + (pi-theta)^2)))
    is finite and positive on (0, theta_max) and blows up at both ends.
    Constructible only in the feasible regime (theta_max > 0).
    """

    s: float
    theta_max: float

    @classmethod
    def from_params(cls, params: DampingParams) -> Optional["SupUpperBoundProblem"]:
        if not _feasible(params):
            return None
        s = (params.mu * params.sigma - 1.0) / params.sigma ** 2
        theta_max = math.pi - math.sqrt(abs(s) - s)  # = pi when s >= 0
        return cls(s=s, theta_max=theta_max)

    def objective(self, theta):
        theta = np.asarray(theta, dtype=float)
        gap = math.pi - theta
        denom = self.s + gap * gap
        # 1 - |s|/denom without cancellation: numerator is gap^2 for s >= 0,
        # 2s + gap^2 for s < 0
        if self.s >= 0.0:
            frac = gap * gap / denom
        else:
            frac = (2.0 * self.s + gap * gap) / denom
        out = 1.0 / (np.sin(theta) * frac)
        return float(out) if out.ndim == 0 else out


def upper_sup(params: DampingParams) -> Optional[float]:
    """Upper bound U_inf for the asymptotic sup-norm gain, or None.

    None when 2 < 2*mu*sigma + sigma^2*pi^2 fails (no finite bound is
    established there). Otherwise the infimum of the 1-D objective, located
    on a 4096-point grid and polished to 1e-10 in theta by the same zoom as
    the frequency search (refine_local_maxima on its negative: about eight
    passes of 16 points per grid minimum).
    The result is clamped below at 1 (the gain itself never drops below 1).
    """
    problem = SupUpperBoundProblem.from_params(params)
    if problem is None:
        return None
    thetas = np.linspace(0.0, problem.theta_max, 4098)[1:-1]
    vals = problem.objective(thetas)
    _, neg_best = refine_local_maxima(
        lambda t: -problem.objective(t), thetas, -vals, tol=1e-10)
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


def _spike_search(params, search, evaluate, limit_value):
    """Maximize a gain curve: log base grid + windows at multiples of pi.

    evaluate(params, omega) takes a 1-D array of frequencies and returns
    their values. One call gives a scan's values; then refine_local_maxima
    zooms on all grid maxima of the scan together, one call per pass on 16
    points of every open bracket. A scan whose widest bracket (two grid
    cells around a maximum, one at an end) is W wide thus costs at most
    1 + ceil(log(W/REFINE_TOL) / log(17/2)) calls, plus one pass when an
    end-of-scan probe opens a bracket.

    Returns (best_value, best_omega); best_omega = 0.0 marks the omega -> 0
    limit candidate, which is seeded first so exact ties resolve to it.
    Deterministic: fixed grids, left-to-right refinement, strict-improvement
    updates (ties keep the smaller omega). The window scan stops after
    STALE_WINDOWS windows in a row that do not raise the best, by the same
    strict test that accepts a candidate; on a curve that never rises above
    its omega -> 0 limit that is the first five windows.
    """
    hi = search.resolved_omega_max(params.sigma)
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

    scan(np.geomspace(OMEGA_MIN, hi, search.base_points))

    stale = 0
    for n in range(1, math.ceil(hi / math.pi) + 1):
        center = n * math.pi
        a = max(OMEGA_MIN, center - WINDOW_HALF_WIDTH)
        b = min(hi, center + WINDOW_HALF_WIDTH)
        if a >= b:
            continue
        count = _window_point_count(float(_decay_rate_array(params, n)))
        if scan(np.linspace(a, b, count)):
            stale = 0
        else:
            stale += 1
            if stale >= STALE_WINDOWS:
                break
    return best_v, best_w


class SupLowerBound(NamedTuple):
    """Lower bound for the sup-norm gain and where it was attained.

    conditional is True when the finite-gain regime is not established, in
    which case the value bounds the gain only if the gain is finite at all.
    argmax_omega = 0.0 marks the omega -> 0 limit.
    """

    value: float
    argmax_omega: float
    conditional: bool


class L2LowerBound(NamedTuple):
    """Lower bound for the L2 gain and the maximizing frequency (0.0 = limit)."""

    value: float
    argmax_omega: float


def lower_sup(params: DampingParams,
              search: Optional[FrequencySearchConfig] = None) -> SupLowerBound:
    """Lower bound L_inf: the largest per-frequency sup gain found.

    Spike-aware search (see FrequencySearchConfig); the omega -> 0 limit
    value 1 is always a candidate, so L_inf >= 1 up to rounding.
    """
    search = search or FrequencySearchConfig()
    value, argmax = _spike_search(
        params, search, sup_gain_at, limit_value=1.0)
    return SupLowerBound(value=value, argmax_omega=argmax,
                         conditional=not _feasible(params))


def lower_l2(params: DampingParams,
             search: Optional[FrequencySearchConfig] = None) -> L2LowerBound:
    """Lower bound L_2: the largest per-frequency L2 gain found.

    Same search strategy as lower_sup; the omega -> 0 limit value 1/sqrt(3)
    is always a candidate.
    """
    search = search or FrequencySearchConfig()
    value, argmax = _spike_search(
        params, search, lambda p, w: l2_stats_at(p, w).Q,
        limit_value=INV_SQRT3)
    return L2LowerBound(value=value, argmax_omega=argmax)


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
    """
    ns = np.asarray(ns, dtype=float)
    sigma, mu = params.sigma, params.mu
    A = np.ones_like(ns)
    musig = mu * sigma
    if musig >= 1.0:
        return A
    w = math.sqrt(1.0 - musig)

    npi, k, disc = _mode_table(params, ns)
    crit = _near_critical(k, npi)

    near_plus = crit & (npi * sigma > 1.0)
    if near_plus.any():
        A[near_plus] = 1.0 + 2.0 * w * math.exp(-1.0 - 1.0 / w)

    over = (disc > 0.0) & ~crit & (npi * sigma >= 1.0)
    if over.any():
        ko, r = k[over], np.sqrt(disc[over])
        P = sigma * (ko + r) - 1.0
        A[over] = 1.0 + 2.0 * w * np.exp((ko / r) * np.log(w / P))

    under = (disc < 0.0) & ~crit
    if under.any():
        ku, nu = k[under], npi[under]
        wn = np.sqrt(-disc[under])
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
    The regime is classified by exact comparison of mu + n^2 pi^2 sigma with
    2 n pi even when A_n is evaluated by the near-critical limit.
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
    _, k, disc = map(float, _mode_table(params, n))
    A = float(_amplification_array(params, np.array([n]))[0])
    if disc > 0.0:
        r = math.sqrt(disc)
        return ModeConstants(n=n, k_n=k, r_n=r, omega_n=None,
                             regime="overdamped", beta_n=k / r, A_n=A)
    if disc == 0.0:
        return ModeConstants(n=n, k_n=k, r_n=0.0, omega_n=None,
                             regime="critical", beta_n=None, A_n=A)
    return ModeConstants(n=n, k_n=k, r_n=None, omega_n=math.sqrt(-disc),
                         regime="underdamped", beta_n=None, A_n=A)


# ---------------------------------------------------------------------------
# U_2: weighted series over the amplification factors
# ---------------------------------------------------------------------------

class U2Value(float):
    """The L2-gain upper bound, annotated with series truncation metadata.

    Behaves as a plain float; terms is the number of explicitly summed
    modes (0 for the exact mu*sigma >= 1 branch) and truncation_error_bound
    bounds the distance to the untruncated series value.
    """

    truncation_error_bound: float
    terms: int

    def __new__(cls, value, truncation_error_bound, terms):
        obj = super().__new__(cls, value)
        obj.truncation_error_bound = float(truncation_error_bound)
        obj.terms = int(terms)
        return obj


# Modes per block of the U_2 sum; keeps its memory independent of sigma.
_CHUNK = 1 << 16


def upper_l2(params: DampingParams) -> U2Value:
    """Upper bound U_2 = (1/pi) sqrt(2 sum A_n^2/n^2) for the L2 gain.

    Exactly 1/sqrt(3) when mu*sigma >= 1 (all A_n = 1 and the series is
    zeta(2)). Otherwise U_2 = sqrt(1 + D/zeta(2))/sqrt(3), and the excess
    D = sum (A_n^2 - 1)/n^2 is summed over n = 1..N for an N fixed in
    closed form by the inputs.

    Past n0 = 2/(pi sigma) every mode is overdamped with n pi sigma > 2, so
    the envelope in _amplification_array gives A_n - 1 <= 8w^2/(n pi sigma)^2
    <= 2w^2 (w^2 = 1 - mu*sigma), hence A_n^2 - 1 <= (2 + 2w^2)(A_n - 1).
    With sum_{n>N} n^-4 <= 1/(3N^3), the part of D left out past N > n0 is
    at most 16 w^2 (1 + w^2) / (3 (pi sigma)^2 N^3), and U_2 moves by at
    most 1/(2 sqrt(3) zeta(2)) times that (the slope of sqrt(1 + D/zeta(2))
    is at most 1/(2 zeta(2))). That is the recorded truncation_error_bound.
    N is the smallest integer above n0 that makes it at most 1e-13/sqrt(3)
    <= 1e-13 U_2, so N grows like sigma^(-2/3). The sum runs in blocks of at
    most _CHUNK modes.
    """
    musig = params.mu * params.sigma
    if musig >= 1.0:
        return U2Value(INV_SQRT3, truncation_error_bound=0.0, terms=0)

    w2 = 1.0 - musig
    # truncation_error_bound = tail_coef / N^3
    tail_coef = (INV_SQRT3 / (2.0 * ZETA2) * 16.0 * w2 * (1.0 + w2)
                 / (3.0 * (math.pi * params.sigma) ** 2))
    n_terms = 1 + max(int(2.0 / (math.pi * params.sigma)),
                      int(np.cbrt(tail_coef / (1e-13 * INV_SQRT3))))
    excess = 0.0
    for start in range(1, n_terms + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, n_terms + 1), dtype=float)
        A = _amplification_array(params, ns)
        excess += float(((A - 1.0) * (A + 1.0) / (ns * ns)).sum())
    value = math.sqrt(1.0 + excess / ZETA2) * INV_SQRT3
    return U2Value(value, truncation_error_bound=tail_coef / n_terms ** 3,
                   terms=n_terms)


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainBounds:
    """The four bounds for one parameter pair, with search diagnostics.

    U_inf is None where no finite sup-gain bound is established; there
    L_inf_conditional is True. argmax values of 0.0 mark the omega -> 0
    limit candidates.
    """

    params: DampingParams
    L_inf: float
    L_inf_conditional: bool
    U_inf: Optional[float]
    L_2: float
    U_2: U2Value
    argmax_omega_sup: float
    argmax_omega_l2: float


def gain_bounds(params: DampingParams,
                search: Optional[FrequencySearchConfig] = None) -> GainBounds:
    """All four gain bounds, cross-checked against each other.

    Raises InternalConsistencyError if any ordering that must hold
    mathematically (lower <= upper, L_2 <= L_inf, limit floors) fails
    beyond rounding slack.
    """
    search = search or FrequencySearchConfig()
    u_inf = upper_sup(params)
    l_inf = lower_sup(params, search)
    u_2 = upper_l2(params)
    l_2 = lower_l2(params, search)

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

    return GainBounds(params=params, L_inf=l_inf.value,
                      L_inf_conditional=l_inf.conditional, U_inf=u_inf,
                      L_2=l_2.value, U_2=u_2,
                      argmax_omega_sup=l_inf.argmax_omega,
                      argmax_omega_l2=l_2.argmax_omega)
