"""Steady-state frequency response of the damped wave equation.

The PDE is u_tt = u_xx + sigma*u_txx - mu*u_t on the unit interval, driven at
x=0 by a sinusoidal boundary value sin(omega*t) and pinned to zero at x=1.
The periodic response is sin(omega*t)*h(x) + cos(omega*t)*g(x). This module
computes the characteristic spatial root a+ib, the in-phase/quadrature
profiles h and g, the pointwise amplitude A(x), the per-frequency sup-norm
gain Abar(omega) = max_x A(x) and the per-frequency L2 gain Q(omega).

All evaluators are overflow-safe (the common exp(2a) scale is cancelled
analytically; cosh(2a) alone would overflow for 2a > ~710) and
cancellation-safe (power series in lambda^2 take over from the L2 closed
forms below |lambda| = 0.5, where those would cancel).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import grid_local_maxima, scaled_cosh_minus_cos

__all__ = [
    "DampingParams",
    "FrequencyPoint",
    "L2ResponseStats",
    "polar_params",
    "profile_at",
    "amplitude_at",
    "sup_gain_at",
    "l2_stats_at",
]


@dataclass(frozen=True)
class DampingParams:
    """Physical damping coefficients of the string.

    sigma: Kelvin-Voigt (internal viscoelastic) coefficient, > 0.
    mu: viscous (external) coefficient, >= 0.
    """

    sigma: float
    mu: float

    def __post_init__(self):
        s = float(self.sigma)
        m = float(self.mu)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(f"sigma must be a positive real, got {self.sigma!r}")
        if not (math.isfinite(m) and m >= 0.0):
            raise ValueError(f"mu must be a nonnegative real, got {self.mu!r}")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "mu", m)


@dataclass(frozen=True)
class FrequencyPoint:
    """Characteristic root data at one forcing frequency.

    The complex spatial root lambda = a + i*b satisfies
    lambda^2 * (1 + i*sigma*omega) = i*mu*omega - omega^2, with modulus
    lambda^2 = r and argument theta in (0, pi); a = sqrt(r)*cos(theta/2),
    b = sqrt(r)*sin(theta/2), both positive.
    """

    omega: float
    r: float
    theta: float
    a: float
    b: float


def _polar_arrays(sigma, mu, omega):
    """Vectorized (r, theta, a, b) for an array of frequencies."""
    w = np.asarray(omega, dtype=float)
    # r = w*sqrt(mu^2+w^2)/sqrt(1+sigma^2 w^2); the radicand of the quotient
    # form factors exactly as (mu^2+w^2)(1+sigma^2 w^2)
    r = w * np.hypot(mu, w) / np.hypot(1.0, sigma * w)
    cos_num = (mu * sigma - 1.0) * w * w
    sin_num = (mu + sigma * w * w) * w
    theta = np.arctan2(sin_num, cos_num)  # sin_num > 0 pins theta in (0, pi)
    sr = np.sqrt(r)
    a = sr * np.cos(0.5 * theta)
    b = sr * np.sin(0.5 * theta)
    return r, theta, a, b


def _check_omega(omega):
    """(omega as a 1-D float array, whether it was a scalar); ValueError
    unless omega is a scalar or 1-D array of positive finite reals."""
    w = np.asarray(omega, dtype=float)
    if w.ndim > 1:
        raise ValueError("omega must be a scalar or a 1-D array")
    wv = np.atleast_1d(w)
    if wv.size and not (wv.min() > 0.0 and math.isfinite(wv.max())):
        bad = wv[~(np.isfinite(wv) & (wv > 0.0))]
        raise ValueError(
            f"omega must be a positive real, got {float(bad[0])!r}")
    return wv, w.ndim == 0


def polar_params(params: DampingParams, omega: float) -> FrequencyPoint:
    """Characteristic root parameters (r, theta, a, b) at frequency omega.

    Raises ValueError unless omega is a positive finite real.
    """
    wv, _ = _check_omega(float(omega))
    r, theta, a, b = _polar_arrays(params.sigma, params.mu, wv)
    return FrequencyPoint(omega=float(wv[0]), r=float(r[0]),
                          theta=float(theta[0]), a=float(a[0]), b=float(b[0]))


def _check_x(x):
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0) or np.any(xv > 1.0) or not np.all(np.isfinite(xv)):
        raise ValueError("x must lie in [0, 1]")
    return xv


def profile_at(point: FrequencyPoint, x):
    """In-phase/quadrature profiles (h(x), g(x)) of the periodic response.

    h + i*g = sinh(lambda*(1-x)) / sinh(lambda) with lambda = a + i*b,
    evaluated with the exp(a*(1+ ... )) growth cancelled analytically:
    every exponential that appears has a nonpositive argument. Accepts a
    scalar or an array of positions; returns matching shapes.
    """
    xv = _check_x(x)
    a, b = point.a, point.b
    p = a * (1.0 - xv)
    q = b * (1.0 - xv)
    em2p = np.expm1(-2.0 * p)
    one_m_p = -em2p          # 1 - exp(-2a(1-x))
    one_p_p = 2.0 + em2p     # 1 + exp(-2a(1-x))
    em2a = math.expm1(-2.0 * a)
    one_m_a = -em2a
    one_p_a = 2.0 + em2a
    cq, sq = np.cos(q), np.sin(q)
    cb, sb = math.cos(b), math.sin(b)
    denom = scaled_cosh_minus_cos(2.0 * a, 2.0 * b)
    scale = np.exp(-a * xv) / denom
    h = 0.5 * scale * (one_m_p * one_m_a * cq * cb + one_p_p * one_p_a * sq * sb)
    g = 0.5 * scale * (one_p_p * one_m_a * sq * cb - one_m_p * one_p_a * cq * sb)
    return (float(h), float(g)) if xv.ndim == 0 else (h, g)


def amplitude_at(point: FrequencyPoint, x):
    """Pointwise amplitude A(x) = sqrt(h(x)^2 + g(x)^2) of the response.

    A^2 = (cosh(2a(1-x)) - cos(2b(1-x))) / (cosh(2a) - cos(2b)) is the
    sup-gain objective at 1 - x, written scale-free (see _sup_objective).
    """
    xv = _check_x(x)
    out = np.sqrt(_sup_objective(point.a, point.b, 1.0 - np.atleast_1d(xv)))
    return float(out[0]) if xv.ndim == 0 else out


# ---------------------------------------------------------------------------
# sup-norm gain Abar(omega)
# ---------------------------------------------------------------------------

# Elements per 2-D (omega x x) block of the sup-gain grid: 248 rows of 33.
_BLOCK = 1 << 13
# Points allowed in a bode or sweep grid, and output steps allowed in a
# simulation (2^20 each); both are refused before anything is allocated.
_MAX_GRID_POINTS = 1 << 20
# Safety cap on the lockstep Newton loop (test_newton_pass_budget: at most 6)
_NEWTON_MAX_ITER = 64


def _pow2_length(*arrays):
    """1-D arrays of one length, resized to the next power of two (0 stays
    0) by repeating entries; callers reduce or slice the copies away.

    numpy keeps freed buffers under 1 KB for reuse, per exact byte size, so
    temporaries whose length varies from call to call (bracket counts, bode
    row counts) would each pin a set of buffers: about 1 MB over a thousand
    bode calls. Power-of-two lengths bound that set.
    """
    n = arrays[0].size
    size = 1 << (n - 1).bit_length() if n else 0
    return [np.resize(x, size) for x in arrays]


def _sup_objective(a, b, x):
    """(cosh(2ax) - cos(2bx)) / (cosh(2a) - cos(2b)), written scale-free.

    exp(-2a(1-x)) * scaled_cosh_minus_cos(2ax, 2bx) / scaled(2a, 2b), with
    the numerator's operations done in place: a block of the grid then needs
    three temporaries of its size, not ten.
    """
    den = scaled_cosh_minus_cos(2.0 * a, 2.0 * b)
    em = np.multiply(2.0 * a, x)
    np.expm1(np.negative(em, out=em), out=em)     # expm1(-2ax)
    s = np.multiply(2.0 * b, x)
    np.sin(np.multiply(s, 0.5, out=s), out=s)     # sin(bx)
    out = np.multiply(0.5, em)
    out *= em
    em += 1.0
    em *= 2.0
    em *= s
    em *= s
    out += em                                     # scaled(2ax, 2bx)
    np.subtract(1.0, x, out=em)
    em *= -2.0 * a
    out *= np.exp(em, out=em)
    out /= den
    return out


def _stationarity(a, b, x):
    """exp(-2ax) * (g(x), g'(x)) for g = a sinh(2ax) + b sin(2bx)."""
    e = np.exp(-2.0 * a * x)
    g = -0.5 * a * np.expm1(-4.0 * a * x) + b * e * np.sin(2.0 * b * x)
    dg = a * a * (1.0 + e * e) + 2.0 * b * b * e * np.cos(2.0 * b * x)
    return g, dg


def _newton_roots(a, b, lo, hi, x):
    """Roots of g in the brackets [lo, hi], all refined in lockstep.

    An entry with g(lo) > 0 > g(hi) starts at x and takes the Newton step
    x - g/g' when it lands strictly inside its bracket, else bisects; the
    bracket shrinks to the iterate on the side of its sign. It freezes once
    its own Newton step is at most 1e-15*|x|, before the bracket test can
    bisect a converged iterate away. Any other entry is frozen at x from the
    start. Entries never interact, so a root does not depend on what else is
    in the batch. Returns (roots, passes).
    """
    g_lo, _ = _stationarity(a, b, lo)
    g_hi, _ = _stationarity(a, b, hi)
    frozen = ~((g_lo > 0.0) & (g_hi < 0.0))
    passes = 0
    while passes < _NEWTON_MAX_ITER and not frozen.all():
        passes += 1
        g, dg = _stationarity(a, b, x)
        pos = g > 0.0
        lo = np.where(pos, x, lo)
        hi = np.where(pos, hi, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = g / dg
        frozen |= np.abs(step) <= 1e-15 * np.abs(x)
        nxt = x - step
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        x = np.where(frozen, x, nxt)
    return x, passes


def _grid_peaks(a, b, x_lo, rows, best):
    """Sample rows on np.linspace(x_lo, 1, 33); store each row's grid
    maximum in best and return (row, lo, hi, x0) of every grid-local maximum.
    The block's temporaries are freed on return."""
    xs = np.linspace(x_lo[rows], 1.0, 33, axis=1)
    fs = _sup_objective(a[rows, None], b[rows, None], xs)
    best[rows] = fs.max(axis=1)
    r, c = np.nonzero(grid_local_maxima(fs))
    return (rows[r], xs[r, np.maximum(c - 1, 0)], xs[r, np.minimum(c + 1, 32)],
            xs[r, c])


def _sup_gain_rows(params: DampingParams, w: np.ndarray) -> np.ndarray:
    """Abar over a 1-D array of frequencies with mu*sigma < 1.

    Each row is sampled on 33 points of [x_lo, 1], in blocks of _BLOCK
    elements. Every grid-local maximum gives a bracket [x_(i-1), x_(i+1)],
    and all brackets of all rows are refined together by _newton_roots on
    the stationarity condition below.

    The objective F(x) = (cosh(2ax) - cos(2bx)) / (cosh(2a) - cos(2b)) has
    F'(x) = 2 g(x) / (cosh(2a) - cos(2b)) with
        g(x)  = a sinh(2ax) + b sin(2bx),
        g'(x) = 2a^2 cosh(2ax) + 2b^2 cos(2bx),
    so F rises where g > 0 and a maximum is a root where g goes from + to -.
    Both are evaluated times exp(-2ax): a sinh(2ax) e^(-2ax) =
    -a expm1(-4ax)/2 and 2a^2 cosh(2ax) e^(-2ax) = a^2 (1 + e^(-4ax)), which
    cannot overflow; the Newton step g/g' is unchanged by the common factor.
    A bracket with g(lo) > 0 > g(hi) holds the maximum; one where g does not
    change sign has F monotone on it, so its maximum is at an end and the
    grid value stands. A row's value is the larger of its grid maximum and
    F at its roots, so it is never below the grid.

    Grid. cosh is increasing and cos(2bx) has period pi/b, so F(x + pi/b)
    >= F(x): the maximum lies in the last period, x >= 1 - pi/b. When
    a >= 20, exp(-2a(1-x)) also confines it to x > 1 - 20/a (the rest is
    below 4e-40 of F(1)). x_lo is the larger bound, and 32 intervals cover
    at most one period, 16 per lobe. F has at most one local maximum per
    period: there g crosses down, so g' <= 0. Where cos(2bx) >= 0, g' > 0;
    on each half-period where cos(2bx) < 0, the third derivative
    8a^4 cosh(2ax) - 8b^4 cos(2bx) of g is positive, so g' is convex there,
    negative on at most one interval, and g crosses down at most once. A
    root that overflows (a = b = inf) gives NaN, which callers report as a
    non-finite gain.
    """
    _, _, a, b = _polar_arrays(params.sigma, params.mu, w)
    x_lo = np.maximum(1.0 - 20.0 / np.maximum(a, 20.0),
                      1.0 - math.pi / np.maximum(b, math.pi))
    best = np.empty_like(a)
    rows, per_block = np.arange(a.size), _BLOCK // 33
    found = [_grid_peaks(a, b, x_lo, rows[s:s + per_block], best)
             for s in range(0, a.size, per_block)]
    row, lo, hi, x0 = _pow2_length(*(np.concatenate(p) for p in zip(*found)))
    ar, br = a[row], b[row]
    roots, _ = _newton_roots(ar, br, lo, hi, x0)
    np.maximum.at(best, row, _sup_objective(ar, br, roots))
    # where r underflows to 0 (omega below about 1e-162 at mu = 0), a = b = 0
    # and F is 0/0 (sup_gain_at silences that): the omega -> 0 limit 1
    return np.where((a == 0.0) & (b == 0.0), 1.0,
                    np.maximum(1.0, np.sqrt(best)))


def sup_gain_at(params: DampingParams, omega):
    """Per-frequency sup-norm gain Abar(omega) = max_x A(x) >= 1.

    Accepts a scalar or a 1-D array of frequencies; returns a float for a
    scalar and an array otherwise. Raises ValueError unless every omega is a
    positive finite real.

    For mu*sigma >= 1 the objective is strictly increasing in x
    (a >= b there, and a*sinh(2ax) >= 2a^2 x >= 2b^2 x >= b*|sin(2bx)|), so
    the maximum sits at x=1 with value exactly 1. Otherwise it lies in the
    last period pi/b, is located on 33 points there and polished by
    bracketed Newton (see _sup_gain_rows).
    Where the characteristic root underflows to 0 (omega below about
    1e-162 at mu = 0) the value is the omega -> 0 limit 1. Each value
    depends only on its own omega: an array call equals the one-element
    calls bit for bit.
    """
    wv, scalar = _check_omega(omega)
    if params.mu * params.sigma >= 1.0 or wv.size == 0:
        out = np.ones_like(wv)
    else:
        # 0/0 where the root underflows, overflow where it is huge
        with np.errstate(over="ignore", invalid="ignore"):
            out = _sup_gain_rows(params, wv)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# L2 statistics p, q1, q2, M and the gain Q(omega)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L2ResponseStats:
    """Time statistics of the squared L2 norm of the periodic response.

    The squared norm oscillates as p + q1*cos(2wt) + q2*sin(2wt); its peak
    is Q^2 = p + sqrt(M) with M = q1^2 + q2^2, Q the per-frequency L2 gain.
    """

    p: float
    q1: float
    q2: float
    M: float
    Q: float


# Coefficients k = 1..9 of sinh(2 lambda)/(2 lambda) - 1 = w s(w) and
# sinh(lambda)^2 = w sh(w) in w = lambda^2, as rows (s, sh); at |w| <= 1/4
# the first omitted term is below 1e-18 of either sum.
_SERIES = np.array([[4.0 ** k / math.factorial(2 * k + 1),
                     4.0 ** k / (2 * math.factorial(2 * k))]
                    for k in range(1, 10)])[:, :, None]
# |lambda|^2 below which the series replace the closed forms; above it
# S(2 lambda) = sinh(2 lambda)/(2 lambda) - 1 cancels by at most a factor 7.5
_SERIES_R = 0.25


def _l2_quantities(params: DampingParams, w: np.ndarray):
    """(p, q1, q2, M) over a 1-D array of frequencies.

    p = (1/2) int |v|^2 and C = -q1 + i q2 = (1/2) int v^2 over [0, 1] for
    the profile v = h + ig; with S(z) = sinh(z)/z - 1, T(z) = 1 - sin(z)/z,
        p = (S(2a) + T(2b)) / (4 (sinh(a)^2 + sin(b)^2)),
        C = S(2 lambda) / (4 sinh(lambda)^2),     M = |C|^2.
    Below |lambda| = 0.5 they come from the series: C = s/(4 sh) at
    w = lambda^2, p from s and sh at a^2 and -b^2 weighted by a^2/|lambda|^2
    = cos(theta/2)^2 and b^2/|lambda|^2 = sin(theta/2)^2 (a^2, b^2 may
    underflow). Above it, every term carries the factor exp(-2a), which
    cancels: sinh(lambda) and sinh(2 lambda) are written component by
    component with nonpositive exponents only.
    """
    r, theta, a, b = _polar_arrays(params.sigma, params.mu, w)
    p = np.empty_like(a)
    c = np.empty(a.shape, dtype=complex)

    small = r < _SERIES_R
    if small.any():
        ab, bb, half = a[small], b[small], 0.5 * theta[small]
        # s and sh at lambda^2, a^2 and -b^2 by Horner's rule
        z = np.concatenate([np.square(ab + 1j * bb), ab * ab, -bb * bb])
        ser = _SERIES[-1]
        for coef in _SERIES[-2::-1]:
            ser = ser * z + coef
        s, sh = ser.reshape(2, 3, -1)
        c[small] = s[0] / (4.0 * sh[0])
        wa = np.square(np.cos(half))
        wb = np.square(np.sin(half))
        p[small] = ((wa * s[1].real + wb * s[2].real)
                    / (4.0 * (wa * sh[1].real + wb * sh[2].real)))

    big = ~small
    if big.any():
        ab, bb = a[big], b[big]
        e2a = np.exp(-2.0 * ab)
        em = np.expm1(-2.0 * ab)
        sh2a = -0.5 * np.expm1(-4.0 * ab)               # e^{-2a} sinh 2a
        s2b = np.sin(2.0 * bb)
        p[big] = ((bb * sh2a - ab * e2a * s2b)
                  / (4.0 * ab * bb * scaled_cosh_minus_cos(2.0 * ab, 2.0 * bb)))
        # e^{-a} sinh(lambda) and e^{-2a} sinh(2 lambda)
        sh1 = -0.5 * em * np.cos(bb) + 1j * (0.5 * (2.0 + em) * np.sin(bb))
        sh2 = (sh2a * np.cos(2.0 * bb)
               + 1j * (0.5 * (1.0 + e2a * e2a) * s2b))
        c[big] = (sh2 / (2.0 * (ab + 1j * bb)) - e2a) / (4.0 * sh1 * sh1)
    q1, q2 = -c.real, c.imag
    return p, q1, q2, q1 * q1 + q2 * q2


def l2_stats_at(params: DampingParams, omega) -> L2ResponseStats:
    """L2-norm statistics (p, q1, q2, M) and gain Q = sqrt(p + sqrt(M)).

    Same contract as sup_gain_at: a scalar or a 1-D array of positive finite
    frequencies, float fields for a scalar and arrays otherwise, an array
    call equal to the one-element calls bit for bit. As omega -> 0 they
    approach p = 1/6, M = 1/36, Q = 1/sqrt(3).
    """
    wv, scalar = _check_omega(omega)
    (padded,) = _pow2_length(wv)
    p, q1, q2, M = (x[:wv.size] for x in _l2_quantities(params, padded))
    Q = np.sqrt(p + np.hypot(q1, q2))
    if scalar:
        return L2ResponseStats(*(float(x[0]) for x in (p, q1, q2, M, Q)))
    return L2ResponseStats(p=p, q1=q1, q2=q2, M=M, Q=Q)
