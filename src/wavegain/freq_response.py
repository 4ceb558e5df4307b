"""Steady-state frequency response of the damped wave equation.

The PDE is u_tt = u_xx + sigma*u_txx - mu*u_t on the unit interval, driven at
x=0 by a sinusoidal boundary value sin(omega*t) and pinned to zero at x=1.
The periodic response is sin(omega*t)*h(x) + cos(omega*t)*g(x). This module
computes the characteristic spatial root a+ib, the in-phase/quadrature
profiles h and g, the pointwise amplitude A(x), the per-frequency sup-norm
gain Abar(omega) = max_x A(x) and the per-frequency L2 gain Q(omega).

All evaluators are overflow-safe (the common exp(2a) scale is cancelled
analytically; cosh(2a) alone would overflow for 2a > ~710) and
cancellation-safe (a joint Taylor branch takes over for small a, b where the
closed forms lose all significant digits).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from ._numerics import scaled_cosh_minus_cos

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


def polar_params(params: DampingParams, omega: float) -> FrequencyPoint:
    """Characteristic root parameters (r, theta, a, b) at frequency omega.

    Raises ValueError unless omega is a positive finite real.
    """
    w = float(omega)
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"omega must be a positive real, got {omega!r}")
    r, theta, a, b = _polar_arrays(params.sigma, params.mu, np.array([w]))
    return FrequencyPoint(omega=w, r=float(r[0]), theta=float(theta[0]),
                          a=float(a[0]), b=float(b[0]))


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
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(h), float(g)
    return h, g


def amplitude_at(point: FrequencyPoint, x):
    """Pointwise amplitude A(x) = sqrt(h(x)^2 + g(x)^2) of the response.

    Evaluated from the closed amplitude form
    A^2 = (cosh(2a(1-x)) - cos(2b(1-x))) / (cosh(2a) - cos(2b))
    as exp(-2ax) * scaled(2a(1-x), 2b(1-x)) / scaled(2a, 2b), so it neither
    overflows for large a nor cancels for small arguments.
    """
    xv = _check_x(x)
    a, b = point.a, point.b
    num = scaled_cosh_minus_cos(2.0 * a * (1.0 - xv), 2.0 * b * (1.0 - xv))
    den = scaled_cosh_minus_cos(2.0 * a, 2.0 * b)
    out = np.sqrt(np.exp(-2.0 * a * xv) * num / den)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# sup-norm gain Abar(omega)
# ---------------------------------------------------------------------------

# Elements per 2-D (omega x x) block of the sup-gain grid: each temporary
# stays at 2^13 doubles (64 KB) unless a single row is longer.
_BLOCK = 1 << 13
# Safety cap on the lockstep Newton loop; the most passes measured is 7.
_NEWTON_MAX_ITER = 64


def _pow2_length(*arrays):
    """1-D arrays of one length n >= 1, resized to the next power of two by
    repeating entries; callers reduce or slice the copies away.

    numpy keeps freed buffers under 1 KB for reuse, per exact byte size, so
    temporaries whose length varies from call to call (bracket counts, bode
    row counts) would each pin a set of buffers: about 1 MB over a thousand
    bode calls. Power-of-two lengths bound that set.
    """
    size = 1 << (arrays[0].size - 1).bit_length()
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


def _grid_peaks(a, b, x_lo, m, rows, best):
    """Sample rows on np.linspace(x_lo, 1, m+1); store each row's grid
    maximum in best and return (row, lo, hi, x0) of every grid-local maximum.
    The block's temporaries are freed on return."""
    xs = np.linspace(x_lo[rows], 1.0, m + 1, axis=1)
    fs = _sup_objective(a[rows, None], b[rows, None], xs)
    best[rows] = fs.max(axis=1)
    peak = np.empty(fs.shape, dtype=bool)
    peak[:, 0] = True
    peak[:, 1:] = fs[:, 1:] >= fs[:, :-1]
    peak[:, :-1] &= fs[:, :-1] > fs[:, 1:]
    r, c = np.nonzero(peak)
    return (rows[r], xs[r, np.maximum(c - 1, 0)], xs[r, np.minimum(c + 1, m)],
            xs[r, c])


def _sup_gain_rows(params: DampingParams, w: np.ndarray) -> np.ndarray:
    """Abar over a 1-D array of frequencies with mu*sigma < 1.

    Each row is sampled on np.linspace(x_lo, 1, n+1); rows with the same n
    are evaluated together in blocks of about _BLOCK elements. Every
    grid-local maximum (the left/right rule of refine_local_maxima) gives a
    bracket [x_(i-1), x_(i+1)], and all brackets of all rows are refined
    together by _newton_roots on the stationarity condition below.

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
    """
    _, _, a, b = _polar_arrays(params.sigma, params.mu, w)
    # when a >= 20 the exp(-2a(1-x)) factor confines the maximum to
    # x > 1 - 20/a (the rest of [0, 1] is below 4e-40 of the x=1 value)
    x_lo = 1.0 - 20.0 / np.maximum(a, 20.0)
    n = np.maximum(1024, 32 * np.ceil(b * (1.0 - x_lo) / math.pi).astype(np.int64))
    best = np.empty_like(a)
    found = []  # per block: (row, lo, hi, x0) of every grid-local maximum
    order = np.argsort(n, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(n[order])) + 1):
        m = int(n[group[0]])
        per_block = max(1, _BLOCK // (m + 1))
        for s in range(0, group.size, per_block):
            rows = group[s:s + per_block]
            found.append(_grid_peaks(a, b, x_lo, m, rows, best))
    row, lo, hi, x0 = _pow2_length(*(np.concatenate(p) for p in zip(*found)))
    ar, br = a[row], b[row]
    roots, _ = _newton_roots(ar, br, lo, hi, x0)
    np.maximum.at(best, row, _sup_objective(ar, br, roots))
    return np.maximum(1.0, np.sqrt(best))


def sup_gain_at(params: DampingParams, omega):
    """Per-frequency sup-norm gain Abar(omega) = max_x A(x) >= 1.

    Accepts a scalar or a 1-D array of frequencies; returns a float for a
    scalar and an array otherwise. Raises ValueError unless every omega is a
    positive finite real.

    For mu*sigma >= 1 the objective is strictly increasing in x
    (a >= b there, and a*sinh(2ax) >= 2a^2 x >= 2b^2 x >= b*|sin(2bx)|), so
    the maximum sits at x=1 with value exactly 1. Otherwise the maximum is
    located on a dense grid (16 points per oscillation lobe, at least 1024)
    and polished by bracketed Newton on its stationarity condition (see
    _sup_gain_rows). Each value depends only on its own omega: an array call
    equals the one-element calls bit for bit.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim > 1:
        raise ValueError("omega must be a scalar or a 1-D array")
    wv = np.atleast_1d(w)
    if wv.size and not (wv.min() > 0.0 and math.isfinite(wv.max())):
        bad = wv[~(np.isfinite(wv) & (wv > 0.0))]
        raise ValueError(
            f"omega must be a positive real, got {float(bad[0])!r}")
    if params.mu * params.sigma >= 1.0 or wv.size == 0:
        out = np.ones_like(wv)
    else:
        out = _sup_gain_rows(params, wv)
    return float(out[0]) if w.ndim == 0 else out


# ---------------------------------------------------------------------------
# L2 statistics p, q1, q2, M and the gain Q(omega)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L2ResponseStats:
    """Time statistics of the squared L2 norm of the periodic response.

    The squared norm oscillates as p + q1*cos(2wt) + q2*sin(2wt); its peak is
    p + sqrt(q1^2 + q2^2) and M is the closed form of q1^2 + q2^2. Q is the
    per-frequency L2 gain sqrt(p + sqrt(M)).
    """

    p: float
    q1: float
    q2: float
    M: float
    Q: float


# Joint Taylor tables for the small-argument branch, exact rationals in
# u = a^2, v = b^2, complete through total degree 5. With
# DH = (cosh(2a) - cos(2b)) / (u + v)            (entire, -> 2)
# PN = (b sinh 2a - a sin 2b) / (ab (u + v))     (entire, -> 2/3)
# and N1H, N2H, NMH the analogous entire cofactors of q1, q2, M:
#   p  = PN / (2 DH)            q1 = N1H / (2 DH^2)
#   q2 = a b N2H / DH^2         M  = NMH / (4 DH^2)
# Validated against 40-digit arithmetic across a, b in [1e-4, 0.08]:
# max relative error 6e-16. Each entry is (i, j) -> (num, den) for u^i v^j.

_DH_T = {
    (0, 0): (2, 1), (0, 1): (-2, 3), (1, 0): (2, 3),
    (0, 2): (4, 45), (1, 1): (-4, 45), (2, 0): (4, 45),
    (0, 3): (-2, 315), (1, 2): (2, 315), (2, 1): (-2, 315), (3, 0): (2, 315),
    (0, 4): (4, 14175), (1, 3): (-4, 14175), (2, 2): (4, 14175),
    (3, 1): (-4, 14175), (4, 0): (4, 14175),
    (0, 5): (-4, 467775), (1, 4): (4, 467775), (2, 3): (-4, 467775),
    (3, 2): (4, 467775), (4, 1): (-4, 467775), (5, 0): (4, 467775),
}

_PN_T = {
    (0, 0): (2, 3), (0, 1): (-2, 15), (1, 0): (2, 15),
    (0, 2): (4, 315), (1, 1): (-4, 315), (2, 0): (4, 315),
    (0, 3): (-2, 2835), (1, 2): (2, 2835), (2, 1): (-2, 2835), (3, 0): (2, 2835),
    (0, 4): (4, 155925), (1, 3): (-4, 155925), (2, 2): (4, 155925),
    (3, 1): (-4, 155925), (4, 0): (4, 155925),
    (0, 5): (-4, 6081075), (1, 4): (4, 6081075), (2, 3): (-4, 6081075),
    (3, 2): (4, 6081075), (4, 1): (-4, 6081075), (5, 0): (4, 6081075),
}

_N1H_T = {
    (0, 0): (-4, 3), (0, 1): (32, 45), (1, 0): (-32, 45),
    (0, 2): (-164, 945), (1, 1): (104, 315), (2, 0): (-164, 945),
    (0, 3): (368, 14175), (1, 2): (-304, 4725), (2, 1): (304, 4725),
    (3, 0): (-368, 14175),
    (0, 4): (-1256, 467775), (1, 3): (3488, 467775), (2, 2): (-1616, 155925),
    (3, 1): (3488, 467775), (4, 0): (-1256, 467775),
    (0, 5): (3968, 19348875), (1, 4): (-42368, 70945875),
    (2, 3): (634624, 638512875), (3, 2): (-634624, 638512875),
    (4, 1): (42368, 70945875), (5, 0): (-3968, 19348875),
}

_N2H_T = {
    (0, 0): (-8, 45), (0, 1): (64, 945), (1, 0): (-64, 945),
    (0, 2): (-8, 675), (1, 1): (304, 14175), (2, 0): (-8, 675),
    (0, 3): (608, 467775), (1, 2): (-32, 10395), (2, 1): (32, 10395),
    (3, 0): (-608, 467775),
    (0, 4): (-21584, 212837625), (1, 3): (174656, 638512875),
    (2, 2): (-79328, 212837625), (3, 1): (174656, 638512875),
    (4, 0): (-21584, 212837625),
    (0, 5): (256, 42567525), (1, 4): (-11008, 638512875),
    (2, 3): (512, 18243225), (3, 2): (-512, 18243225),
    (4, 1): (11008, 638512875), (5, 0): (-256, 42567525),
}

_NMH_T = {
    (0, 0): (4, 9), (0, 1): (-8, 45), (1, 0): (8, 45),
    (0, 2): (164, 4725), (1, 1): (-104, 1575), (2, 0): (164, 4725),
    (0, 3): (-184, 42525), (1, 2): (152, 14175), (2, 1): (-152, 14175),
    (3, 0): (184, 42525),
    (0, 4): (1256, 3274425), (1, 3): (-3488, 3274425), (2, 2): (1616, 1091475),
    (3, 1): (-3488, 3274425), (4, 0): (1256, 3274425),
    (0, 5): (-496, 19348875), (1, 4): (5296, 70945875),
    (2, 3): (-79328, 638512875), (3, 2): (79328, 638512875),
    (4, 1): (-5296, 70945875), (5, 0): (496, 19348875),
}


def _coef_matrix(table):
    c = np.zeros((6, 6))
    for (i, j), (num, den) in table.items():
        c[i, j] = num / den
    return c


_DH_C = _coef_matrix(_DH_T)
_PN_C = _coef_matrix(_PN_T)
_N1H_C = _coef_matrix(_N1H_T)
_N2H_C = _coef_matrix(_N2H_T)
_NMH_C = _coef_matrix(_NMH_T)

# Below this the closed forms for q1 and M lose more than half their digits
# to cancellation; the degree-5 tables are accurate to ~1e-15 well past it.
_SERIES_THRESHOLD = 0.05


def _l2_quantities(a, b):
    """Vectorized (p, q1, q2, M) from root coordinates a, b (arrays)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.empty_like(a)
    q1 = np.empty_like(a)
    q2 = np.empty_like(a)
    M = np.empty_like(a)

    small = np.maximum(a, b) < _SERIES_THRESHOLD
    if np.any(small):
        u = a[small] ** 2
        v = b[small] ** 2
        dh = polyval2d(u, v, _DH_C)
        p[small] = polyval2d(u, v, _PN_C) / (2.0 * dh)
        q1[small] = polyval2d(u, v, _N1H_C) / (2.0 * dh * dh)
        q2[small] = a[small] * b[small] * polyval2d(u, v, _N2H_C) / (dh * dh)
        M[small] = polyval2d(u, v, _NMH_C) / (4.0 * dh * dh)

    big = ~small
    if np.any(big):
        ab, bb = a[big], b[big]
        e2a = np.exp(-2.0 * ab)
        dh = scaled_cosh_minus_cos(2.0 * ab, 2.0 * bb)  # e^{-2a}(cosh2a-cos2b)
        sh = -0.5 * np.expm1(-4.0 * ab)                 # e^{-2a} sinh 2a
        ch = 0.5 * (1.0 + e2a * e2a)                    # e^{-2a} cosh 2a
        s2b = np.sin(2.0 * bb)
        c2b = np.cos(2.0 * bb)
        r2 = ab * ab + bb * bb
        p[big] = (bb * sh - ab * e2a * s2b) / (4.0 * ab * bb * dh)
        q1[big] = ((e2a * ch * c2b - e2a * e2a) / (2.0 * dh * dh)
                   + (bb * e2a * s2b - ab * sh) / (4.0 * r2 * dh))
        q2[big] = (sh * e2a * s2b / (2.0 * dh * dh)
                   - (ab * e2a * s2b + bb * sh) / (4.0 * r2 * dh))
        num = (4.0 * r2 * e2a * e2a
               - 4.0 * e2a * (bb * s2b * ch + ab * sh * c2b)
               + sh * sh + e2a * e2a * s2b * s2b)
        M[big] = num / (16.0 * r2 * dh * dh)
    return p, q1, q2, M


def l2_stats_at(params: DampingParams, omega: float) -> L2ResponseStats:
    """L2-norm statistics (p, q1, q2, M) and gain Q at one frequency.

    As omega -> 0 these approach p = 1/6, M = 1/36, Q = 1/sqrt(3).
    """
    point = polar_params(params, omega)
    p, q1, q2, M = _l2_quantities(np.array([point.a]), np.array([point.b]))
    pv, Mv = float(p[0]), float(max(M[0], 0.0))
    return L2ResponseStats(p=pv, q1=float(q1[0]), q2=float(q2[0]), M=Mv,
                           Q=math.sqrt(pv + math.sqrt(Mv)))


def _l2_gain_many(params: DampingParams, omegas) -> np.ndarray:
    """Q(omega) over a scalar or an array of frequencies, vectorized; equal
    bit for bit to l2_stats_at(params, omega).Q."""
    w = np.asarray(omegas, dtype=float)
    (padded,) = _pow2_length(w.ravel())
    _, _, a, b = _polar_arrays(params.sigma, params.mu, padded)
    p, _, _, M = _l2_quantities(a, b)
    return np.sqrt(p + np.sqrt(np.maximum(M, 0.0)))[:w.size].reshape(w.shape)
