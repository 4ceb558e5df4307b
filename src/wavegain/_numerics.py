"""Shared numerical kernels: stable special forms, 1-D refinement, quadrature.

Everything here is deterministic: fixed evaluation orders, fixed tolerances,
no randomness, no threading. Callers rely on bitwise reproducibility.

The refinement and the adaptive quadrature call f once per pass or level
on the new points of all their brackets or panels; each bracket's or
panel's result is bit for bit the one it gets alone.
"""

import math

import numpy as np

# golden-section ratio 2/(1+sqrt(5))
_INVPHI = 2.0 / (1.0 + math.sqrt(5.0))
# Interior points per bracket and pass of refine_local_maxima, and their
# places as fractions of the bracket: j/17 for j = 1..16
ZOOM_POINTS = 16
_ZOOM_STEPS = tuple(j / (ZOOM_POINTS + 1) for j in range(1, ZOOM_POINTS + 1))


def scaled_cosh_minus_cos(z, w):
    """exp(-z) * (cosh(z) - cos(w)) for z >= 0, cancellation-free.

    Uses cosh(z) - cos(w) = 0.5*(e^z + e^-z) - cos(w); multiplying by e^-z
    and regrouping gives 0.5*expm1(-z)^2 + 2*e^-z*sin(w/2)^2, a sum of two
    nonnegative terms. Accurate for all z >= 0 including z, w -> 0, and never
    overflows. Accepts scalars or arrays.
    """
    em = np.expm1(-np.asarray(z, dtype=float))
    s = np.sin(0.5 * np.asarray(w, dtype=float))
    return 0.5 * em * em + 2.0 * (em + 1.0) * s * s


def golden_max(f, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section maximizer of a scalar unimodal function on [lo, hi].

    Returns (x, f(x)). Deterministic bracket shrinking to width <= tol; the
    returned point is the best of the two interior probes and the midpoint.

    The package no longer calls it: refine_local_maxima's zoom replaced it,
    because a call of f on 16 frequencies costs about as much as a call on
    one. It stays as the independent one-point search that the tests'
    oracle refinement uses, and as a layer the benchmark's spans still name.
    """
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    x1 = b - _INVPHI * h
    x2 = a + _INVPHI * h
    f1 = f(x1)
    f2 = f(x2)
    it = 0
    while (b - a) > tol and it < max_iter:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        it += 1
    xm = 0.5 * (a + b)
    fm = f(xm)
    best = max(((f1, x1), (f2, x2), (fm, xm)))
    return best[1], best[0]


def grid_local_maxima(fs):
    """Mask of the samples along the last axis that are >= their left and >
    their right neighbour (ends included): a flat run counts at its right
    edge."""
    peak = np.empty(fs.shape, dtype=bool)
    peak[..., 0] = True
    peak[..., 1:] = fs[..., 1:] >= fs[..., :-1]
    peak[..., :-1] &= fs[..., :-1] > fs[..., 1:]
    return peak


def refine_local_maxima(f, xs, fs, tol=1e-10):
    """Refine the grid-local maxima of sampled values by a lockstep zoom.

    xs, fs: 1-D arrays of grid points (increasing) and f values; f maps a
    1-D array of points to the array of their values. Each grid local
    maximum (grid_local_maxima, endpoints included) is refined on its
    bracket of neighbouring grid points, all brackets together: each pass
    makes one call of f on ZOOM_POINTS = 16 evenly spaced interior points
    of every open bracket. A bracket keeps its best sample (a new sample
    replaces it only when larger, or equal at a smaller x) and that
    sample's nearest samples on either side as its new bracket, so its
    width shrinks to at most 2/17 of itself per pass, up to rounding: a
    uniform k-point search (Karp and Miranker, "Parallel minimax search for
    a maximum", J. Comb. Theory 4, 1968), which suits an f whose call on 16
    points costs about as much as on one. A bracket closes once its width
    is at most tol, or when a pass does not shrink it, so a bracket of
    width W takes at most ceil(log(W/tol) / log(17/2)) passes.

    A maximum at either end of the grid first costs one probe of f at tol
    inside that end, made in the first pass. If the curve does not rise
    there, the end itself is the cell's maximum under the unimodal
    assumption the zoom makes, and it is kept unsearched; otherwise the
    probe is the bracket's best sample and its zoom starts in the second
    pass (one pass more than the bound above).

    Ties between separate maxima go to the smaller x (strict improvement in
    increasing x); a NaN value never wins. Brackets never interact, so when
    f evaluates each point independently of the rest of its call, each
    bracket's result is bit for bit the one it gets refined alone. Returns
    (x_best, f_best).
    """
    fs = np.asarray(fs, dtype=float)
    peaks = np.flatnonzero(grid_local_maxima(fs)).tolist()
    xs, fs = np.asarray(xs, dtype=float).tolist(), fs.tolist()
    last = len(xs) - 1
    best = [[xs[i], fs[i]] for i in peaks]  # in increasing x
    brackets = []  # ([x, f] of a maximum, lo, hi) of each open bracket
    probes = []    # ([x, f], lo, hi, probe point) of each end maximum
    for b, i in zip(best, peaks):
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, last)]
        if not hi - lo > tol:
            continue
        if 0 < i < last:
            brackets.append((b, lo, hi))
        else:
            probes.append((b, lo, hi, b[0] + tol if i == 0 else b[0] - tol))
    while brackets or probes:
        pts = [lo + (hi - lo) * s
               for _, lo, hi in brackets for s in _ZOOM_STEPS]
        vals = np.fmax(f(np.array(pts + [p[3] for p in probes])),
                       -math.inf).tolist()  # NaN counts as -inf
        still_open = []
        for k, (b, lo, hi) in enumerate(brackets):
            row = slice(k * ZOOM_POINTS, (k + 1) * ZOOM_POINTS)
            new_x, new_f = pts[row], vals[row]
            fj = max(new_f)
            xj = new_x[new_f.index(fj)]  # of equal new samples, the smaller x
            # the previous best stays a candidate neighbour of the new one
            samples = [lo, b[0], *new_x, hi]
            if fj > b[1] or (fj == b[1] and xj < b[0]):
                b[:] = xj, fj
            # the new bracket: the nearest samples below and above the best
            new_lo = max((s for s in samples if s < b[0]), default=-math.inf)
            new_hi = min((s for s in samples if s > b[0]), default=math.inf)
            if tol < new_hi - new_lo < hi - lo:
                still_open.append((b, new_lo, new_hi))
        for (b, lo, hi, p), v in zip(probes, vals[len(pts):]):
            if v > b[1]:  # a rising end opens its cell, the probe its best
                b[:] = p, v
                still_open.append((b, lo, hi))
        brackets, probes = still_open, []
    x_best, f_best = xs[0], -math.inf
    for x, fx in best:
        # strict improvement only: candidates come in increasing x, so ties
        # keep the smaller-x maximizer
        if fx > f_best:
            x_best, f_best = x, fx
    return x_best, f_best


def composite_simpson(ys, dx):
    """Composite Simpson integral of uniformly sampled values.

    Handles any sample count >= 2: even interval counts use the 1/3 rule
    throughout; odd interval counts use the 1/3 rule on the first n-3
    intervals and the 3/8 rule on the last three (the 3/8 rule alone for
    three intervals, trapezoid for a single one).

    Integrates along the last axis, so an N-D array gives one integral per
    row, each bit for bit the integral of that row alone.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[-1] - 1 if ys.ndim else 0  # number of intervals
    if n < 1:
        raise ValueError("need at least two samples")
    if n == 1:
        return 0.5 * dx * (ys[..., 0] + ys[..., 1])
    if n == 2:
        return dx / 3.0 * (ys[..., 0] + 4.0 * ys[..., 1] + ys[..., 2])
    if n % 2 == 0:
        s = (ys[..., 0] + ys[..., -1] + 4.0 * np.sum(ys[..., 1:-1:2], axis=-1)
             + 2.0 * np.sum(ys[..., 2:-2:2], axis=-1))
        return dx / 3.0 * s
    tail = 3.0 * dx / 8.0 * (ys[..., -4] + 3.0 * ys[..., -3]
                             + 3.0 * ys[..., -2] + ys[..., -1])
    if n == 3:
        return tail
    head = composite_simpson(ys[..., : n - 2], dx)  # n-3 intervals, even
    return head + tail


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Deterministic adaptive Simpson quadrature of f on a batch of panels.

    a, b and tol are scalars or 1-D arrays, one entry per panel [a, b]; f
    maps a 1-D array of points to the array of their values. Classic
    bisection on the local error estimate: an interval is accepted when
    |S2 - S1| <= 15 tol or at max_depth, as S2 + (S2 - S1)/15, and split
    otherwise, each half getting half its tol. tol is an absolute error
    target for the whole panel, split proportionally to subinterval width.

    All panels are bisected level by level: one call of f on the ends and
    midpoints of every panel, then one per level on the two new midpoints
    of every open interval. Each panel's result is the sum of its accepted
    intervals from left to right, so a panel's value is bit for bit the one
    the left-first recursion on it alone gives, whenever f returns the same
    bits. Returns a float for scalar input, else an array.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(tol) == 0
    a, b, tol = (np.array(v, dtype=float, ndmin=1)
                 for v in np.broadcast_arrays(a, b, tol))
    n = a.size
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.concatenate([a, m, b])).reshape(3, n)
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    panel = np.arange(n)
    leaves = []  # (panel, left end, value) of the accepted intervals
    depth = 0
    while panel.size:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(np.concatenate([lm, rm])).reshape(2, -1)
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = sl + sr - s
        done = (np.abs(err) <= 15.0 * tol) | (depth >= max_depth)
        leaves.append((panel[done], a[done], (sl + sr + err / 15.0)[done]))
        k = ~done
        half = 0.5 * tol[k]
        a, fa, m, fm, b, fb, s, tol, panel = (
            np.concatenate(pair) for pair in (
                (a[k], m[k]), (fa[k], fm[k]), (lm[k], rm[k]),
                (flm[k], frm[k]), (m[k], b[k]), (fm[k], fb[k]),
                (sl[k], sr[k]), (half, half), (panel[k], panel[k])))
        depth += 1
    p, lo, val = (np.concatenate(c) for c in zip(*leaves))
    order = np.lexsort((lo, p))  # by panel, then left to right
    # bincount adds each panel's weights in array order, starting from 0.0
    total = np.bincount(p[order], weights=val[order], minlength=n)
    return float(total[0]) if scalar else total
