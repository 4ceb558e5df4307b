"""Shared numerical kernels: stable special forms, 1-D refinement, quadrature.

Everything here is deterministic: fixed evaluation orders, fixed tolerances,
no randomness, no threading. Callers rely on bitwise reproducibility.
"""

import math

import numpy as np

# golden-section ratio 2/(1+sqrt(5))
_INVPHI = 2.0 / (1.0 + math.sqrt(5.0))
# Interior points per bracket and pass of refine_local_maxima, and their
# places as fractions of the bracket: j/17 for j = 1..16
ZOOM_POINTS = 16
_ZOOM_STEPS = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)


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
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    idx = np.flatnonzero(grid_local_maxima(fs))
    last = xs.size - 1
    grid_lo = xs[np.maximum(idx - 1, 0)]
    grid_hi = xs[np.minimum(idx + 1, last)]
    best_x, best_f = xs[idx], fs[idx]  # each maximum's result
    live = grid_hi - grid_lo > tol
    at_end = live & ((idx == 0) | (idx == last))
    ends = np.flatnonzero(at_end)
    probes = best_x[ends] + np.where(idx[ends] == 0, tol, -tol)
    # the open brackets: which maximum, their ends and best sample so far
    ids = np.flatnonzero(live & ~at_end)
    lo, hi, bx, bf = grid_lo[ids], grid_hi[ids], best_x[ids], best_f[ids]
    while ids.size or ends.size:
        width = hi - lo
        pts = lo[:, None] + width[:, None] * _ZOOM_STEPS
        vals = np.fmax(f(np.concatenate([pts.ravel(), probes])), -math.inf)
        if ids.size:  # a pass of end probes alone skips this
            v = vals[:pts.size].reshape(pts.shape)
            r = np.arange(ids.size)
            j = np.argmax(v, axis=1)  # of equal new samples, the smaller x
            xj, fj = pts[r, j], v[r, j]
            up = (fj > bf) | ((fj == bf) & (xj < bx))
            sx = np.concatenate([lo[:, None], bx[:, None], pts, hi[:, None]],
                                axis=1)
            bx, bf = np.where(up, xj, bx), np.where(up, fj, bf)
            # the new bracket: the nearest samples below and above the best
            below, above = sx < bx[:, None], sx > bx[:, None]
            lo = np.max(sx, axis=1, initial=-math.inf, where=below)
            hi = np.min(sx, axis=1, initial=math.inf, where=above)
            shrunk = hi - lo
            keep = (shrunk > tol) & (shrunk < width)
            if not keep.all():
                done = ids[~keep]
                best_x[done], best_f[done] = bx[~keep], bf[~keep]
                ids, lo, hi, bx, bf = (a[keep] for a in (ids, lo, hi, bx, bf))
        if ends.size:  # after the first pass: each rising end opens
            rising = vals[pts.size:] > best_f[ends]
            opened = ends[rising]
            ids = np.concatenate([ids, opened])
            lo = np.concatenate([lo, grid_lo[opened]])
            hi = np.concatenate([hi, grid_hi[opened]])
            bx = np.concatenate([bx, probes[rising]])
            bf = np.concatenate([bf, vals[pts.size:][rising]])
            ends, probes = ends[:0], probes[:0]
    x_best, f_best = float(xs[0]), -math.inf
    for x, fx in zip(best_x.tolist(), best_f.tolist()):
        # strict improvement only: candidates come in increasing x, so ties
        # keep the smaller-x maximizer
        if fx > f_best:
            x_best, f_best = x, fx
    return x_best, f_best


def composite_simpson(ys, dx):
    """Composite Simpson integral of uniformly sampled values.

    Handles any sample count >= 2: even interval counts use the 1/3 rule
    throughout; odd interval counts use the 1/3 rule on the first n-3
    intervals and the 3/8 rule on the last three (or trapezoid when only a
    single interval exists).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size - 1  # number of intervals
    if n < 1:
        raise ValueError("need at least two samples")
    if n == 1:
        return 0.5 * dx * (ys[0] + ys[1])
    if n == 2:
        return dx / 3.0 * (ys[0] + 4.0 * ys[1] + ys[2])
    if n % 2 == 0:
        s = ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-2:2])
        return dx / 3.0 * s
    head = composite_simpson(ys[: n - 2], dx)  # n-3 intervals, even count
    tail = 3.0 * dx / 8.0 * (ys[-4] + 3.0 * ys[-3] + 3.0 * ys[-2] + ys[-1])
    return head + tail


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Deterministic adaptive Simpson quadrature of f on [a, b].

    Classic bisection on the local error estimate |S2 - S1|/15, processed
    left to right with an explicit stack so the accumulation order is fixed.
    tol is an absolute error target for the whole interval, split
    proportionally to subinterval width.
    """
    a = float(a)
    b = float(b)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    # stack entries: (a, fa, m, fm, b, fb, S, tol, depth); LIFO with right
    # pushed first so the left half is processed first.
    stack = [(a, fa, m, fm, b, fb, whole, tol, 0)]
    while stack:
        a0, fa0, m0, fm0, b0, fb0, s0, tol0, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = f(lm)
        frm = f(rm)
        sl = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        sr = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        err = sl + sr - s0
        if depth >= max_depth or abs(err) <= 15.0 * tol0:
            total += sl + sr + err / 15.0
        else:
            half = 0.5 * tol0
            stack.append((m0, fm0, rm, frm, b0, fb0, sr, half, depth + 1))
            stack.append((a0, fa0, lm, flm, m0, fm0, sl, half, depth + 1))
    return total
