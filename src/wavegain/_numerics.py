"""Shared numerical kernels: stable special forms, 1-D refinement, quadrature.

Everything here is deterministic: fixed evaluation orders, fixed tolerances,
no randomness, no threading. Callers rely on bitwise reproducibility.
"""

import math

import numpy as np

# golden-section ratio 2/(1+sqrt(5))
_INVPHI = 2.0 / (1.0 + math.sqrt(5.0))


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
    """Refine the grid-local maxima of sampled values by golden section.

    xs, fs: 1-D arrays of grid points (increasing) and f values. Each grid
    local maximum (grid_local_maxima, endpoints included) is refined on its
    bracket of neighbouring grid points. A maximum at either end of the grid
    first costs one probe of f at tol inside that end: if the curve does not
    rise there, the end itself is the cell's maximum under the unimodal
    assumption golden section already makes, and it is kept unsearched.
    Returns (x_best, f_best) with value ties between separate maxima broken
    toward smaller x.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    idx = np.nonzero(grid_local_maxima(fs))[0]
    best_x = float(xs[0])
    best_f = -math.inf
    for i in idx:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        inward = tol if i == 0 else -tol if i == xs.size - 1 else None
        if hi - lo <= tol or (
                inward is not None and f(float(xs[i]) + inward) <= fs[i]):
            x, fx = float(xs[i]), float(fs[i])
        else:
            x, fx = golden_max(f, lo, hi, tol=tol)
            if fs[i] > fx:
                x, fx = float(xs[i]), float(fs[i])
        # strict improvement only: candidates come in increasing x, so ties
        # keep the smaller-x maximizer
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


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
