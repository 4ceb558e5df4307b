"""Independent evaluation routes used to cross-check the package.

Everything here is written directly from the defining formulas with
mpmath/scipy/cmath and shares no code with the package internals, except
refine_every_maximum, which keeps an earlier form of the package's grid
refinement as a reference and calls the package's golden section, and
sup_gain_rows_full_span, which keeps the package's sup-gain rows in the form
that sampled all of [x_lo, 1] and calls the package's kernels. The
implementations are deliberately naive (literal complex arithmetic, dense
grids, generic quadrature): correctness over speed. adaptive_simpson_scalar
likewise keeps the package's one-panel quadrature in its earlier scalar
form, as the reference for the batched one, and
refine_local_maxima_arrays keeps the package's zoom in its earlier array
form, as the reference for the plain-record one, and simulate_per_step
keeps the simulator's earlier field reconstruction, one output step at a
time, as the reference for the blocked one. Tests compare package
output against these routes live where cheap, and against frozen values
produced by them where expensive.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize

import wavegain.freq_response as fr
from wavegain._numerics import ZOOM_POINTS, golden_max, grid_local_maxima

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# frequency domain, literal complex arithmetic
# ---------------------------------------------------------------------------

def spatial_root(sigma, mu, omega):
    """Root lambda with Re >= 0 of lambda^2 (1+i sigma w) = i mu w - w^2."""
    lam = cmath.sqrt((1j * mu * omega - omega**2) / (1.0 + 1j * sigma * omega))
    return -lam if lam.real < 0 else lam


def profile_complex(sigma, mu, omega, x):
    """h + i g at position x, as one sinh ratio (plain double precision)."""
    lam = spatial_root(sigma, mu, omega)
    return cmath.sinh(lam * (1.0 - x)) / cmath.sinh(lam)


def mp_profile(sigma, mu, omega, x, dps=30):
    """Same ratio in arbitrary precision; returns an mpmath complex."""
    with mp.workdps(dps):
        lam2 = (1j * mp.mpf(mu) * omega - mp.mpf(omega)**2) \
            / (1 + 1j * mp.mpf(sigma) * omega)
        lam = mp.sqrt(lam2)
        if mp.re(lam) < 0:
            lam = -lam
        return mp.sinh(lam * (1 - mp.mpf(x))) / mp.sinh(lam)


def mp_sup_gain(sigma, mu, omega, n=4001, dps=30):
    """Brute-force max_x |profile| on a dense grid (no refinement)."""
    with mp.workdps(dps):
        lam2 = (1j * mp.mpf(mu) * omega - mp.mpf(omega)**2) \
            / (1 + 1j * mp.mpf(sigma) * omega)
        lam = mp.sqrt(lam2)
        if mp.re(lam) < 0:
            lam = -lam
        sh = mp.sinh(lam)
        best = mp.mpf(0)
        for i in range(n):
            v = abs(mp.sinh(lam * (1 - mp.mpf(i) / (n - 1))) / sh)
            if v > best:
                best = v
        return float(best)


def mp_l2_stats(sigma, mu, omega, dps=30):
    """(p, q1, q2) of the squared-norm oscillation, by direct quadrature.

    For unit sinusoidal forcing the squared spatial L2 norm of the periodic
    response is p + q1 cos(2wt) + q2 sin(2wt) with
    p = (Ih + Ig)/2, q1 = (Ig - Ih)/2, q2 = Ihg, where Ih, Ig, Ihg are the
    integrals over x of h^2, g^2 and h g.
    """
    with mp.workdps(dps):
        lam2 = (1j * mp.mpf(mu) * omega - mp.mpf(omega)**2) \
            / (1 + 1j * mp.mpf(sigma) * omega)
        lam = mp.sqrt(lam2)
        if mp.re(lam) < 0:
            lam = -lam
        sh = mp.sinh(lam)

        def v(x):
            return mp.sinh(lam * (1 - x)) / sh

        ih = mp.quad(lambda x: mp.re(v(x))**2, [0, 1])
        ig = mp.quad(lambda x: mp.im(v(x))**2, [0, 1])
        ihg = mp.quad(lambda x: mp.re(v(x)) * mp.im(v(x)), [0, 1])
        return float((ih + ig) / 2), float((ig - ih) / 2), float(ihg)


def transfer_literal(sigma, mu, n, omega):
    """Mode transfer sqrt(2) n pi (1 + i sigma w) / (n^2pi^2 - w^2 + i w (mu + n^2pi^2 sigma))."""
    npi2 = (n * math.pi)**2
    return SQRT2 * n * math.pi * (1.0 + 1j * sigma * omega) \
        / (npi2 - omega**2 + 1j * omega * (mu + npi2 * sigma))


# ---------------------------------------------------------------------------
# per-mode amplification constants, literal scalar arithmetic
# ---------------------------------------------------------------------------

def amplification_literal(sigma, mu, n):
    """A_n from the closed forms, written independently of the package.

    mu*sigma >= 1 gives 1 in every regime. Otherwise, with
    k = (mu + n^2 pi^2 sigma)/2 and w = sqrt(1 - mu sigma):
    - overdamped (k > n pi), r = sqrt(k^2 - n^2 pi^2):
        1 + 2 w ((sigma (k - r) - 1) / (sigma (k + r) - 1))^(k / (2 r))
      when sigma (k - r) > 1, else exactly 1;
    - underdamped (k < n pi), wn = sqrt(n^2 pi^2 - k^2):
        1 + 2 w exp((k/wn)(arccos(c) - pi)) / (1 - exp(-k pi / wn)),
        c = (2 - mu sigma - (n pi sigma)^2) / (2 w);
    - critical (k = n pi): 1 + 2 w exp(-1 - 1/w) if n pi sigma > 1 else 1.
    """
    if mu * sigma >= 1.0:
        return 1.0
    npi = n * math.pi
    k = 0.5 * (mu + npi * npi * sigma)
    w = math.sqrt(1.0 - mu * sigma)
    disc = k * k - npi * npi
    if abs(k - npi) <= 1e-12 * npi:
        return 1.0 + 2.0 * w * math.exp(-1.0 - 1.0 / w) if npi * sigma > 1.0 else 1.0
    if disc > 0.0:
        r = math.sqrt(disc)
        q = sigma * (k - r) - 1.0
        if q <= 0.0:
            return 1.0
        p = sigma * (k + r) - 1.0
        return 1.0 + 2.0 * w * (q / p)**(k / (2.0 * r))
    wn = math.sqrt(-disc)
    c = (2.0 - mu * sigma - (npi * sigma)**2) / (2.0 * w)
    c = min(1.0, max(-1.0, c))
    return 1.0 + 2.0 * w * math.exp((k / wn) * (math.acos(c) - math.pi)) \
        / (1.0 - math.exp(-k * math.pi / wn))


def amplification_mp(sigma, mu, n, dps=60):
    """A_n from the same closed forms as amplification_literal, in mpmath.

    At dps digits the cancellation in sigma (k - r) - 1 (about 2 log10(n)
    digits at n pi sigma >> 1) leaves ample precision; sigma and mu are
    taken as the exact binary values of the floats. Exactly critical modes
    are not handled.
    """
    with mp.workdps(dps):
        s, m = mp.mpf(sigma), mp.mpf(mu)
        if m * s >= 1:
            return mp.mpf(1)
        npi = n * mp.pi
        k = (m + npi**2 * s) / 2
        w = mp.sqrt(1 - m * s)
        disc = k * k - npi * npi
        if disc > 0:
            r = mp.sqrt(disc)
            q = s * (k - r) - 1
            if q <= 0:
                return mp.mpf(1)
            return 1 + 2 * w * (q / (s * (k + r) - 1))**(k / (2 * r))
        wn = mp.sqrt(-disc)
        c = (2 - m * s - (npi * s)**2) / (2 * w)
        return 1 + 2 * w * mp.exp((k / wn) * (mp.acos(c) - mp.pi)) \
            / (1 - mp.exp(-mp.pi * k / wn))


# ---------------------------------------------------------------------------
# forcing kernel of one mode, via the complex characteristic roots
# ---------------------------------------------------------------------------

def kernel_literal(sigma, mu, n):
    """Return (K, decay) for mode n; K built from the impulse response.

    The modal ODE y'' + 2k y' + (n pi)^2 y is forced through
    sqrt(2) n pi (sigma d' + d), so its response to d is the convolution
    with K = sqrt(2) n pi (sigma imp' + imp), where imp is the unit impulse
    response (e^{s1 t} - e^{s2 t})/(s1 - s2) with the complex roots s1, s2.
    Valid away from exact criticality (s1 = s2).
    """
    npi = n * math.pi
    k = 0.5 * (mu + npi * npi * sigma)
    root = cmath.sqrt(complex(k * k - npi * npi))
    s1, s2 = -k + root, -k - root
    if s1 == s2:
        raise ValueError("exactly critical mode; roots coincide")
    pref = SQRT2 * npi / (s1 - s2)

    def K(t):
        e1, e2 = cmath.exp(s1 * t), cmath.exp(s2 * t)
        val = pref * ((sigma * s1 + 1.0) * e1 - (sigma * s2 + 1.0) * e2)
        return val.real

    return K, k - abs(root.real)


def kernel_mp(sigma, mu, n, t, dps=40):
    """K of mode n at time t in arbitrary precision, from the complex roots.

    K = sqrt(2) n pi (sigma imp' + imp) with the unit impulse response
    imp = (e^{s1 t} - e^{s2 t})/(s1 - s2); at a double root its limit
    t e^{s1 t}. sigma and mu are taken exactly as given. Returns a float.
    """
    with mp.workdps(dps):
        s, m, t = mp.mpf(sigma), mp.mpf(mu), mp.mpf(t)
        npi = n * mp.pi
        k = (m + npi * npi * s) / 2
        root = mp.sqrt(mp.mpc(k * k - npi * npi))
        s1, s2 = -k + root, -k - root
        if s1 == s2:
            imp, dimp = t * mp.exp(s1 * t), (1 + s1 * t) * mp.exp(s1 * t)
        else:
            e1, e2 = mp.exp(s1 * t), mp.exp(s2 * t)
            imp, dimp = (e1 - e2) / (s1 - s2), (s1 * e1 - s2 * e2) / (s1 - s2)
        return float(mp.re(mp.sqrt(2) * npi * (s * dimp + imp)))


def flow_mp(k, q, t, dps=40):
    """(C, S) = e^{-kt} (cosh r t, sinh(r t)/r) with q = (r t)^2, in mpmath.

    k, q and t are taken exactly as given; q < 0 gives cos and sin of the
    frequency sqrt(-q)/t, q = 0 the double-root limit (1, t) e^{-kt}.
    Returns floats.
    """
    with mp.workdps(dps):
        k, q, t = mp.mpf(k), mp.mpf(q), mp.mpf(t)
        ek = mp.exp(-k * t)
        if q == 0:
            return float(ek), float(ek * t)
        z = mp.sqrt(mp.mpc(q))  # r t, imaginary when q < 0
        return float(mp.re(ek * mp.cosh(z))), float(mp.re(ek * t * mp.sinh(z) / z))


def kernel_l1_quad(sigma, mu, n, rel_tol=1e-12):
    """L1 norm of the mode kernel by adaptive quadrature.

    Sign changes are bracketed on a dense sample and polished with brentq;
    each panel of one-signed K is then integrated smoothly and the absolute
    panel values summed. Integrating |K| directly would leave kinks inside
    the quadrature intervals and lose accuracy on slow oscillatory modes.

    Each panel is further cut on a geometric ladder anchored at its left
    edge and scaled by the fastest decay rate: strongly overdamped kernels
    carry a boundary layer of width ~1/(k+r) whose mass a quadrature tuned
    to the slow-rate horizon steps over without noticing.
    """
    K, decay = kernel_literal(sigma, mu, n)
    npi = n * math.pi
    k = 0.5 * (mu + npi * npi * sigma)
    fast = k + abs(cmath.sqrt(complex(k * k - npi * npi)).real)
    horizon = 40.0 / decay
    ts = np.linspace(0.0, horizon, 20001)
    vals = np.array([K(t) for t in ts])
    signs = np.sign(vals)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    zeros = [optimize.brentq(K, ts[i], ts[i + 1], xtol=1e-300, rtol=8.9e-16)
             for i in idx]
    edges = [0.0] + zeros + [horizon]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        cuts, step = [a], 1.0 / fast
        while a + step < b:
            cuts.append(a + step)
            step *= 4.0
        cuts.append(b)
        panel = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            val, _ = integrate.quad(K, lo, hi, limit=200,
                                    epsabs=1e-15, epsrel=rel_tol)
            panel += val
        total += abs(panel)
    return total


# ---------------------------------------------------------------------------
# one-panel adaptive quadrature
# ---------------------------------------------------------------------------

def adaptive_simpson_scalar(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive Simpson quadrature of a scalar f on one panel [a, b].

    The form _numerics.adaptive_simpson had before it batched its panels:
    the same tests, tolerance split and leaf value, processed left to right
    with an explicit stack, calling f on one point (a float) at a time.
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


# ---------------------------------------------------------------------------
# series bounds
# ---------------------------------------------------------------------------

def parseval_sum(sigma, mu, omega, n_terms):
    """(1/2) sum_{n<=N} |H_n|^2 over the literal transfer formula."""
    ns = np.arange(1, n_terms + 1, dtype=float)
    npi2 = (ns * math.pi)**2
    h = SQRT2 * ns * math.pi * (1.0 + 1j * sigma * omega) \
        / (npi2 - omega**2 + 1j * omega * (mu + npi2 * sigma))
    return 0.5 * float(np.sum(np.abs(h)**2))


def u2_interval_literal(sigma, mu, n_terms):
    """Enclosing interval for the mode-sum upper bound on the L2 gain.

    U2^2 = (sum_n A_n^2 / n^2) / (3 zeta(2)). The first n_terms terms use
    the literal A_n; the tail is sandwiched between A = 1 and the largest
    A found on a probe of later indices (A_n decreases toward 1).
    """
    zeta2 = math.pi**2 / 6.0
    s = 0.0
    for n in range(1, n_terms + 1):
        a = amplification_literal(sigma, mu, n)
        s += a * a / (n * n)
    # 1/(N+1) <= sum_{n>N} 1/n^2 <= 1/N, and A_n >= 1 always
    probe = [amplification_literal(sigma, mu, m)
             for m in (n_terms + 1, n_terms + 7, 2 * n_terms, 10 * n_terms)]
    a_hi = max(probe)
    lo = math.sqrt((s + 1.0 / (n_terms + 1)) / (3.0 * zeta2))
    hi = math.sqrt((s + a_hi * a_hi / n_terms) / (3.0 * zeta2))
    return lo, hi


def u2_series_mp(sigma, mu, dps=30):
    """The whole U_2 series, sqrt(sum A_n^2/n^2 / (3 zeta(2))), in mpmath.

    The excess terms g(n) = (A_n^2 - 1)/n^2 of amplification_mp are summed
    for n <= M = max(3/(pi sigma), 300), where every later mode is
    overdamped and g is smooth on the scale of n. The rest follows from the
    midpoint Euler-Maclaurin formula, sum_{n>M} g(n) = int_{M+1/2}^inf g
    + g'(M+1/2)/24 - 7 g'''(M+1/2)/5760 + ..., with the integral by
    mp.quad and the derivatives by mp.diff; the next term is about
    g/M^5 smaller than the tail. The integral stops at 1e6 (M + 1/2): past
    there g < 16/(pi sigma n^2)^2 leaves out under 1e-18 of the tail. The
    working precision grows with log(n) to cover the cancellation in
    amplification_mp. Returns an mpf.
    """
    with mp.workdps(dps):
        if mp.mpf(mu) * mp.mpf(sigma) >= 1:
            return 1 / mp.sqrt(3)
        m_terms = max(int(3.0 / (math.pi * sigma)) + 1, 300)

        def g(x):
            digits = mp.mp.dps + 10 + 2 * int(mp.log10(x))
            a = amplification_mp(sigma, mu, x, dps=digits)
            return (a * a - 1) / (x * x)

        excess = mp.fsum(g(mp.mpf(n)) for n in range(1, m_terms + 1))
        x0 = mp.mpf(m_terms) + mp.mpf(1) / 2
        tail = (mp.quad(g, [x0 * 4 ** k for k in range(11)])
                + mp.diff(g, x0, 1) / 24 - 7 * mp.diff(g, x0, 3) / 5760)
        return mp.sqrt((1 + (excess + tail) / mp.zeta(2)) / 3)


# ---------------------------------------------------------------------------
# sup-gain rows over the full span [x_lo, 1]
# ---------------------------------------------------------------------------

# the full-span rows' cap and block size, as they were in the package
_MAX_ROW_POINTS = 1 << 20
_BLOCK = 1 << 13


def _grid_peaks(a, b, x_lo, m, rows, best):
    """Sample rows on np.linspace(x_lo, 1, m+1); store each row's grid
    maximum in best and return (row, lo, hi, x0) of every grid-local maximum.
    The block's temporaries are freed on return."""
    xs = np.linspace(x_lo[rows], 1.0, m + 1, axis=1)
    fs = fr._sup_objective(a[rows, None], b[rows, None], xs)
    best[rows] = fs.max(axis=1)
    r, c = np.nonzero(grid_local_maxima(fs))
    return (rows[r], xs[r, np.maximum(c - 1, 0)], xs[r, np.minimum(c + 1, m)],
            xs[r, c])


def sup_gain_rows_full_span(params, w):
    """The package's _sup_gain_rows before its rows kept only the last
    period: 32 points per period pi/b over all of [x_lo, 1], rows grouped by
    their point count n. The reference for the one-period rows, which must
    agree with it to a few ulp. Call it under np.errstate(invalid="ignore")
    with mu*sigma < 1, as sup_gain_at calls the package's rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # NaN n at a = inf
        _, _, a, b = fr._polar_arrays(params.sigma, params.mu, w)
        # when a >= 20 the exp(-2a(1-x)) factor confines the maximum to
        # x > 1 - 20/a (the rest of [0, 1] is below 4e-40 of the x=1 value)
        x_lo = 1.0 - 20.0 / np.maximum(a, 20.0)
        n = 32.0 * np.maximum(1.0, np.ceil(b * (1.0 - x_lo) / math.pi))
    big = n > _MAX_ROW_POINTS
    if big.any():
        i = int(np.flatnonzero(big)[0])
        raise ValueError(
            f"sigma={params.sigma!r}, omega={float(w[i])!r}: the sup-gain "
            f"grid would need {n[i]:.3g} points, above the cap of "
            f"{_MAX_ROW_POINTS} per frequency")
    n = np.where(np.isnan(n), 32.0, n).astype(np.int64)
    best = np.empty_like(a)
    found = []  # per block: (row, lo, hi, x0) of every grid-local maximum
    order = np.argsort(n, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(n[order])) + 1):
        m = int(n[group[0]])
        per_block = max(1, _BLOCK // (m + 1))
        for s in range(0, group.size, per_block):
            rows = group[s:s + per_block]
            found.append(_grid_peaks(a, b, x_lo, m, rows, best))
    row, lo, hi, x0 = fr._pow2_length(
        *(np.concatenate(p) for p in zip(*found)))
    ar, br = a[row], b[row]
    roots, _ = fr._newton_roots(ar, br, lo, hi, x0)
    np.maximum.at(best, row, fr._sup_objective(ar, br, roots))
    # where r underflows to 0 (omega below about 1e-162 at mu = 0), a = b = 0
    # and F is 0/0 (sup_gain_at silences that): the omega -> 0 limit 1
    return np.where((a == 0.0) & (b == 0.0), 1.0,
                    np.maximum(1.0, np.sqrt(best)))


# ---------------------------------------------------------------------------
# spike-search refinement
# ---------------------------------------------------------------------------

def refine_every_maximum(f, xs, fs, tol=1e-10):
    """Grid refinement that golden-searches every grid-local maximum.

    The form _numerics.refine_local_maxima had before it kept end maxima
    after one inward probe and before its batched zoom: same arguments and
    return value, but f is called on one point (a float) at a time.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    idx = np.nonzero(grid_local_maxima(fs))[0]
    best_x = float(xs[0])
    best_f = -math.inf
    for i in idx:
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        if hi - lo <= tol:
            x, fx = float(xs[i]), float(fs[i])
        else:
            x, fx = golden_max(f, lo, hi, tol=tol)
            if fs[i] > fx:
                x, fx = float(xs[i]), float(fs[i])
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


# places of the zoom's samples in a bracket, as fractions: j/17, j = 1..16
_ZOOM_STEPS = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)


def refine_local_maxima_arrays(f, xs, fs, tol=1e-10):
    """refine_local_maxima in the array form the package had before it kept
    one plain record per bracket: the same zoom, kept here as the reference
    for the package's results and for the arrays it passes to f.

    Each pass holds the open brackets as parallel arrays (maximum, ends,
    best sample), takes the neighbours of each best by masked reductions
    and compacts the arrays as brackets close.
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


# ---------------------------------------------------------------------------
# scalar mode ODE, closed-form solutions for the time stepper
# ---------------------------------------------------------------------------

def free_mode_solution(sigma, mu, n, y0, v0, t):
    """Unforced modal solution (y, y') at time t via the complex roots."""
    npi = n * math.pi
    k = 0.5 * (mu + npi * npi * sigma)
    root = cmath.sqrt(complex(k * k - npi * npi))
    s1, s2 = -k + root, -k - root
    if s1 == s2:
        raise ValueError("exactly critical mode; roots coincide")
    c2 = (v0 - s1 * y0) / (s2 - s1)
    c1 = y0 - c2
    y = c1 * cmath.exp(s1 * t) + c2 * cmath.exp(s2 * t)
    v = c1 * s1 * cmath.exp(s1 * t) + c2 * s2 * cmath.exp(s2 * t)
    return y.real, v.real


def simulate_per_step(params, d, config, initial=None):
    """(t, sup_norm, l2_norm) of the package's simulation, with the field
    rebuilt on its own at every output step.

    The package's stepping and per-mode kernels, and its earlier field
    reconstruction: one bincount fold, one 1-D rfft and one Simpson sum per
    output step. The reference for the blocked reconstruction, which must
    give the same bits.
    """
    import wavegain.simulator as sim
    from wavegain._numerics import composite_simpson
    from wavegain.modal import (_mode_table, _particular_arrays,
                                _propagator_arrays, _transfer_array)

    N = config.n_modes
    ns = np.arange(1, N + 1, dtype=float)
    table = _mode_table(params, ns)
    H = _transfer_array(params, ns, d.omega) if d.kind == "sinusoid" else None
    y = np.zeros(N)
    v = np.zeros(N)
    if initial is not None:
        y0, v0 = (np.asarray(a, dtype=float) for a in initial)
        y[:y0.size] = y0
        v[:v0.size] = v0
    xs = np.linspace(0.0, 1.0, config.x_points)
    dx = xs[1] - xs[0]
    lift_coef = SQRT2 / table.npi
    period = 2 * (config.x_points - 1)
    slots = np.arange(1, N + 1) % period
    n_steps = int(math.floor(config.t_final / config.dt_output + 1e-12))
    times, sups, l2s = [], [], []

    def measure(t):
        dval = d.value(t)
        coef = y - dval * lift_coef
        buf = np.bincount(slots, weights=coef, minlength=period)
        u = -SQRT2 * np.fft.rfft(buf).imag
        u += dval * (1.0 - xs)
        times.append(t)
        sups.append(float(np.abs(u).max()))
        l2s.append(math.sqrt(max(0.0, composite_simpson(u * u, dx))))

    t = 0.0
    measure(t)
    end_t, end = None, None
    for _ in range(n_steps):
        t_next = t + config.dt_output
        seg_start = t
        for brk in sim._segment_breaks(d, t, t_next) + (t_next,):
            dt = brk - seg_start
            if dt <= 0.0:
                continue
            (yp0, vp0), (yp1, vp1) = _particular_arrays(
                table, params.sigma, H, d, seg_start, seg_start + dt,
                start=end if end_t == seg_start else None)
            end_t, end = seg_start + dt, (yp1, vp1)
            p00, p01, p10, p11 = _propagator_arrays(table, dt)
            zy = y - yp0
            zv = v - vp0
            y = p00 * zy + p01 * zv + yp1
            v = p10 * zy + p11 * zv + vp1
            seg_start = seg_start + dt
        t = t_next
        measure(t)
    return np.array(times), np.array(sups), np.array(l2s)
