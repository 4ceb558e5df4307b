"""Independent evaluation routes used to cross-check the package.

Everything here is written directly from the defining formulas with
mpmath/scipy/cmath and shares no code with the package internals, except
refine_every_maximum, which keeps an earlier form of the package's grid
refinement as a reference and calls the package's golden section. The
implementations are deliberately naive (literal complex arithmetic, dense
grids, generic quadrature): correctness over speed. Tests compare package
output against these routes live where cheap, and against frozen values
produced by them where expensive.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize

from wavegain._numerics import golden_max, grid_local_maxima

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
