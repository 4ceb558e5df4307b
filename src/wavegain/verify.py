"""Cross-validation suites tying the analytic routes to each other.

Every quantity the package computes is reachable by at least two independent
routes (closed form vs quadrature, frequency domain vs mode space, series vs
exact branch). Each suite below checks one such pairing and reports the
worst deviation seen; run_suites drives them all. Deliberately references
functions through their modules so a corrupted build is caught even when
individual symbols were imported elsewhere.
"""

import importlib
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import freq_response as fr
from . import modal as mo
from ._numerics import composite_simpson

# the package re-exports the gain_bounds *function*, which shadows the
# submodule attribute; import_module always yields the module itself
gb = importlib.import_module(".gain_bounds", __package__)

__all__ = ["SuiteResult", "run_suites", "SUITE_NAMES", "DEFAULT_SEED"]

DEFAULT_SEED = 20250401


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str
    seconds: float


def _draws(rng, count):
    """Randomized, numerically sane (sigma, mu, omega) triples."""
    sigma = 10.0 ** rng.uniform(-2.0, 0.5, count)
    mu = np.where(rng.random(count) < 0.25, 0.0, rng.uniform(0.0, 3.0, count))
    omega = 10.0 ** rng.uniform(-1.5, 1.5, count)
    return sigma, mu, omega


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_ode_residual(rng, quick):
    """The profile solves (1+i sigma w) v'' = (i mu w - w^2) v.

    Checked against a 7-point sixth-order finite-difference second
    derivative at random interior points; the step is tied to the root
    magnitude so truncation stays far below the tolerance.
    """
    count = 60 if quick else 200
    tol = 1e-6
    worst = 0.0
    sigmas, mus, omegas = _draws(rng, count)
    stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    for sg, m, w in zip(sigmas, mus, omegas):
        params = fr.DampingParams(float(sg), float(m))
        point = fr.polar_params(params, float(w))
        lam = complex(point.a, point.b)
        x = float(rng.uniform(0.15, 0.85))
        step = min(0.3 / (abs(lam) + 1.0), 0.02, (min(x, 1.0 - x)) / 3.5)
        xs = x + step * np.arange(-3.0, 4.0)
        h, g = fr.profile_at(point, xs)
        v = h + 1j * g
        d2 = (stencil * v).sum() / (step * step)
        lhs = complex(1.0, params.sigma * w) * d2
        rhs = complex(-w * w, params.mu * w) * v[3]
        scale = abs(lhs) + abs(rhs) + 1e-300
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, tol, f"{count} random draws, max relative residual {worst:.2e}"


def _suite_profile_identity(rng, quick):
    """Amplitude form vs h^2+g^2, boundary values, and the root identity."""
    count = 60 if quick else 200
    tol = 1e-10
    worst = 0.0
    sigmas, mus, omegas = _draws(rng, count)
    xs = np.linspace(0.0, 1.0, 41)
    for sg, m, w in zip(sigmas, mus, omegas):
        params = fr.DampingParams(float(sg), float(m))
        point = fr.polar_params(params, float(w))
        h, g = fr.profile_at(point, xs)
        amp = fr.amplitude_at(point, xs)
        hg = h * h + g * g
        err = np.abs(amp * amp - hg) / np.maximum(hg, 1e-280)
        worst = max(worst, float(err.max()))
        # boundary: v(0) = 1, v(1) = 0, measured absolutely (tol 1e-12 there,
        # scaled into this suite's 1e-10 budget)
        bnd = max(abs(h[0] - 1.0), abs(g[0]), abs(h[-1]), abs(g[-1]))
        worst = max(worst, bnd * 1e2)
        lam2 = complex(point.a, point.b) ** 2
        ident = lam2 * complex(1.0, params.sigma * w) - complex(-w * w, params.mu * w)
        worst = max(worst, abs(ident) / (w * w + params.mu * w) * 1e2)
    return worst, tol, f"{count} draws x 41 points, max deviation {worst:.2e}"


def _suite_l2_identity(rng, quick):
    """(p, q1, q2) match 96-node Gauss-Legendre quadrature of the profiles.

    p = (Ih + Ig)/2, q1 = (Ig - Ih)/2 and q2 = Ihg for the integrals over
    [0, 1] of h^2, g^2 and h g; gaps are relative to p >= |q1|, |q2|.
    """
    from numpy.polynomial.legendre import leggauss  # kept out of start-up

    count = 60 if quick else 200
    tol = 1e-8
    worst = 0.0
    nodes, weights = leggauss(96)
    sigmas, mus, omegas = _draws(rng, count)
    for sg, m, w in zip(sigmas, mus, omegas):
        params = fr.DampingParams(float(sg), float(m))
        point = fr.polar_params(params, float(w))
        h, g = fr.profile_at(point, 0.5 * (nodes + 1.0))
        ih, ig, ihg = (0.5 * float(weights @ f) for f in (h * h, g * g, h * g))
        st = fr.l2_stats_at(params, float(w))
        gap = max(abs(st.p - 0.5 * (ih + ig)), abs(st.q1 - 0.5 * (ig - ih)),
                  abs(st.q2 - ihg))
        worst = max(worst, gap / st.p)
    return worst, tol, f"{count} draws, max gap relative to p {worst:.2e}"


def _suite_parseval(rng, quick):
    """Mode-space mean square (1/2) sum |H_n|^2 matches the profile p."""
    tol = 1e-3
    cases = [(1.0, 0.0, 1.0)] if quick else [
        (1.0, 0.0, 1.0), (0.5, 0.5, 2.3), (0.1, 0.0, 3.14)]
    worst = 0.0
    N = 10_000
    ns = np.arange(1, N + 1)
    for sg, m, w in cases:
        params = fr.DampingParams(sg, m)
        H = mo._transfer_array(params, ns, w)
        total = 0.5 * float((np.abs(H) ** 2).sum())
        p = fr.l2_stats_at(params, w).p
        worst = max(worst, abs(total - p) / p)
    return worst, tol, f"{len(cases)} cases, N={N}, max relative gap {worst:.2e}"


def _suite_kernel_l1(rng, quick):
    """Quadrature of |kernel| equals (sqrt(2)/(n pi)) A_n in every regime."""
    tol = 1e-6
    sets = [(2.0, 1.0), (0.5, 0.0), (0.05, 0.1)]
    ns = range(1, 9) if quick else range(1, 51)
    worst = 0.0
    for sg, m in sets:
        params = fr.DampingParams(sg, m)
        for n in ns:
            l1 = mo.modal_kernel_l1(params, n)
            ref = math.sqrt(2.0) / (n * math.pi) * gb.mode_constants(params, n).A_n
            worst = max(worst, abs(l1 - ref) / ref)
    return worst, tol, (f"{len(sets)} parameter sets, n in "
                        f"[1, {max(ns)}], max relative gap {worst:.2e}")


def _suite_duality(rng, quick):
    """Fourier-sine coefficients of (h, g) equal (Re, Im) of the transfer."""
    tol = 1e-8
    worst = 0.0
    n_max = 12 if quick else 32
    xs = np.linspace(0.0, 1.0, 8193)
    dx = xs[1] - xs[0]
    for sg, m, w in [(1.0, 0.0, 1.0), (0.5, 1.0, 2.0), (0.05, 0.0, 9.0)]:
        params = fr.DampingParams(sg, m)
        point = fr.polar_params(params, w)
        h, g = fr.profile_at(point, xs)
        ns = np.arange(1, n_max + 1)
        H = mo._transfer_array(params, ns, w)
        sines = np.sin(ns[:, None] * math.pi * xs)  # row n-1: sin(n pi x)
        re, im = composite_simpson(np.stack([h, g])[:, None] * sines, dx)
        for n in range(n_max):
            coef = complex(re[n], im[n]) * math.sqrt(2.0)
            worst = max(worst, abs(coef - H[n]))
    return worst, tol, f"3 cases, n <= {n_max}, max absolute gap {worst:.2e}"


def _suite_corollaries(rng, quick):
    """Exact values forced at mu*sigma = 1 and mu*sigma >= 1."""
    tol = 1e-6
    worst = 0.0
    params = fr.DampingParams(1.0, 1.0)
    u_inf = gb.upper_sup(params)
    worst = max(worst, abs(u_inf - 1.0) * 1e3)  # 1e-9 scaled into 1e-6
    worst = max(worst, abs(gb.lower_sup(params).value - 1.0))
    for sg, m in [(1.0, 1.0), (2.0, 0.6), (0.7, 3.0)]:
        pp = fr.DampingParams(sg, m)
        u2 = gb.upper_l2(pp)
        if float(u2) != gb.INV_SQRT3:
            worst = max(worst, abs(float(u2) - gb.INV_SQRT3) * 1e9)
        if quick and (sg, m) != (1.0, 1.0):
            continue
        worst = max(worst, abs(gb.lower_l2(pp).value - gb.INV_SQRT3))
    return worst, tol, f"exact-branch values, worst scaled deviation {worst:.2e}"


def _suite_orderings(rng, quick):
    """Lower <= upper, L_2 <= L_inf, and the limit floors, on random draws."""
    tol = 1e-9
    count = 6 if quick else 24
    sigmas = 10.0 ** rng.uniform(-0.9, 0.5, count)
    mus = np.where(rng.random(count) < 0.2, 0.0, rng.uniform(0.0, 4.0, count))
    worst = 0.0
    for sg, m in zip(sigmas, mus):
        b = gb.gain_bounds(fr.DampingParams(float(sg), float(m)))
        worst = max(worst, b.L_2 - float(b.U_2), b.L_2 - b.L_inf,
                    (gb.INV_SQRT3 - 1e-6) - b.L_2, 1.0 - 1e-9 - b.L_inf)
        if b.U_inf is not None:
            worst = max(worst, b.L_inf - b.U_inf)
    return worst, tol, f"{count} random draws, worst signed violation {worst:.2e}"


_SUITES = [
    ("ode-residual", _suite_ode_residual),
    ("profile-identity", _suite_profile_identity),
    ("l2-stats-identity", _suite_l2_identity),
    ("parseval", _suite_parseval),
    ("kernel-l1", _suite_kernel_l1),
    ("duality", _suite_duality),
    ("corollaries", _suite_corollaries),
    ("orderings", _suite_orderings),
]

SUITE_NAMES = [name for name, _ in _SUITES]


def run_suites(seed: int = DEFAULT_SEED, quick: bool = False,
               names: Optional[list] = None) -> list:
    """Run the cross-validation suites; returns a SuiteResult per suite.

    The same seed reproduces the same draws. names, when given, restricts
    to a subset (unknown names raise ValueError).
    """
    if names is not None:
        unknown = set(names) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
    results = []
    for name, fn in _SUITES:
        if names is not None and name not in names:
            continue
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            worst, tol, detail = fn(rng, quick)
            passed = worst <= tol
        except Exception as exc:  # a crashed suite is a failed suite
            worst, tol, detail, passed = math.inf, 0.0, f"raised {exc!r}", False
        results.append(SuiteResult(name=name, passed=passed, worst=worst,
                                   tolerance=tol, detail=detail,
                                   seconds=time.perf_counter() - t0))
    return results
