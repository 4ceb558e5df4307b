"""Mode-space view of the damped wave equation.

Projecting the displacement onto the sine basis sqrt(2)*sin(n*pi*x) turns the
PDE into decoupled second-order ODEs
    y_n'' + (mu + n^2 pi^2 sigma) y_n' + n^2 pi^2 y_n
        = n pi sqrt(2) (sigma d'(t) + d(t)).
This module provides the per-mode transfer function, the L1 norm of the
forced-response kernel (the independent check on the series amplification
factors), and an exact-in-time stepper for sinusoidal, constant and linear
boundary forcing.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import adaptive_simpson
from .freq_response import DampingParams

__all__ = [
    "ModalState",
    "DisturbanceSpec",
    "modal_transfer",
    "modal_kernel_l1",
    "modal_step",
    "mode_split",
    "CRITICAL_RTOL",
]

SQRT2 = math.sqrt(2.0)

# A mode counts as critically damped when |k_n - n*pi| is below this relative
# distance; the closed forms on either side divide by r_n -> 0 there.
CRITICAL_RTOL = 1e-9


def _check_mode_index(n):
    if int(n) != n or n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n!r}")
    return int(n)


def mode_split(params: DampingParams, n: int):
    """Half-damping k_n, split r_n or frequency omega_n, and the regime.

    Returns (k, r, omega_n, regime) where regime is one of "overdamped",
    "critical", "underdamped" by exact comparison of k_n with n*pi; exactly
    one of r, omega_n is non-None (both zero at exact criticality, where r
    is returned as 0.0 and omega_n is None).
    """
    n = _check_mode_index(n)
    npi = n * math.pi
    k = 0.5 * (params.mu + npi * npi * params.sigma)
    disc = (k - npi) * (k + npi)  # k^2 - n^2 pi^2, factored for accuracy
    if k > npi:
        return k, math.sqrt(disc), None, "overdamped"
    if k == npi:
        return k, 0.0, None, "critical"
    return k, None, math.sqrt(-disc), "underdamped"


def _decay_rate_array(params: DampingParams, ns) -> np.ndarray:
    """Slowest decay exponent of each mode: k_n - r_n if overdamped, else k_n.

    Sets the resonance peak width in the spike search and the simulator's
    default burn-in. Accepts a scalar or an array of mode indices.
    """
    npi = np.asarray(ns, dtype=float) * math.pi
    k = 0.5 * (params.mu + npi * npi * params.sigma)
    disc = (k - npi) * (k + npi)
    return np.where(disc > 0.0, k - np.sqrt(np.maximum(disc, 0.0)), k)


def _near_critical(k, npi):
    return abs(k - npi) < CRITICAL_RTOL * npi


# ---------------------------------------------------------------------------
# disturbance description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceSpec:
    """Boundary disturbance d(t): sinusoid, constant, or piecewise linear.

    Construct through the classmethods. Piecewise-linear tables hold the
    first value before the first knot and the last value after the last knot.
    """

    kind: str
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    level: float = 0.0
    knots: tuple = field(default_factory=tuple)

    @classmethod
    def sinusoid(cls, amplitude, omega, phase=0.0):
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"sinusoid omega must be positive, got {omega!r}")
        return cls(kind="sinusoid", amplitude=float(amplitude),
                   omega=float(omega), phase=float(phase))

    @classmethod
    def constant(cls, level):
        return cls(kind="constant", level=float(level))

    @classmethod
    def piecewise_linear(cls, knots):
        pts = tuple((float(t), float(d)) for t, d in knots)
        if len(pts) < 1:
            raise ValueError("piecewise-linear table needs at least one knot")
        ts = [t for t, _ in pts]
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("piecewise-linear knots must be strictly increasing in t")
        return cls(kind="piecewise_linear", knots=pts)

    def value(self, t):
        """d(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        if self.kind == "sinusoid":
            out = self.amplitude * np.sin(self.omega * t + self.phase)
        elif self.kind == "constant":
            out = np.full_like(t, self.level)
        else:
            ts = np.array([p[0] for p in self.knots])
            ds = np.array([p[1] for p in self.knots])
            out = np.interp(t, ts, ds)
        return float(out) if out.ndim == 0 else out

    def sup_amplitude(self, t_final=None):
        """sup of |d| over [0, t_final] (analytic for sinusoid/constant)."""
        if self.kind == "sinusoid":
            return abs(self.amplitude)
        if self.kind == "constant":
            return abs(self.level)
        hi = math.inf if t_final is None else float(t_final)
        vals = [abs(self.value(0.0))]
        vals += [abs(d) for t, d in self.knots if 0.0 <= t <= hi]
        if t_final is not None:
            vals.append(abs(self.value(hi)))
        else:
            vals.append(abs(self.knots[-1][1]))
        return max(vals)

    def linear_piece(self, t0, t1):
        """(value at t0, slope) when d restricted to [t0, t1] is linear.

        Raises ValueError when the restriction is not a single linear piece
        (a piecewise-linear segment crossing a knot must be subdivided by
        the caller) or when the kind is a sinusoid.
        """
        if self.kind == "constant":
            return self.level, 0.0
        if self.kind != "piecewise_linear":
            raise ValueError(f"{self.kind} forcing is not linear on a step")
        ts = [p[0] for p in self.knots]
        interior = [t for t in ts if t0 < t < t1]
        if interior:
            raise ValueError(
                f"step [{t0}, {t1}] crosses knot(s) {interior}; subdivide the step")
        if t1 <= ts[0] or t0 >= ts[-1]:
            # constant extension outside the table
            return self.value(t0), 0.0
        # locate the piece containing the step
        for (ta, da), (tb, db) in zip(self.knots, self.knots[1:]):
            if ta <= t0 and t1 <= tb:
                slope = (db - da) / (tb - ta)
                return da + slope * (t0 - ta), slope
        raise ValueError(
            f"step [{t0}, {t1}] is not contained in one linear piece")


@dataclass(frozen=True)
class ModalState:
    """State of one sine mode.

    y_n is the coefficient sqrt(2)*integral of u(t,x)*sin(n*pi*x); g_n is the
    zero-state forced-response component (same ODE, g_n(0)=0,
    g_n_dot(0) = sqrt(2)*n*pi*sigma*d(0)), carried with its own derivative so
    it can be advanced exactly alongside y_n.
    """

    n: int
    y_n: float
    y_n_dot: float
    g_n: float = 0.0
    g_n_dot: float = 0.0


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------

def modal_transfer(params: DampingParams, n: int, omega: float) -> complex:
    """Steady-state gain of mode n for a unit complex sinusoid e^{i omega t}.

    H_n = sqrt(2) n pi (1 + i sigma omega)
          / (n^2 pi^2 - omega^2 + i omega (mu + n^2 pi^2 sigma));
    the denominator cannot vanish for real omega since mu + n^2 pi^2 sigma > 0.
    """
    n = _check_mode_index(n)
    w = float(omega)
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"omega must be a positive real, got {omega!r}")
    npi = n * math.pi
    num = SQRT2 * npi * complex(1.0, params.sigma * w)
    den = complex(npi * npi - w * w, w * (params.mu + npi * npi * params.sigma))
    return num / den


def _transfer_array(params: DampingParams, ns: np.ndarray, omega: float) -> np.ndarray:
    npi = np.asarray(ns, dtype=float) * math.pi
    num = SQRT2 * npi * (1.0 + 1j * params.sigma * omega)
    den = npi * npi - omega * omega + 1j * omega * (params.mu + npi * npi * params.sigma)
    return num / den


# ---------------------------------------------------------------------------
# forced-response kernel and its L1 norm
# ---------------------------------------------------------------------------

def _kernel(params: DampingParams, n: int):
    """Closed-form forcing kernel K(tau) and its sign-change abscissae.

    Returns (K, decay_rate, zeros) where g_n(t) = int_0^t K(t-s) d(s) ds,
    decay_rate is the envelope exponent and zeros lists the positive roots
    of K (analytic, so |K| can be integrated panel by panel without kinks).
    Near-critical modes use the critical form.
    """
    n = _check_mode_index(n)
    sigma = params.sigma
    npi = n * math.pi
    k, r, wn, regime = mode_split(params, n)
    if regime != "critical" and _near_critical(k, npi):
        regime, r, wn = "critical", 0.0, None

    if regime == "critical":
        c1 = sigma
        c2 = 1.0 - sigma * k

        def K(tau):
            return npi * SQRT2 * (c1 + c2 * tau) * math.exp(-k * tau)

        zeros = []
        if c2 < 0.0:
            zeros.append(-c1 / c2)
        return K, k, zeros

    if regime == "overdamped":
        cp = sigma * (k + r) - 1.0
        cm = 1.0 - sigma * (k - r)
        pref = npi / (r * SQRT2)

        def K(tau):
            return pref * (cp * math.exp(-(k + r) * tau)
                           + cm * math.exp(-(k - r) * tau))

        zeros = []
        if cp != 0.0:
            ratio = -cm / cp
            if ratio > 0.0:
                t0 = -math.log(ratio) / (2.0 * r)
                if t0 > 0.0:
                    zeros.append(t0)
        return K, k - r, zeros

    # underdamped: prefactor * (sigma wn cos + (1 - sigma k) sin) e^{-k tau}
    # = prefactor * R sin(wn tau + phi) e^{-k tau}
    amp = math.hypot(sigma * wn, 1.0 - sigma * k)
    phi = math.atan2(sigma * wn, 1.0 - sigma * k)
    pref = npi * SQRT2 / wn

    def K(tau):
        return (pref * amp * math.sin(wn * tau + phi) * math.exp(-k * tau))

    horizon = 40.0 / k
    jmax = int(math.floor((wn * horizon + phi) / math.pi))
    zeros = [(j * math.pi - phi) / wn for j in range(1, jmax + 1)]
    zeros = [z for z in zeros if z > 0.0]
    return K, k, zeros


def modal_kernel_l1(params: DampingParams, n: int) -> float:
    """L1 norm of the forcing kernel, integral of |K| over [0, infinity).

    Deterministic adaptive Simpson on panels delimited by the kernel's
    analytic zeros (K is one-signed per panel, so |panel integral| equals the
    panel integral of |K|), truncated where the exponential envelope falls
    below 1e-16 of its peak. Absolute error below 1e-10.
    """
    K, rate, zeros = _kernel(params, n)
    horizon = 40.0 / rate  # e^{-40} ~ 4e-18, margin for polynomial factors
    pts = [0.0] + [z for z in zeros if z < horizon] + [horizon]
    # split the 1e-11 budget in proportion to the envelope mass of each panel
    weights = [math.exp(-rate * a) - math.exp(-rate * b)
               for a, b in zip(pts, pts[1:])]
    wsum = sum(weights)
    total = 0.0
    for (a, b), w in zip(zip(pts, pts[1:]), weights):
        tol = 1e-11 * max(w / wsum, 1e-6)
        total += abs(adaptive_simpson(K, a, b, tol=tol))
    return total


# ---------------------------------------------------------------------------
# exact time stepping
# ---------------------------------------------------------------------------

def _propagator_arrays(params: DampingParams, ns: np.ndarray, dt: float):
    """Exact homogeneous-flow matrix entries for an array of modes.

    y(t+dt) = P00 y + P01 y'; y'(t+dt) = P10 y + P11 y'. Written with
    nonpositive exponents only; a joint series branch covers near-critical
    modes where sinh(r dt)/r degenerates.
    """
    npi = np.asarray(ns, dtype=float) * math.pi
    k = 0.5 * (params.mu + npi * npi * params.sigma)
    disc = (k - npi) * (k + npi)
    q = disc * dt * dt
    C = np.empty_like(k)
    S = np.empty_like(k)

    series = np.abs(q) < 1e-6
    if np.any(series):
        qs = q[series]
        ek = np.exp(-k[series] * dt)
        C[series] = ek * (1.0 + qs * (0.5 + qs * (1.0 / 24.0 + qs / 720.0)))
        S[series] = ek * dt * (1.0 + qs * (1.0 / 6.0 + qs * (1.0 / 120.0 + qs / 5040.0)))

    over = (q >= 1e-6)
    if np.any(over):
        r = np.sqrt(disc[over])
        eslow = np.exp(-(k[over] - r) * dt)
        efactor = np.expm1(-2.0 * r * dt)
        C[over] = eslow * (1.0 + 0.5 * efactor)
        S[over] = -0.5 * eslow * efactor / r

    under = (q <= -1e-6)
    if np.any(under):
        wn = np.sqrt(-disc[under])
        ek = np.exp(-k[under] * dt)
        C[under] = ek * np.cos(wn * dt)
        S[under] = ek * np.sin(wn * dt) / wn

    p00 = C + k * S
    p01 = S
    p10 = -npi * npi * S
    p11 = C - k * S
    return p00, p01, p10, p11


def _particular_arrays(params: DampingParams, ns: np.ndarray, d: DisturbanceSpec,
                       t0: float, t1: float):
    """Exact particular solution (y_p, y_p') of each mode at times t0 and t1.

    Supports sinusoid (steady-state response), constant, and forcing that is
    linear on [t0, t1]. Raises ValueError for unsupported segment shapes.
    """
    ns = np.asarray(ns)
    npi = ns.astype(float) * math.pi
    if d.kind == "sinusoid":
        H = _transfer_array(params, ns, d.omega)
        ph0 = np.exp(1j * (d.omega * t0 + d.phase))
        ph1 = np.exp(1j * (d.omega * t1 + d.phase))
        y0 = d.amplitude * (H * ph0).imag
        v0 = d.amplitude * d.omega * (H * ph0).real
        y1 = d.amplitude * (H * ph1).imag
        v1 = d.amplitude * d.omega * (H * ph1).real
        return (y0, v0), (y1, v1)
    d0, slope = d.linear_piece(t0, t1)
    k = 0.5 * (params.mu + npi * npi * params.sigma)
    beta = SQRT2 * slope / npi
    alpha = SQRT2 * (params.sigma * slope + d0) / npi - 2.0 * k * beta / (npi * npi)
    return (alpha, beta), (alpha + beta * (t1 - t0), beta)


def modal_step(state: ModalState, params: DampingParams, d: DisturbanceSpec,
               t0: float, dt: float) -> ModalState:
    """Advance one mode exactly (to rounding) across [t0, t0 + dt].

    The forcing must be a sinusoid, a constant, or linear on the step; a
    piecewise-linear disturbance whose knots fall inside the step raises
    ValueError (subdivide at the knots first). No truncation error in time:
    halving the step and composing reproduces the single step to rounding.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    t1 = t0 + dt
    ns = np.array([state.n])
    (yp0, vp0), (yp1, vp1) = _particular_arrays(params, ns, d, t0, t1)
    p00, p01, p10, p11 = _propagator_arrays(params, ns, dt)

    def advance(y, v):
        zy = y - yp0[0]
        zv = v - vp0[0]
        return (p00[0] * zy + p01[0] * zv + yp1[0],
                p10[0] * zy + p11[0] * zv + vp1[0])

    y1, v1 = advance(state.y_n, state.y_n_dot)
    g1, gv1 = advance(state.g_n, state.g_n_dot)
    return ModalState(n=state.n, y_n=float(y1), y_n_dot=float(v1),
                      g_n=float(g1), g_n_dot=float(gv1))


def initial_modal_state(n: int, params: DampingParams, d: DisturbanceSpec,
                        y0: float = 0.0, y0_dot: float = 0.0) -> ModalState:
    """ModalState at t=0 with the forced component correctly seeded.

    The forced response g_n starts from g_n(0) = 0 with slope
    sqrt(2) n pi sigma d(0) (the kernel value K(0) is the same in all three
    damping regimes).
    """
    n = _check_mode_index(n)
    g_dot = SQRT2 * n * math.pi * params.sigma * d.value(0.0)
    return ModalState(n=n, y_n=float(y0), y_n_dot=float(y0_dot),
                      g_n=0.0, g_n_dot=float(g_dot))
