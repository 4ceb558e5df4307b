"""Mode-space view of the damped wave equation.

Projecting the displacement onto the sine basis sqrt(2)*sin(n*pi*x) turns the
PDE into decoupled second-order ODEs
    y_n'' + (mu + n^2 pi^2 sigma) y_n' + n^2 pi^2 y_n
        = n pi sqrt(2) (sigma d'(t) + d(t)).
Every per-mode quantity starts from one table, _mode_table, which makes every
regime decision: n*pi, the half damping k_n = (mu + n^2 pi^2 sigma)/2, the
split k_n^2 - n^2 pi^2 whose sign gives the regime, its root, the
near-critical flag and the decay rate. Its readers, here and in gain_bounds
and simulator, classify no mode themselves. On it sit the per-mode transfer
function and each regime's free flow (C, S) = e^{-kt} (cosh rt, sinh(rt)/r),
written once. The exact stepper is built on the flow: a propagator and a
particular solution for sinusoidal, constant and linear boundary forcing,
both evaluated for a whole array of modes at once. So is the forcing kernel,
the flow's impulse response, whose L1 norm by quadrature is the independent
check on the closed-form series amplification factors.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._numerics import adaptive_simpson
from .freq_response import DampingParams

__all__ = [
    "DisturbanceSpec",
    "modal_kernel_l1",
    "CRITICAL_RTOL",
]

SQRT2 = math.sqrt(2.0)

# A mode counts as critically damped when |k_n - n*pi| is below this relative
# distance; the closed forms on either side divide by r_n -> 0 there.
CRITICAL_RTOL = 1e-9


def _check_mode_index(n):
    """n as an int; ValueError unless it is a finite integer >= 1."""
    if not (n >= 1 and math.isfinite(n) and int(n) == n):
        raise ValueError(f"mode index must be a positive integer, got {n!r}")
    return int(n)


class ModeTable(NamedTuple):
    npi: np.ndarray
    k: np.ndarray
    disc: np.ndarray
    root: np.ndarray
    near: np.ndarray
    rate: np.ndarray


def _mode_table(params: DampingParams, ns) -> ModeTable:
    """ModeTable (npi, k, disc, root, near, rate) of a scalar or array of
    mode indices; the one place where a mode's regime is decided.

    npi = n pi, k = (mu + n^2 pi^2 sigma)/2 is the half damping and
    disc = k^2 - n^2 pi^2, factored for accuracy. disc > 0 is overdamped,
    disc < 0 underdamped and disc == 0 exactly critical; since k, npi > 0
    the sign of disc is the sign of k - npi. root = sqrt(|disc|) is the
    split r_n when disc > 0, the frequency omega_n when disc < 0. near marks
    |k - npi| < CRITICAL_RTOL npi, where the closed forms that divide by
    root give way to their critical limits. rate, the slowest decay
    exponent, is k - root when disc > 0 and k otherwise; it sizes the spike
    search's windows and the simulator's default burn-in.
    """
    npi = np.asarray(ns, dtype=float) * math.pi
    k = 0.5 * (params.mu + npi * npi * params.sigma)
    disc = (k - npi) * (k + npi)
    root = np.sqrt(np.abs(disc))
    return ModeTable(npi, k, disc, root, np.abs(k - npi) < CRITICAL_RTOL * npi,
                     np.where(disc > 0.0, k - root, k))


# ---------------------------------------------------------------------------
# disturbance description
# ---------------------------------------------------------------------------

def _finite(name, value):
    """value as a float; ValueError naming it when it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"disturbance {name} must be finite, got {value!r}")
    return value


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
        return cls(kind="sinusoid", amplitude=_finite("amplitude", amplitude),
                   omega=float(omega), phase=_finite("phase", phase))

    @classmethod
    def constant(cls, level):
        return cls(kind="constant", level=_finite("constant level", level))

    @classmethod
    def piecewise_linear(cls, knots):
        pts = tuple((_finite("knot time", t), _finite("knot value", d))
                    for t, d in knots)
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


# ---------------------------------------------------------------------------
# transfer function
# ---------------------------------------------------------------------------

def _transfer_array(params: DampingParams, ns: np.ndarray, omega: float) -> np.ndarray:
    """Steady-state gains H_n of the modes ns for a unit complex sinusoid
    e^{i omega t}.

    H_n = sqrt(2) n pi (1 + i sigma omega)
          / (n^2 pi^2 - omega^2 + i omega (mu + n^2 pi^2 sigma));
    the denominator cannot vanish for real omega since mu + n^2 pi^2 sigma > 0.
    """
    npi, k, *_ = _mode_table(params, ns)
    num = SQRT2 * npi * (1.0 + 1j * params.sigma * omega)
    den = npi * npi - omega * omega + 1j * omega * (2.0 * k)
    return num / den


# ---------------------------------------------------------------------------
# free flow: C = e^{-kt} cosh(r t), S = e^{-kt} sinh(r t)/r, r = sqrt(disc)
# ---------------------------------------------------------------------------

def _flow_series(k, q, t):
    """(C, S) from the joint series in q = disc t^2; for |q| small."""
    ek = np.exp(-k * t)
    C = ek * (1.0 + q * (0.5 + q * (1.0 / 24.0 + q / 720.0)))
    S = ek * t * (1.0 + q * (1.0 / 6.0 + q * (1.0 / 120.0 + q / 5040.0)))
    return C, S


def _flow_over(k, r, t):
    """(C, S) of an overdamped mode, split r, in nonpositive exponents."""
    eslow = np.exp(-(k - r) * t)
    efactor = np.expm1(-2.0 * r * t)
    return eslow * (1.0 + 0.5 * efactor), -0.5 * eslow * efactor / r


def _flow_under(k, wn, t):
    """(C, S) of an underdamped mode of frequency wn."""
    ek = np.exp(-k * t)
    return ek * np.cos(wn * t), ek * np.sin(wn * t) / wn


# ---------------------------------------------------------------------------
# forced-response kernel and its L1 norm
# ---------------------------------------------------------------------------

def _kernel(params: DampingParams, n: int):
    """Forcing kernel K(tau) of mode n and its sign-change abscissae.

    Returns (K, decay_rate, zeros) where g_n(t) = int_0^t K(t-s) d(s) ds,
    decay_rate is the envelope exponent and zeros lists the positive roots
    of K (analytic, so |K| can be integrated panel by panel without kinks).
    K maps an array of tau to the array of its values. It is read off the
    mode's free flow, the stepper's (C, S): K = n pi sqrt(2) (sigma P11 + P01)
    = n pi sqrt(2) (sigma C + (1 - sigma k) S). Near-critical modes take the
    flow's joint series, which holds over the whole horizon there, and decay
    at rate k.
    """
    n = _check_mode_index(n)
    sigma = params.sigma
    npi, k, disc, root, near, rate = map(float, _mode_table(params, n))
    b = 1.0 - sigma * k
    c1, c2 = npi * SQRT2 * sigma, npi * SQRT2 * b
    if near:
        rate = k
        zeros = [-sigma / b] if b < 0.0 else []
    elif disc > 0.0:
        flow = _flow_over
        cp, cm = sigma * (k + root) - 1.0, 1.0 - sigma * (k - root)
        ratio = -cm / cp if cp != 0.0 else 0.0
        t0 = -math.log(ratio) / (2.0 * root) if ratio > 0.0 else 0.0
        zeros = [t0] if t0 > 0.0 else []
    else:
        # root = omega_n; omega_n (sigma C + b S) = R sin(omega_n tau + phi) e^{-k tau}
        flow = _flow_under
        phi = math.atan2(sigma * root, b)
        jmax = int(math.floor((root * (40.0 / k) + phi) / math.pi))
        zeros = [(j * math.pi - phi) / root for j in range(1, jmax + 1)]
        zeros = [z for z in zeros if z > 0.0]

    def K(tau):
        if near:
            C, S = _flow_series(k, disc * tau * tau, tau)
        else:
            C, S = flow(k, root, tau)
        return c1 * C + c2 * S

    return K, rate, zeros


def modal_kernel_l1(params: DampingParams, n: int) -> float:
    """L1 norm of the forcing kernel, integral of |K| over [0, infinity).

    Deterministic adaptive Simpson on panels delimited by the kernel's
    analytic zeros (K is one-signed per panel, so |panel integral| equals the
    panel integral of |K|), truncated where the exponential envelope falls
    below 1e-16 of its peak. The first panel is cut further at 1/f, 4/f,
    16/f, ... with f = k + max(r, 0) the fast rate, so the boundary layer of a
    strongly overdamped mode at tau = 0 gets panels of its own width. All
    panels go to one batched adaptive_simpson call, each with its share of
    the error budget, and their absolute values are summed in panel order.
    Absolute error below 1e-10.
    """
    K, rate, zeros = _kernel(params, n)
    horizon = 40.0 / rate  # e^{-40} ~ 4e-18, margin for polynomial factors
    breaks = [z for z in zeros if z < horizon] + [horizon]
    _, k, disc, root, _, _ = map(float, _mode_table(params, n))
    step, pts = 1.0 / (k + root if disc > 0.0 else k), [0.0]
    while step < breaks[0]:
        pts.append(step)
        step *= 4.0
    pts += breaks
    # split the 1e-11 budget in proportion to the envelope mass of each panel
    weights = [math.exp(-rate * a) - math.exp(-rate * b)
               for a, b in zip(pts, pts[1:])]
    wsum = sum(weights)
    tols = [1e-11 * max(w / wsum, 1e-6) for w in weights]
    panels = adaptive_simpson(K, pts[:-1], pts[1:], tol=tols)
    total = 0.0
    for v in np.abs(panels).tolist():  # in order, as a running sum
        total += v
    return total


# ---------------------------------------------------------------------------
# exact time stepping
# ---------------------------------------------------------------------------

def _propagator_arrays(table, dt: float):
    """Exact homogeneous-flow matrix entries for the modes of a _mode_table.

    y(t+dt) = P00 y + P01 y'; y'(t+dt) = P10 y + P11 y', with P01 = S and
    P11 = C - k S from the free flow. Modes with |disc dt^2| < 1e-6 take the
    joint series, where sinh(r dt)/r degenerates; the rest take the closed
    form of their regime.
    """
    npi, k, disc, root, _, _ = table
    q = disc * dt * dt
    C, S = np.empty_like(k), np.empty_like(k)
    series, over, under = np.abs(q) < 1e-6, q >= 1e-6, q <= -1e-6
    C[series], S[series] = _flow_series(k[series], q[series], dt)
    C[over], S[over] = _flow_over(k[over], root[over], dt)
    C[under], S[under] = _flow_under(k[under], root[under], dt)
    return C + k * S, S, -npi * npi * S, C - k * S


def _particular_arrays(table, sigma, H, d: DisturbanceSpec, t0: float, t1: float,
                       start=None):
    """Exact particular solution (y_p, y_p') of each mode at times t0 and t1.

    table is the _mode_table of the modes and sigma the Kelvin-Voigt
    coefficient; H is their _transfer_array at d.omega for a sinusoid (the
    steady-state response) and unused otherwise. Besides sinusoids, supports
    constant forcing and forcing that is linear on [t0, t1]; raises
    ValueError for other segment shapes.

    For a sinusoid the particular solution is one function of time, so a
    caller that already holds its values at t0 (the previous segment's end)
    passes them as start and only the t1 end is computed. Ignored for the
    other kinds, whose particular solution is set per segment.
    """
    if d.kind == "sinusoid":
        def at(t):
            z = H * np.exp(1j * (d.omega * t + d.phase))
            return d.amplitude * z.imag, d.amplitude * d.omega * z.real

        return (at(t0) if start is None else start), at(t1)
    d0, slope = d.linear_piece(t0, t1)
    npi, k, *_ = table
    beta = SQRT2 * slope / npi
    alpha = SQRT2 * (sigma * slope + d0) / npi - 2.0 * k * beta / (npi * npi)
    return (alpha, beta), (alpha + beta * (t1 - t0), beta)
