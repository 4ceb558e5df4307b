"""Time-domain cross-check of the frequency-domain gain formulas.

Advances a truncated bank of sine modes with the exact per-step propagator
(no time discretization error), reconstructs the displacement field on a
uniform spatial grid with a fast sine transform, and measures the empirical
sup- and L2-norm amplification of a boundary disturbance. Everything is
deterministic bit for bit: fixed grids, an in-order fold of the modes onto the
transform buffer, and numpy's single-threaded pocketfft, so no result depends
on the thread count.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._numerics import composite_simpson
from .freq_response import _MAX_GRID_POINTS, DampingParams
from .modal import (
    SQRT2,
    DisturbanceSpec,
    _mode_table,
    _particular_arrays,
    _propagator_arrays,
    _transfer_array,
)

__all__ = ["SimConfig", "SimResult", "simulate"]

# About this many doubles (256 KiB) per work array of a block of output
# steps: a block has _BLOCK_VALUES // max(2(x_points - 1), n_modes) rows,
# at least one.
_BLOCK_VALUES = 2 ** 15


@dataclass(frozen=True)
class SimConfig:
    """Truncation and sampling choices for a simulation run.

    Internal stepping is exact per output interval; dt_output only sets how
    often the field is reconstructed and measured. burn_in = None resolves
    to 10 / (smallest modal decay rate), so the reported gains reflect the
    post-transient regime. At most _MAX_GRID_POINTS (2^20) output steps
    t_final/dt_output: more raise ValueError before anything is allocated.
    """

    n_modes: int = 512
    t_final: float = 40.0
    dt_output: float = 0.01
    x_points: int = 1024
    burn_in: Optional[float] = None

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.x_points < 64:
            raise ValueError("x_points must be at least 64")
        if not (self.t_final > 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        if not (self.dt_output > 0.0 and math.isfinite(self.dt_output)):
            raise ValueError(f"dt_output must be positive, got {self.dt_output!r}")
        steps = self.t_final / self.dt_output
        if steps >= _MAX_GRID_POINTS + 1:   # floor(steps) > the budget
            raise ValueError(f"t_final/dt_output must be at most "
                             f"{_MAX_GRID_POINTS} output steps, got {steps:.6g}")
        if self.burn_in is not None and not (0.0 <= self.burn_in < self.t_final):
            raise ValueError("burn_in must lie in [0, t_final)")

    def resolved_burn_in(self, params: DampingParams) -> float:
        if self.burn_in is not None:
            return self.burn_in
        slowest = float(
            _mode_table(params, np.arange(1, self.n_modes + 1)).rate.min())
        return min(10.0 / slowest, 0.5 * self.t_final)


@dataclass(frozen=True)
class SimResult:
    """Sampled norms of the reconstructed field plus empirical gains.

    empirical gains are the post-burn-in maxima of the norms divided by the
    disturbance sup-amplitude; both are None when the disturbance is
    identically zero (0/0, "no disturbance"). truncation_tail_estimate
    estimates what the discarded modes n > N could add to the sup norm in
    steady state; it is not a bound, since for piecewise-linear forcing it
    does not count the slope jumps at the knots (see _tail_estimate).
    """

    t: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    empirical_gain_sup: Optional[float]
    empirical_gain_l2: Optional[float]
    truncation_tail_estimate: float
    burn_in: float
    n_modes: int


def _tail_estimate(params: DampingParams, d: DisturbanceSpec, n_modes: int) -> float:
    """Steady-state sup-norm estimate of the modes left out of the truncation.

    After lifting the boundary value, mode n responds with amplitude
    ~ sqrt(2) omega sqrt(omega^2+mu^2) / (n^3 pi^3 sqrt(1+sigma^2 omega^2))
    per unit sinusoidal amplitude (and mu*slope/(n^3 pi^3) per unit slope of
    linear forcing), so the tail sums to O(1/N^2); the factor 2 absorbs the
    subleading terms. Constant forcing is reproduced exactly by the lift.

    An estimate, not a bound: for piecewise-linear forcing it counts only
    the steady response to each slope, not the slope jumps at the knots,
    which drive every mode. So it reads 0 at mu = 0, where a square wave's
    sup gain still moves when modes are added.
    """
    N = float(n_modes)
    if d.kind == "sinusoid":
        w = d.omega
        scale = abs(d.amplitude) * w * math.hypot(w, params.mu)
        scale /= math.hypot(1.0, params.sigma * w)
        return 2.0 * scale / (math.pi ** 3 * N * N)
    if d.kind == "constant":
        return 0.0
    slopes = [abs((d2 - d1) / (t2 - t1))
              for (t1, d1), (t2, d2) in zip(d.knots, d.knots[1:])]
    max_slope = max(slopes, default=0.0)
    return 2.0 * params.mu * max_slope / (math.pi ** 3 * N * N)


def _segment_breaks(d: DisturbanceSpec, t0: float, t1: float):
    """Interior knot times that a step across [t0, t1] must stop at."""
    if d.kind != "piecewise_linear":
        return ()
    return tuple(t for t, _ in d.knots if t0 < t < t1)


def _not_finite(params: DampingParams, cause: str) -> FloatingPointError:
    return FloatingPointError(
        f"simulated field is not finite for sigma={params.sigma!r}, "
        f"mu={params.mu!r}: {cause}")


def simulate(params: DampingParams, d: DisturbanceSpec, config: SimConfig,
             initial: Optional[Sequence] = None) -> SimResult:
    """Run the modal simulation and measure the empirical gains.

    initial, when given, is a pair (y0, y0_dot) of per-mode values for
    n = 1..len(y0) <= n_modes (remaining modes start at rest). The field is
    reconstructed as the boundary lift d(t)(1-x) plus the sine series of the
    lifted coefficients, which converges like n^-3 instead of n^-1.

    On the grid x_j = j/M (M = x_points - 1) that series is a type-I discrete
    sine transform: sum_n c_n sqrt(2) sin(n pi j/M) = -sqrt(2) Im(rfft(buf))_j,
    where buf has length 2M and holds c_n at index n mod 2M (modes past 2M
    alias onto the same grid values and fold in). Each output step therefore
    costs O(x_points log x_points + n_modes) instead of O(x_points n_modes).
    The fold adds the modes in index order and numpy's pocketfft runs on one
    thread, so the field is bit-identical from run to run.

    The stepping loop only stores each output step's modal state. The field
    is rebuilt once per block of output steps: one 2-D transform with a row
    per step, one row-wise Simpson sum for the L2 norms. A block has
    max(1, 2^15 // max(2M, n_modes)) rows (16 at the defaults). Its work
    arrays (allocated once per run) and the transform's output (one per
    block) hold about 2^15 doubles (256 KiB) each, or one row when a single
    row is larger. Every row is bit for bit the field that its step alone
    gives.

    Raises ValueError when initial is malformed or not finite, or when a
    nonzero disturbance leaves no output step at or past the burn-in (e.g.
    t_final < dt_output at the default burn-in). Raises FloatingPointError
    before any stepping when the per-mode constants overflow (e.g.
    sigma = 1e300), and after the run when the field overflows (a sampled
    norm is not finite).
    """
    N = config.n_modes
    ns = np.arange(1, N + 1, dtype=float)
    # per-mode constants, and for a sinusoid the transfer, are fixed per run
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        table = _mode_table(params, ns)
    if not np.isfinite(table.disc).all():
        raise _not_finite(params, "the per-mode constants overflow")
    H = _transfer_array(params, ns, d.omega) if d.kind == "sinusoid" else None
    y = np.zeros(N)
    v = np.zeros(N)
    if initial is not None:
        y0, v0 = initial
        y0 = np.asarray(y0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        if y0.shape != v0.shape or y0.ndim != 1 or y0.size > N:
            raise ValueError(
                "initial must be a pair of equal-length 1-D arrays with at "
                f"most n_modes={N} entries")
        if not (np.isfinite(y0).all() and np.isfinite(v0).all()):
            raise ValueError("initial must hold finite values only")
        y[:y0.size] = y0
        v[:v0.size] = v0

    xs = np.linspace(0.0, 1.0, config.x_points)
    dx = xs[1] - xs[0]
    lift_coef = SQRT2 / table.npi
    period = 2 * (config.x_points - 1)

    n_steps = int(math.floor(config.t_final / config.dt_output + 1e-12))
    times = np.empty(n_steps + 1)
    sup_norm = np.empty(n_steps + 1)
    l2_norm = np.empty(n_steps + 1)
    # one block's work arrays, reused by every flush: the output steps' modal
    # states, the transform's input, the field and its squares
    rows = min(max(1, _BLOCK_VALUES // max(period, N)), n_steps + 1)
    block = np.empty((rows, N))
    buf = np.empty((rows, period))
    u = np.empty((rows, config.x_points))
    work = np.empty((rows, config.x_points))
    lift_shape = 1.0 - xs
    filled = done = 0  # rows of block in use; output steps measured

    # propagators are cached per step length; sinusoid/constant runs reuse one
    prop_cache = {}

    def propagator(dt):
        hit = prop_cache.get(dt)
        if hit is None:
            hit = _propagator_arrays(table, dt)
            prop_cache[dt] = hit
        return hit

    def measure(t):
        nonlocal filled
        times[done + filled] = t
        block[filled] = y
        filled += 1
        if filled == len(block):
            flush()

    def flush():
        nonlocal filled, done
        k = filled
        span = slice(done, done + k)
        dval = d.value(times[span])[:, None]
        coef = block[:k]
        coef -= dval * lift_coef
        # mode n lands at index n mod 2M, added in mode order onto zeros
        buf[:k] = 0.0
        for lo in range(0, N + 1, period):  # modes lo .. lo + 2M - 1
            first, hi = max(lo, 1), min(lo + period, N + 1)
            buf[:k, first - lo:hi - lo] += coef[:, first - 1:hi - 1]
        # a state too large for the field overflows here; refused after the run
        with np.errstate(over="ignore", invalid="ignore"):
            field = np.multiply(np.fft.rfft(buf[:k], axis=-1).imag, -SQRT2,
                                out=u[:k])
            field += np.multiply(dval, lift_shape, out=work[:k])
            sup_norm[span] = np.abs(field, out=work[:k]).max(axis=1)
            l2_norm[span] = np.sqrt(composite_simpson(
                np.multiply(field, field, out=work[:k]), dx))
        done += k
        filled = 0

    t = 0.0
    measure(t)
    # the last segment's end time and particular values; a sinusoid segment
    # that starts at that same float time reuses them as its start
    end_t, end = None, None
    for _ in range(n_steps):
        t_next = t + config.dt_output
        seg_start = t
        for brk in _segment_breaks(d, t, t_next) + (t_next,):
            dt = brk - seg_start
            if dt <= 0.0:
                continue
            (yp0, vp0), (yp1, vp1) = _particular_arrays(
                table, params.sigma, H, d, seg_start, seg_start + dt,
                start=end if end_t == seg_start else None)
            end_t, end = seg_start + dt, (yp1, vp1)
            p00, p01, p10, p11 = propagator(dt)
            zy = y - yp0
            zv = v - vp0
            y = p00 * zy + p01 * zv + yp1
            v = p10 * zy + p11 * zv + vp1
            seg_start = seg_start + dt
        t = t_next
        measure(t)
    if filled:
        flush()

    if not (np.isfinite(sup_norm).all() and np.isfinite(l2_norm).all()):
        raise _not_finite(params, "the field overflows")
    burn = config.resolved_burn_in(params)
    denom = d.sup_amplitude(config.t_final)
    if denom == 0.0:
        gain_sup = gain_l2 = None
    else:
        keep = times >= burn
        if not keep[-1]:
            raise ValueError(
                f"no output step lies at or past the burn-in {burn!r}: the "
                f"last is at t={float(times[-1])!r}")
        gain_sup = float(sup_norm[keep].max()) / denom
        gain_l2 = float(l2_norm[keep].max()) / denom
    return SimResult(t=times, sup_norm=sup_norm, l2_norm=l2_norm,
                     empirical_gain_sup=gain_sup, empirical_gain_l2=gain_l2,
                     truncation_tail_estimate=_tail_estimate(params, d, N),
                     burn_in=burn, n_modes=N)

