"""End-to-end acceptance checks.

One test per shipping criterion, each pinned to an explicit tolerance and a
wall-clock budget. Every numerical claim is checked against a route that
does not share code with the library: literal formulas, scipy quadrature,
dense grids, or the time-domain simulator.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from wavegain import cli
from wavegain.freq_response import (DampingParams, amplitude_at, l2_stats_at,
                                    polar_params, profile_at, sup_gain_at)
from wavegain.gain_bounds import (gain_bounds, lower_l2, lower_sup,
                                  mode_constants, upper_l2, upper_sup)
from wavegain.modal import DisturbanceSpec, modal_kernel_l1
from wavegain.simulator import SimConfig, simulate

import oracles

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_exact_gain_values_when_damping_product_reaches_one():
    """mu*sigma = 1 pins U_inf and L_inf at 1; mu*sigma >= 1 pins the
    L2 bounds at 1/sqrt(3). Budget 10 s."""
    t0 = time.perf_counter()

    p = DampingParams(1.0, 1.0)
    assert upper_sup(p) == pytest.approx(1.0, abs=1e-9)
    assert lower_sup(p).value == pytest.approx(1.0, abs=1e-6)

    for sigma, mu in [(1.0, 1.0), (2.0, 0.5), (0.5, 4.0), (3.0, 2.0),
                      (0.25, 4.0)]:
        q = DampingParams(sigma, mu)
        u2 = upper_l2(q)
        assert float(u2) == INV_SQRT3  # exact, not approximate
        assert u2.truncation_error_bound == 0.0
        assert lower_l2(q).value == pytest.approx(INV_SQRT3, abs=1e-6)

    assert time.perf_counter() - t0 < 10.0


def test_steady_profile_identities_on_random_draws():
    """200 random (sigma, mu, omega): the computed profile satisfies the
    harmonic balance ODE to 1e-6 relative (five-point second derivative),
    the amplitude equals sqrt(h^2+g^2) to 1e-10, boundary values are exact
    to 1e-12, and the characteristic root solves its defining quadratic to
    1e-12. Budget 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    h_fd = 1e-3
    xs_amp = np.linspace(0.0, 1.0, 17)

    for _ in range(200):
        sigma = float(rng.uniform(0.05, 3.0))
        mu = float(rng.uniform(0.0, 4.0))
        omega = float(rng.uniform(0.1, 20.0))
        p = DampingParams(sigma, mu)
        rhs = complex(0.0, mu * omega) - omega * omega

        pt = polar_params(p, omega)
        lam = complex(pt.a, pt.b)
        root_resid = abs(lam * lam * complex(1.0, sigma * omega) - rhs)
        assert root_resid <= 1e-12 * abs(rhs)

        for x0 in (0.35, 0.65):
            stencil = x0 + h_fd * np.arange(-2.0, 3.0)
            h, g = profile_at(pt, stencil)
            y = h + 1j * g
            y2 = (-y[0] + 16.0 * y[1] - 30.0 * y[2] + 16.0 * y[3] - y[4]) \
                / (12.0 * h_fd * h_fd)
            resid = abs(complex(1.0, sigma * omega) * y2 - rhs * y[2])
            assert resid <= 1e-6 * abs(rhs) * max(abs(y[2]), 1e-3)

        h, g = profile_at(pt, xs_amp)
        amp = amplitude_at(pt, xs_amp)
        assert np.max(np.abs(amp**2 - (h**2 + g**2))) <= 1e-10

        h_b, g_b = profile_at(pt, np.array([0.0, 1.0]))
        assert abs(h_b[0] - 1.0) <= 1e-12 and abs(g_b[0]) <= 1e-12
        assert abs(h_b[1]) <= 1e-12 and abs(g_b[1]) <= 1e-12

    assert time.perf_counter() - t0 < 30.0


def test_kernel_quadrature_matches_amplification_constants():
    """Across all damping regimes and n = 1..50, scipy quadrature of the
    literal forcing kernel reproduces sqrt(2)/(n pi) * A_n to 1e-6
    relative; the library's own kernel integral agrees too. Budget 60 s."""
    t0 = time.perf_counter()
    for sigma, mu in [(2.0, 1.0), (0.5, 0.0), (0.05, 0.1)]:
        p = DampingParams(sigma, mu)
        for n in range(1, 51):
            quad = oracles.kernel_l1_quad(sigma, mu, n, rel_tol=1e-9)
            closed = math.sqrt(2.0) / (n * math.pi) * mode_constants(p, n).A_n
            assert quad == pytest.approx(closed, rel=1e-6), (sigma, mu, n)
            assert modal_kernel_l1(p, n) == pytest.approx(closed, rel=1e-6)
    assert time.perf_counter() - t0 < 60.0


def test_modal_energy_sum_matches_mean_square_level():
    """The truncated transfer-function energy sum over ten thousand modes
    agrees with the closed-form mean of the squared L2 norm to 1e-3
    relative. Budget 10 s."""
    t0 = time.perf_counter()
    total = oracles.parseval_sum(1.0, 0.0, 1.0, 10_000)
    p_level = l2_stats_at(DampingParams(1.0, 0.0), 1.0).p
    assert total == pytest.approx(p_level, rel=1e-3)
    assert time.perf_counter() - t0 < 10.0


def test_simulated_gains_match_frequency_analysis():
    """A 512-mode simulation of d = sin(5t) at sigma=1, mu=0 reproduces the
    analytic sup-norm and L2-norm gains within 2%, and the post-burn-in
    squared L2 norm fits its constant-plus-second-harmonic form with
    relative residual below 1e-3. Budget 60 s."""
    t0 = time.perf_counter()
    p = DampingParams(1.0, 0.0)
    omega = 5.0
    res = simulate(p, DisturbanceSpec.sinusoid(1.0, omega),
                   SimConfig(n_modes=512, t_final=40.0, dt_output=0.01,
                             x_points=1024, burn_in=20.0))

    a_ref = sup_gain_at(p, omega)
    stats = l2_stats_at(p, omega)
    assert res.empirical_gain_sup == pytest.approx(a_ref, rel=0.02)
    assert res.empirical_gain_l2 == pytest.approx(stats.Q, rel=0.02)

    mask = res.t >= res.burn_in
    tt, y = res.t[mask], res.l2_norm[mask]**2
    design = np.column_stack([np.ones_like(tt), np.cos(2.0 * omega * tt),
                              np.sin(2.0 * omega * tt)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.linalg.norm(y - design @ coef) / np.linalg.norm(y)
    assert resid < 1e-3
    # the fitted coefficients are the analytic oscillation parameters
    assert coef[0] == pytest.approx(stats.p, rel=1e-3)
    assert coef[1] == pytest.approx(stats.q1, rel=1e-3)
    assert coef[2] == pytest.approx(stats.q2, rel=1e-3)

    assert time.perf_counter() - t0 < 60.0


def test_resonance_spike_spacing_and_flat_sup_gain():
    """Near-zero sigma puts ln Q resonance spikes one pi apart; mu*sigma
    above one flattens ln A_sup to zero over the same band. Budget 60 s."""
    t0 = time.perf_counter()

    p = DampingParams(1e-4, 0.05)
    omegas = np.linspace(0.5, 13.0, 12501)
    lnq = np.array([math.log(l2_stats_at(p, w).Q) for w in omegas])
    peaks = np.nonzero((lnq[1:-1] > lnq[:-2]) & (lnq[1:-1] > lnq[2:]))[0] + 1
    assert len(peaks) >= 3
    gaps = np.diff(omegas[peaks])
    assert np.all(np.abs(gaps - math.pi) <= 0.3)

    p_flat = DampingParams(1.0, 2.0)
    for w in np.linspace(0.5, 13.0, 1251):
        assert math.log(sup_gain_at(p_flat, float(w))) <= 1e-9

    assert time.perf_counter() - t0 < 60.0


def test_bound_orderings_and_limits_across_parameter_grid(tmp_path):
    """On a 20x20 (sigma, mu) grid every defined ordering between the four
    bounds holds with 1e-9 slack and both lower bounds respect their
    zero-frequency floors; the mu-sweep CSVs for sigma in {1, 0.5} emit
    ascending-mu rows with nonnegative grey-area widths. Budget 5 min."""
    t0 = time.perf_counter()

    for sigma in np.geomspace(0.15, 3.0, 20):
        for mu in np.linspace(0.0, 4.0, 20):
            b = gain_bounds(DampingParams(float(sigma), float(mu)))
            assert b.L_2 <= float(b.U_2) + 1e-9
            assert b.L_2 <= b.L_inf + 1e-9
            if b.U_inf is not None:
                assert b.L_inf <= b.U_inf + 1e-9
            assert b.L_2 >= INV_SQRT3 - 1e-6
            assert b.L_inf >= 1.0 - 1e-9

    for sigma in (1.0, 0.5):
        out = tmp_path / f"sweep_{sigma}.csv"
        assert cli.cmd_sweep(sigma, 0.0, 4.0, 21, str(out)) == 0
        rows = [line.split(",")
                for line in out.read_text().splitlines()[1:]]
        mus = [float(r[0]) for r in rows]
        assert mus == sorted(mus)
        for r in rows:
            assert float(r[6]) - float(r[5]) >= 0.0  # U_2 - L_2
            if r[4]:
                assert float(r[4]) - float(r[2]) >= 0.0  # U_inf - L_inf

    assert time.perf_counter() - t0 < 300.0


def test_outputs_byte_identical_across_runs(tmp_path):
    """Three repeated runs produce byte-identical CSVs for both grid
    commands; repeated simulations produce byte-identical CSVs and
    sidecars."""
    bode_args = dict(sigma=1.0, mu=0.3, omega_min=0.5, omega_max=13.0,
                     points=120, scale="linear")
    hashes = []
    for name in ("b1", "b2", "b3"):
        out = tmp_path / f"{name}.csv"
        assert cli.cmd_bode(out=str(out), **bode_args) == 0
        hashes.append(sha256_of(out))
    assert hashes[0] == hashes[1] == hashes[2]

    hashes = []
    for name in ("s1", "s2", "s3"):
        out = tmp_path / f"{name}.csv"
        assert cli.cmd_sweep(0.7, 0.0, 3.0, 12, str(out)) == 0
        hashes.append(sha256_of(out))
    assert hashes[0] == hashes[1] == hashes[2]

    sim_args = dict(t_final=2.0)  # default modes, grid and output step
    for kind, d in [
            ("sin", DisturbanceSpec.sinusoid(1.0, 4.0)),
            ("knots", DisturbanceSpec.piecewise_linear(
                [(0.0, 0.0), (0.333, 1.0), (1.217, -0.5)]))]:
        hashes = []
        for run in ("1", "2"):
            out = tmp_path / f"sim-{kind}-{run}.csv"
            assert cli.cmd_simulate(1.0, 0.3, d, str(out), **sim_args) == 0
            hashes.append((sha256_of(out),
                           sha256_of(tmp_path / f"sim-{kind}-{run}.json")))
        assert hashes[0] == hashes[1]
