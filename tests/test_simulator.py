"""Time-domain simulator: field reconstruction, norms, empirical gains."""

import math

import numpy as np
import pytest

from wavegain._numerics import composite_simpson
from wavegain.freq_response import DampingParams, l2_stats_at, sup_gain_at
from wavegain.modal import DisturbanceSpec
from wavegain.simulator import SimConfig, simulate

INV_SQRT3 = 1.0 / math.sqrt(3.0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=0)
        with pytest.raises(ValueError):
            SimConfig(x_points=10)
        with pytest.raises(ValueError):
            SimConfig(t_final=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt_output=-0.1)
        with pytest.raises(ValueError):
            SimConfig(t_final=10.0, burn_in=10.0)

    def test_resolved_burn_in_capped_at_half_horizon(self):
        cfg = SimConfig(t_final=8.0)
        p = DampingParams(1e-4, 0.0)  # very slow decay, cap must bind
        assert cfg.resolved_burn_in(p) == pytest.approx(4.0)
        cfg = SimConfig(t_final=100.0, burn_in=12.5)
        assert cfg.resolved_burn_in(DampingParams(1.0, 0.0)) == 12.5


class TestStaticResponses:
    def test_constant_disturbance_gives_static_profile(self):
        # u settles on d*(1-x); Simpson is exact on that square. The
        # slowest transient decays at rate k - r ~ 1.03, hence the horizon.
        p = DampingParams(1.0, 0.5)
        d = DisturbanceSpec.constant(2.0)
        cfg = SimConfig(n_modes=128, t_final=32.0, dt_output=0.1,
                        x_points=256, burn_in=25.0)
        res = simulate(p, d, cfg)
        assert res.sup_norm[-1] == pytest.approx(2.0, rel=1e-12)
        assert res.l2_norm[-1] == pytest.approx(2.0 * INV_SQRT3, rel=1e-12)
        assert res.empirical_gain_sup == pytest.approx(1.0, rel=1e-12)
        assert res.empirical_gain_l2 == pytest.approx(INV_SQRT3, rel=1e-12)
        assert res.truncation_tail_estimate == 0.0

    def test_zero_disturbance_zero_field(self):
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.constant(0.0)
        cfg = SimConfig(n_modes=16, t_final=2.0, dt_output=0.1, x_points=64)
        res = simulate(p, d, cfg)
        assert np.all(res.sup_norm == 0.0)
        assert np.all(res.l2_norm == 0.0)
        assert res.empirical_gain_sup is None
        assert res.empirical_gain_l2 is None

    def test_ramp_to_hold_reaches_static_profile(self):
        # knot at 2.5 falls inside an output step; the stepper must split
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (2.5, 1.0)])
        cfg = SimConfig(n_modes=64, t_final=30.0, dt_output=0.2,
                        x_points=256, burn_in=25.0)
        res = simulate(p, d, cfg)
        assert res.sup_norm[-1] == pytest.approx(1.0, rel=1e-9)
        assert res.l2_norm[-1] == pytest.approx(INV_SQRT3, rel=1e-9)


class TestFieldReconstruction:
    @pytest.mark.parametrize("x_points,n_modes", [
        (1024, 512),
        (65, 64),
        # n_modes > 2 (x_points - 1): modes alias onto the grid and fold
        (64, 300),
        (1024, 5000),
    ])
    def test_sine_transform_matches_dense_sum(self, x_points, n_modes):
        # at t=0 with no disturbance the field is the bare sine series of y0
        rng = np.random.default_rng(x_points + n_modes)
        y0 = rng.normal(size=n_modes) / np.arange(1, n_modes + 1)
        cfg = SimConfig(n_modes=n_modes, t_final=0.5, dt_output=0.5,
                        x_points=x_points)
        res = simulate(DampingParams(1.0, 0.0), DisturbanceSpec.constant(0.0),
                       cfg, initial=(y0, np.zeros(n_modes)))
        xs = np.linspace(0.0, 1.0, x_points)
        npi = np.arange(1, n_modes + 1) * math.pi
        u = math.sqrt(2.0) * np.sin(np.outer(xs, npi)) @ y0
        assert res.sup_norm[0] == pytest.approx(np.abs(u).max(), rel=1e-12)
        l2 = math.sqrt(composite_simpson(u * u, xs[1] - xs[0]))
        assert res.l2_norm[0] == pytest.approx(l2, rel=1e-12)


class TestSinusoidGains:
    def test_empirical_matches_analytic(self):
        p = DampingParams(1.0, 0.0)
        omega = 5.0
        d = DisturbanceSpec.sinusoid(1.0, omega)
        cfg = SimConfig(n_modes=64, t_final=12.0, dt_output=0.01,
                        x_points=512, burn_in=6.0)
        res = simulate(p, d, cfg)
        assert res.empirical_gain_sup == pytest.approx(
            sup_gain_at(p, omega), rel=1e-3)
        assert res.empirical_gain_l2 == pytest.approx(
            l2_stats_at(p, omega).Q, rel=1e-3)

    def test_amplitude_scaling(self):
        # gains are per unit input; doubling the drive must not move them
        p = DampingParams(0.5, 0.2)
        cfg = SimConfig(n_modes=48, t_final=10.0, dt_output=0.02,
                        x_points=256, burn_in=5.0)
        g1 = simulate(p, DisturbanceSpec.sinusoid(1.0, 3.0), cfg)
        g2 = simulate(p, DisturbanceSpec.sinusoid(2.0, 3.0), cfg)
        assert g2.empirical_gain_sup == pytest.approx(g1.empirical_gain_sup,
                                                      rel=1e-12)
        assert g2.empirical_gain_l2 == pytest.approx(g1.empirical_gain_l2,
                                                     rel=1e-12)
        assert np.allclose(g2.sup_norm, 2.0 * g1.sup_norm, rtol=1e-12)

    def test_output_grid(self):
        # the full series is reported from t=0; burn-in only gates the
        # gain extraction
        cfg = SimConfig(n_modes=8, t_final=2.0, dt_output=0.25, x_points=64,
                        burn_in=1.0)
        res = simulate(DampingParams(1.0, 0.0),
                       DisturbanceSpec.sinusoid(1.0, 2.0), cfg)
        assert res.t[0] == 0.0
        assert res.t[-1] == pytest.approx(2.0, abs=1e-9)
        assert len(res.t) == 9
        assert np.all(np.diff(res.t) > 0.0)
        assert res.burn_in == pytest.approx(1.0)
        assert res.n_modes == 8
        # gain comes from the masked window, so it can sit below the
        # series-wide maximum but never above it
        assert res.empirical_gain_sup <= res.sup_norm.max() + 1e-15

    def test_tail_estimate_shrinks_with_modes(self):
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.sinusoid(1.0, 5.0)
        cfg64 = SimConfig(n_modes=64, t_final=1.0, dt_output=0.5, x_points=64)
        cfg256 = SimConfig(n_modes=256, t_final=1.0, dt_output=0.5,
                           x_points=64)
        t64 = simulate(p, d, cfg64).truncation_tail_estimate
        t256 = simulate(p, d, cfg256).truncation_tail_estimate
        assert 0.0 < t256 < t64
        assert t64 / t256 == pytest.approx(16.0, rel=0.2)  # ~ N^-2


class TestInitialConditions:
    def test_free_decay_of_seeded_field(self):
        p = DampingParams(1.0, 1.0)
        d = DisturbanceSpec.constant(0.0)
        n_modes = 16
        rng = np.random.default_rng(41)
        y0 = rng.normal(size=n_modes) / np.arange(1, n_modes + 1) ** 2
        v0 = np.zeros(n_modes)
        # every mode is overdamped at mu*sigma = 1, so each |y_n| decays
        # monotonically from rest; slowest rate is k - r ~ 0.99
        cfg = SimConfig(n_modes=n_modes, t_final=16.0, dt_output=0.05,
                        x_points=128, burn_in=0.0)
        res = simulate(p, d, cfg, initial=(y0, v0))
        assert res.l2_norm[0] > 0.0
        assert res.l2_norm[-1] < 1e-6 * res.l2_norm[0]
        assert np.all(res.l2_norm[1:] <= res.l2_norm[:-1] + 1e-12)

    def test_initial_shape_validation(self):
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.constant(0.0)
        cfg = SimConfig(n_modes=8, t_final=1.0, dt_output=0.5, x_points=64)
        with pytest.raises(ValueError):
            simulate(p, d, cfg, initial=(np.zeros(4), np.zeros(8)))


class TestGainSweep:
    def test_simulated_gains_match_analytic(self):
        # unit sinusoids: the post-burn-in norm peaks reproduce the
        # per-frequency gains
        p = DampingParams(1.0, 0.0)
        cfg = SimConfig(n_modes=48, t_final=10.0, dt_output=0.02,
                        x_points=256, burn_in=5.0)
        for w in (2.0, 5.0, 3.0):
            res = simulate(p, DisturbanceSpec.sinusoid(1.0, w), cfg)
            a = sup_gain_at(p, w)
            q = l2_stats_at(p, w).Q
            assert abs(res.empirical_gain_sup - a) / a < 5e-3, w
            assert abs(res.empirical_gain_l2 - q) / q < 5e-3, w
