"""Mode-space layer: transfers, kernels, disturbances, the exact stepper."""

import cmath
import math

import numpy as np
import pytest

import oracles as oc
from wavegain.freq_response import DampingParams
from wavegain.modal import (
    DisturbanceSpec,
    _decay_rate_array,
    initial_modal_state,
    modal_kernel_l1,
    modal_step,
    modal_transfer,
    mode_split,
)

SQRT2 = math.sqrt(2.0)


class TestModeSplit:
    def test_regime_classification(self):
        p = DampingParams(0.05, 0.1)
        k1, r1, w1, reg1 = mode_split(p, 1)
        assert reg1 == "underdamped" and r1 is None and w1 > 0.0
        k15, r15, w15, reg15 = mode_split(p, 15)
        assert reg15 == "overdamped" and r15 > 0.0 and w15 is None
        assert k1 > 0.0 and k15 > k1

    def test_exact_critical_construction(self):
        w = 0.6
        p = DampingParams((1.0 + w) / math.pi, math.pi * (1.0 - w))
        k, r, wn, reg = mode_split(p, 1)
        assert reg == "critical"
        assert k == pytest.approx(math.pi, rel=1e-12)

    def test_half_trace(self):
        p = DampingParams(0.7, 0.3)
        k, _, _, _ = mode_split(p, 4)
        assert k == pytest.approx(0.5 * (0.3 + 16.0 * math.pi**2 * 0.7),
                                  rel=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            mode_split(DampingParams(1.0, 0.0), 0)
        with pytest.raises(ValueError):
            mode_split(DampingParams(1.0, 0.0), -3)

    def test_decay_rate_matches_scalar_formula_bitwise(self):
        # the spike search sizes its windows from this rate, so the array
        # form must reproduce the scalar k - sqrt(k^2 - n^2 pi^2) exactly
        def scalar_rate(params, n):
            npi = n * math.pi
            k = 0.5 * (params.mu + npi * npi * params.sigma)
            disc = (k - npi) * (k + npi)
            return k - math.sqrt(disc) if disc > 0.0 else k

        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
            p = DampingParams(10.0 ** rng.uniform(-3, 1), mu)
            rates = _decay_rate_array(p, np.arange(1, 400))
            assert rates.tolist() == [scalar_rate(p, n) for n in range(1, 400)]
            assert float(_decay_rate_array(p, 17)) == scalar_rate(p, 17)


class TestDisturbanceSpec:
    def test_sinusoid(self):
        d = DisturbanceSpec.sinusoid(2.0, 3.0, 0.5)
        assert d.kind == "sinusoid"
        assert d.value(0.1) == pytest.approx(2.0 * math.sin(0.3 + 0.5))
        assert d.sup_amplitude() == 2.0

    def test_sinusoid_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec.sinusoid(1.0, 0.0)
        with pytest.raises(ValueError):
            DisturbanceSpec.sinusoid(1.0, -2.0)
        with pytest.raises(ValueError):
            DisturbanceSpec.sinusoid(1.0, math.inf)

    def test_constant(self):
        d = DisturbanceSpec.constant(-1.5)
        assert d.value(0.0) == -1.5 and d.value(100.0) == -1.5
        assert d.sup_amplitude() == 1.5

    def test_piecewise_linear_interpolation_and_clamping(self):
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (2.0, 1.0),
                                              (4.0, -1.0)])
        assert d.value(1.0) == pytest.approx(0.5)
        assert d.value(3.0) == pytest.approx(0.0)
        # held at the end levels outside the knot range
        assert d.value(-5.0) == 0.0
        assert d.value(10.0) == -1.0
        assert d.sup_amplitude() == 1.0

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec.piecewise_linear([])
        with pytest.raises(ValueError):
            DisturbanceSpec.piecewise_linear([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            DisturbanceSpec.piecewise_linear([(1.0, 0.0), (0.5, 1.0)])

    def test_linear_piece_inside_segment(self):
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (2.0, 1.0)])
        d0, slope = d.linear_piece(0.5, 1.5)
        assert d0 == pytest.approx(0.25)
        assert slope == pytest.approx(0.5)

    def test_linear_piece_flat_outside_range(self):
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (2.0, 1.0)])
        d0, slope = d.linear_piece(5.0, 6.0)
        assert d0 == 1.0 and slope == 0.0

    def test_linear_piece_rejects_knot_crossing(self):
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (2.0, 1.0),
                                              (4.0, 0.0)])
        with pytest.raises(ValueError):
            d.linear_piece(1.0, 3.0)

    def test_linear_piece_rejects_sinusoid(self):
        with pytest.raises(ValueError):
            DisturbanceSpec.sinusoid(1.0, 1.0).linear_piece(0.0, 1.0)

    def test_value_vectorized(self):
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (1.0, 2.0)])
        out = d.value(np.array([0.0, 0.5, 1.0, 2.0]))
        assert np.allclose(out, [0.0, 1.0, 2.0, 2.0])


class TestModalTransfer:
    def test_pinned_value(self):
        h = modal_transfer(DampingParams(1.0, 0.0), 1, 1.0)
        assert h.real == pytest.approx(0.47283391944871966, rel=1e-13)
        assert h.imag == pytest.approx(-0.025232331014623494, rel=1e-13)

    def test_matches_literal_random(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            sigma = 10.0 ** rng.uniform(-2, 0.5)
            mu = rng.uniform(0.0, 3.0)
            n = int(rng.integers(1, 40))
            omega = 10.0 ** rng.uniform(-1, 2)
            got = modal_transfer(DampingParams(sigma, mu), n, omega)
            lit = oc.transfer_literal(sigma, mu, n, omega)
            assert abs(got - lit) <= 1e-13 * abs(lit)

    def test_low_frequency_limit(self):
        # static lift coefficient sqrt(2)/(n pi)
        for n in (1, 3, 7):
            h = modal_transfer(DampingParams(1.0, 0.5), n, 1e-9)
            assert h.real == pytest.approx(SQRT2 / (n * math.pi), rel=1e-8)
            assert abs(h.imag) < 1e-8

    def test_validation(self):
        p = DampingParams(1.0, 0.0)
        with pytest.raises(ValueError):
            modal_transfer(p, 0, 1.0)
        with pytest.raises(ValueError):
            modal_transfer(p, 1, 0.0)
        with pytest.raises(ValueError):
            modal_transfer(p, 1, math.nan)


class TestKernel:
    CASES = [(2.0, 1.0, 1), (2.0, 1.0, 4), (0.5, 0.0, 1), (0.5, 0.0, 2),
             (0.05, 0.1, 1), (0.05, 0.1, 5), (0.05, 0.1, 8)]

    def test_l1_matches_quadrature_oracle(self):
        for sigma, mu, n in self.CASES:
            got = modal_kernel_l1(DampingParams(sigma, mu), n)
            ref = oc.kernel_l1_quad(sigma, mu, n)
            assert got == pytest.approx(ref, rel=1e-8), (sigma, mu, n)

    def test_l1_equals_scaled_amplification(self):
        # the panel quadrature and the closed-form mode constants are
        # independent routes to the same number
        from wavegain.gain_bounds import mode_constants
        for sigma, mu in [(2.0, 1.0), (0.5, 0.0), (0.05, 0.1)]:
            p = DampingParams(sigma, mu)
            for n in range(1, 13):
                l1 = modal_kernel_l1(p, n)
                a = mode_constants(p, n).A_n
                assert l1 == pytest.approx(SQRT2 / (n * math.pi) * a,
                                           rel=1e-8), (sigma, mu, n)

    def test_l1_at_exact_criticality(self):
        w = 0.6
        p = DampingParams((1.0 + w) / math.pi, math.pi * (1.0 - w))
        l1 = modal_kernel_l1(p, 1)
        expect = SQRT2 / math.pi * (1.0 + 2.0 * w * math.exp(-1.0 - 1.0 / w))
        assert l1 == pytest.approx(expect, rel=1e-9)


class TestExactStepper:
    REGIMES = [
        (2.0, 1.0, 1),                                     # overdamped
        (0.05, 0.1, 1),                                    # underdamped
        ((1.0 + 0.6) / math.pi, math.pi * (1.0 - 0.6), 1),  # critical
        (1.0, 0.0, 5),                                     # stiff overdamped
    ]

    @staticmethod
    def _free_reference(sigma, mu, n, y0, v0, t):
        if abs(mode_split(DampingParams(sigma, mu), n)[0] - n * math.pi) \
                < 1e-12 * n * math.pi:
            # perturb off the double root for the two-root reference
            mu = mu + 1e-9
        return oc.free_mode_solution(sigma, mu, n, y0, v0, t)

    def test_free_decay_matches_closed_form(self):
        zero = DisturbanceSpec.constant(0.0)
        for sigma, mu, n in self.REGIMES:
            p = DampingParams(sigma, mu)
            state = initial_modal_state(n, p, zero, y0=1.0, y0_dot=-0.3)
            t, dt = 0.0, 0.07
            for _ in range(10):
                state = modal_step(state, p, zero, t, dt)
                t += dt
            y_ref, v_ref = self._free_reference(sigma, mu, n, 1.0, -0.3, t)
            assert state.y_n == pytest.approx(y_ref, rel=2e-7, abs=1e-12)
            assert state.y_n_dot == pytest.approx(v_ref, rel=2e-7, abs=1e-12)

    def test_semigroup_property(self):
        # two half steps must equal one full step to rounding
        zero = DisturbanceSpec.constant(0.0)
        p = DampingParams(0.05, 0.1)
        s0 = initial_modal_state(1, p, zero, y0=0.7, y0_dot=0.2)
        one = modal_step(s0, p, zero, 0.0, 0.2)
        half = modal_step(modal_step(s0, p, zero, 0.0, 0.1), p, zero, 0.1, 0.1)
        assert half.y_n == pytest.approx(one.y_n, rel=1e-13)
        assert half.y_n_dot == pytest.approx(one.y_n_dot, rel=1e-13)

    def test_tiny_step_series_path(self):
        # dt small enough that the propagator takes its series branch
        zero = DisturbanceSpec.constant(0.0)
        p = DampingParams(1.0, 0.0)
        state = initial_modal_state(1, p, zero, y0=1.0, y0_dot=0.0)
        dt = 1e-5
        for i in range(10):
            state = modal_step(state, p, zero, i * dt, dt)
        y_ref, v_ref = oc.free_mode_solution(1.0, 0.0, 1, 1.0, 0.0, 10 * dt)
        assert state.y_n == pytest.approx(y_ref, rel=1e-12)
        assert state.y_n_dot == pytest.approx(v_ref, rel=1e-9)

    def test_sinusoid_reaches_transfer_steady_state(self):
        # after the transient dies, y_n(t) = Im(H_n e^{i w t}) exactly;
        # the slow decay rate here is k - r ~ 1.13, so run to t = 30
        p = DampingParams(1.0, 0.0)
        omega = 2.0
        d = DisturbanceSpec.sinusoid(1.0, omega)
        h = modal_transfer(p, 1, omega)
        state = initial_modal_state(1, p, d)
        t, dt = 0.0, 0.05
        while t < 30.0 - 1e-12:
            state = modal_step(state, p, d, t, dt)
            t += dt
        expect = (h * cmath.exp(1j * omega * t)).imag
        assert state.y_n == pytest.approx(expect, rel=1e-12)

    def test_constant_forcing_static_limit(self):
        # held level: mode settles on sqrt(2) d / (n pi)
        p = DampingParams(0.5, 0.3)
        d = DisturbanceSpec.constant(2.0)
        for n in (1, 2):
            state = initial_modal_state(n, p, d)
            t, dt = 0.0, 0.1
            while t < 20.0 - 1e-12:
                state = modal_step(state, p, d, t, dt)
                t += dt
            assert state.y_n == pytest.approx(SQRT2 * 2.0 / (n * math.pi),
                                              rel=1e-12)
            assert abs(state.y_n_dot) < 1e-12

    def test_ramp_tracks_lifted_solution(self):
        # linear d: the mode tracks the moving static coefficient with a
        # constant velocity-induced offset, after transients
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (30.0, 3.0)])
        n, slope = 1, 0.1
        state = initial_modal_state(n, p, d)
        t, dt = 0.0, 0.05
        while t < 26.0 - 1e-12:
            state = modal_step(state, p, d, t, dt)
            t += dt
        npi = n * math.pi
        # steady solution of y'' + 2k y' + npi^2 y = sqrt2 npi (sigma m + d)
        k = mode_split(p, n)[0]
        expect = SQRT2 * (p.sigma * slope + d.value(t)) / npi \
            - 2.0 * k * SQRT2 * slope / npi**3
        assert state.y_n == pytest.approx(expect, rel=1e-10)
        assert state.y_n_dot == pytest.approx(SQRT2 * slope / npi, rel=1e-10)

    def test_step_validation(self):
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.constant(0.0)
        state = initial_modal_state(1, p, d)
        with pytest.raises(ValueError):
            modal_step(state, p, d, 0.0, 0.0)
        with pytest.raises(ValueError):
            modal_step(state, p, d, 0.0, -0.1)

    def test_initial_state_seeding(self):
        p = DampingParams(0.7, 0.2)
        d = DisturbanceSpec.sinusoid(1.5, 2.0, 0.3)
        s = initial_modal_state(3, p, d)
        assert s.y_n == 0.0 and s.y_n_dot == 0.0
        assert s.g_n == 0.0
        assert s.g_n_dot == pytest.approx(
            SQRT2 * 3 * math.pi * 0.7 * d.value(0.0), rel=1e-15)
