"""Mode-space layer: the mode table, transfers, kernels, disturbances, the
exact stepper."""

import cmath
import math

import numpy as np
import pytest

import oracles as oc
from wavegain.freq_response import DampingParams
from wavegain.gain_bounds import mode_constants
from wavegain.modal import (
    CRITICAL_RTOL,
    DisturbanceSpec,
    _flow_over,
    _flow_series,
    _flow_under,
    _kernel,
    _mode_table,
    _particular_arrays,
    _propagator_arrays,
    _transfer_array,
    modal_kernel_l1,
)

SQRT2 = math.sqrt(2.0)


class TestModeSplit:
    """The mode table (n pi, k_n, k_n^2 - n^2 pi^2, root, near-critical flag,
    decay rate) and the mode constants read off it."""

    def test_regime_classification(self):
        p = DampingParams(0.05, 0.1)
        one, fifteen = mode_constants(p, 1), mode_constants(p, 15)
        assert one.regime == "underdamped"
        assert one.r_n is None and one.omega_n > 0.0
        assert fifteen.regime == "overdamped"
        assert fifteen.r_n > 0.0 and fifteen.omega_n is None
        assert one.k_n > 0.0 and fifteen.k_n > one.k_n

    def test_exact_critical_construction(self):
        w = 0.6
        m = mode_constants(
            DampingParams((1.0 + w) / math.pi, math.pi * (1.0 - w)), 1)
        assert m.regime == "critical"
        assert m.r_n == 0.0 and m.omega_n is None
        assert m.k_n == pytest.approx(math.pi, rel=1e-12)

    def test_half_trace(self):
        k = mode_constants(DampingParams(0.7, 0.3), 4).k_n
        assert k == pytest.approx(0.5 * (0.3 + 16.0 * math.pi**2 * 0.7),
                                  rel=1e-15)
        assert float(_mode_table(DampingParams(0.7, 0.3), 4).k) == k

    def test_index_validation(self):
        # inf once escaped as OverflowError and NaN as numpy's conversion error
        for n in (0, -3, math.inf, math.nan, 1.5):
            with pytest.raises(ValueError, match="mode index"):
                mode_constants(DampingParams(1.0, 0.0), n)
            with pytest.raises(ValueError, match="mode index"):
                modal_kernel_l1(DampingParams(1.0, 0.0), n)

    def test_decay_rate_matches_scalar_formula_bitwise(self):
        # the spike search sizes its windows from the rate, so the array
        # form must reproduce the scalar k - sqrt(k^2 - n^2 pi^2) exactly;
        # so must the root and the near-critical flag every consumer reads
        def scalar_row(params, n):
            npi = n * math.pi
            k = 0.5 * (params.mu + npi * npi * params.sigma)
            disc = (k - npi) * (k + npi)
            root = math.sqrt(abs(disc))
            near = abs(k - npi) < CRITICAL_RTOL * npi
            return root, near, k - math.sqrt(disc) if disc > 0.0 else k

        def check(p, ns):
            t = _mode_table(p, np.array(ns))
            rows = list(zip(t.root.tolist(), t.near.tolist(), t.rate.tolist()))
            assert rows == [scalar_row(p, n) for n in ns]
            one = _mode_table(p, ns[-1])
            assert (float(one.root), bool(one.near), float(one.rate)) \
                == scalar_row(p, ns[-1])

        rng = np.random.default_rng(7)
        for _ in range(50):
            mu = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3, 3)
            check(DampingParams(10.0 ** rng.uniform(-3, 1), mu),
                  list(range(1, 400)) + [17])
        # the exact-critical pair of test_exact_critical_construction, and
        # k_1 at +-0.5 and +-2 CRITICAL_RTOL from critical
        w = 0.6
        check(DampingParams((1.0 + w) / math.pi, math.pi * (1.0 - w)), [1, 2])
        for rel in (-2.0, -0.5, 0.5, 2.0):
            mu = 2.0 * math.pi * (1.0 + rel * CRITICAL_RTOL) - 0.1 * math.pi**2
            check(DampingParams(0.1, mu), [1, 2])

    def test_transfer_damping_from_table_bitwise(self):
        # 2 k_n rebuilds mu + n^2 pi^2 sigma exactly, so the transfer built
        # on the table equals the one written out in full, bit for bit
        rng = np.random.default_rng(11)
        ns = np.arange(1, 300)
        for _ in range(20):
            p = DampingParams(10.0 ** rng.uniform(-3, 1),
                              10.0 ** rng.uniform(-3, 3))
            w = 10.0 ** rng.uniform(-1, 2)
            npi = ns * math.pi
            den = npi * npi - w * w + 1j * w * (p.mu + npi * npi * p.sigma)
            full = SQRT2 * npi * (1.0 + 1j * p.sigma * w) / den
            assert _transfer_array(p, ns, w).tobytes() == full.tobytes()


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
        (h,) = _transfer_array(DampingParams(1.0, 0.0), np.array([1]), 1.0)
        assert h.real == pytest.approx(0.47283391944871966, rel=1e-13)
        assert h.imag == pytest.approx(-0.025232331014623494, rel=1e-13)

    def test_matches_literal_random(self):
        rng = np.random.default_rng(37)
        ns = np.arange(1, 40)
        for _ in range(100):
            sigma = 10.0 ** rng.uniform(-2, 0.5)
            mu = rng.uniform(0.0, 3.0)
            omega = 10.0 ** rng.uniform(-1, 2)
            got = _transfer_array(DampingParams(sigma, mu), ns, omega)
            for n, h in zip(ns, got):
                lit = oc.transfer_literal(sigma, mu, int(n), omega)
                assert abs(h - lit) <= 1e-13 * abs(lit)

    def test_low_frequency_limit(self):
        # static lift coefficient sqrt(2)/(n pi)
        ns = np.array([1, 3, 7])
        hs = _transfer_array(DampingParams(1.0, 0.5), ns, 1e-9)
        for n, h in zip(ns, hs):
            assert h.real == pytest.approx(SQRT2 / (n * math.pi), rel=1e-8)
            assert abs(h.imag) < 1e-8


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

    def test_l1_overdamped_boundary_layer(self):
        # at (2, 1) every mode is overdamped and the fast exponential has a
        # boundary layer of width ~1/(k + r) at tau = 0
        p = DampingParams(2.0, 1.0)
        for n in range(1, 51):
            ref = SQRT2 / (n * math.pi) * mode_constants(p, n).A_n
            assert abs(modal_kernel_l1(p, n) - ref) <= 5e-11 * ref, n

    @pytest.mark.parametrize("sigma", [0.3, 0.1, 0.02])
    @pytest.mark.parametrize("rel", [0.0, 3e-9, -3e-9, 1e-8, -1e-8,
                                     1e-6, -1e-6, 1e-3, -1e-3])
    def test_kernel_near_critical_matches_mpmath(self, sigma, rel):
        # mu puts k_1 at pi (1 + rel); rel = 0 is exactly critical in
        # floating point, and just outside CRITICAL_RTOL the split r is small
        mu = 2.0 * math.pi * (1.0 + rel) - math.pi**2 * sigma
        K, rate, _ = _kernel(DampingParams(sigma, mu), 1)
        tau = np.linspace(0.0, 40.0 / rate, 41)
        ref = np.array([oc.kernel_mp(sigma, mu, 1, t) for t in tau])
        assert np.max(np.abs(K(tau) - ref)) <= 1e-15 * np.max(np.abs(ref))


def _advance(table, sigma, H, d, y, v, t0, dt):
    """One exact step of every mode in the table: the update simulate uses."""
    (yp0, vp0), (yp1, vp1) = _particular_arrays(table, sigma, H, d, t0, t0 + dt)
    p00, p01, p10, p11 = _propagator_arrays(table, dt)
    zy = y - yp0
    zv = v - vp0
    return p00 * zy + p01 * zv + yp1, p10 * zy + p11 * zv + vp1


class TestExactStepper:
    REGIMES = [
        (2.0, 1.0, 1),                                     # overdamped
        (0.05, 0.1, 1),                                    # underdamped
        ((1.0 + 0.6) / math.pi, math.pi * (1.0 - 0.6), 1),  # critical
        (1.0, 0.0, 5),                                     # stiff overdamped
    ]

    @staticmethod
    def _free_reference(sigma, mu, n, y0, v0, t):
        if abs(_mode_table(DampingParams(sigma, mu), n)[1] - n * math.pi) \
                < 1e-12 * n * math.pi:
            # perturb off the double root for the two-root reference
            mu = mu + 1e-9
        return oc.free_mode_solution(sigma, mu, n, y0, v0, t)

    def test_free_decay_matches_closed_form(self):
        # the four regimes advance together as one array of modes, each
        # with its own (sigma, mu)
        zero = DisturbanceSpec.constant(0.0)
        tables = [_mode_table(DampingParams(sigma, mu), [n])
                  for sigma, mu, n in self.REGIMES]
        table = tuple(np.concatenate(col) for col in zip(*tables))
        sigmas = np.array([sigma for sigma, _, _ in self.REGIMES])
        y, v = np.full(4, 1.0), np.full(4, -0.3)
        t, dt = 0.0, 0.07
        for _ in range(10):
            y, v = _advance(table, sigmas, None, zero, y, v, t, dt)
            t += dt
        for i, (sigma, mu, n) in enumerate(self.REGIMES):
            y_ref, v_ref = self._free_reference(sigma, mu, n, 1.0, -0.3, t)
            assert y[i] == pytest.approx(y_ref, rel=2e-7, abs=1e-12)
            assert v[i] == pytest.approx(v_ref, rel=2e-7, abs=1e-12)

    def test_semigroup_property(self):
        # two half steps must equal one full step to rounding
        zero = DisturbanceSpec.constant(0.0)
        p = DampingParams(0.05, 0.1)
        table = _mode_table(p, [1])
        y0, v0 = np.array([0.7]), np.array([0.2])
        one = _advance(table, p.sigma, None, zero, y0, v0, 0.0, 0.2)
        y1, v1 = _advance(table, p.sigma, None, zero, y0, v0, 0.0, 0.1)
        half = _advance(table, p.sigma, None, zero, y1, v1, 0.1, 0.1)
        assert half[0][0] == pytest.approx(one[0][0], rel=1e-13)
        assert half[1][0] == pytest.approx(one[1][0], rel=1e-13)

    def test_tiny_step_series_path(self):
        # dt small enough that the propagator takes its series branch
        zero = DisturbanceSpec.constant(0.0)
        p = DampingParams(1.0, 0.0)
        table = _mode_table(p, [1])
        y, v = np.array([1.0]), np.array([0.0])
        dt = 1e-5
        for i in range(10):
            y, v = _advance(table, p.sigma, None, zero, y, v, i * dt, dt)
        y_ref, v_ref = oc.free_mode_solution(1.0, 0.0, 1, 1.0, 0.0, 10 * dt)
        assert y[0] == pytest.approx(y_ref, rel=1e-12)
        assert v[0] == pytest.approx(v_ref, rel=1e-9)

    @staticmethod
    def _assert_flow_matches_mpmath(k, disc, t):
        """The series and the regime's closed form each give
        e^{-kt} (cosh rt, sinh(rt)/r) to the rounding of k t in the
        exponential; returns the 40-digit (C, S)."""
        q = disc * t * t
        ref = np.array([oc.flow_mp(k, qi, ti) for qi, ti in zip(q, t)]).T
        closed = _flow_over if disc > 0.0 else _flow_under
        tol = 4e-16 * (1.0 + k * t) * np.abs(ref)
        for C, S in (_flow_series(k, q, t), closed(k, math.sqrt(abs(disc)), t)):
            assert np.all(np.abs(C - ref[0]) <= tol[0]), (k, disc)
            assert np.all(np.abs(S - ref[1]) <= tol[1]), (k, disc)
        return ref

    @pytest.mark.parametrize("k, dt", [(0.1, 1e-3), (3.0, 0.05), (0.7, 1.3)])
    def test_flow_across_the_series_switch(self, k, dt):
        # q = disc dt^2 on both sides of |q| = 1e-6, where the propagator
        # switches between the series and the closed forms
        disc = np.array([-1.001, -0.999, 0.999, 1.001]) * 1e-6 / (dt * dt)
        ref = [self._assert_flow_matches_mpmath(k, d, np.array([dt]))[1, 0]
               for d in disc]
        # a hand-built table: the propagator reads n pi, k, disc and root
        table = (np.ones(4), np.full(4, k), disc, np.sqrt(np.abs(disc)),
                 None, None)
        _, p01, _, _ = _propagator_arrays(table, dt)
        assert p01 == pytest.approx(ref, rel=4e-16 * (1.0 + k * dt))

    @pytest.mark.parametrize("rel", [-2.0, -0.5, 0.5, 2.0])
    def test_flow_across_the_critical_switch(self, rel):
        # k_1 on both sides of CRITICAL_RTOL, where the kernel switches
        # between the series and the closed forms, over its whole horizon
        mu = 2.0 * math.pi * (1.0 + rel * CRITICAL_RTOL) - 0.1 * math.pi**2
        _, k, disc, _, near, _ = map(float,
                                     _mode_table(DampingParams(0.1, mu), 1))
        assert near == (abs(rel) < 1.0)
        self._assert_flow_matches_mpmath(k, disc, np.linspace(0.0, 40.0 / k, 41))

    def test_sinusoid_reaches_transfer_steady_state(self):
        # after the transient dies, y_n(t) = Im(H_n e^{i w t}) exactly;
        # the slow decay rate here is k - r ~ 1.13, so run to t = 30
        p = DampingParams(1.0, 0.0)
        omega = 2.0
        d = DisturbanceSpec.sinusoid(1.0, omega)
        table = _mode_table(p, [1])
        H = _transfer_array(p, [1], omega)
        y, v = np.zeros(1), np.zeros(1)
        t, dt = 0.0, 0.05
        while t < 30.0 - 1e-12:
            y, v = _advance(table, p.sigma, H, d, y, v, t, dt)
            t += dt
        expect = (H[0] * cmath.exp(1j * omega * t)).imag
        assert y[0] == pytest.approx(expect, rel=1e-12)

    def test_constant_forcing_static_limit(self):
        # held level: each mode settles on sqrt(2) d / (n pi)
        p = DampingParams(0.5, 0.3)
        d = DisturbanceSpec.constant(2.0)
        table = _mode_table(p, [1, 2])
        y, v = np.zeros(2), np.zeros(2)
        t, dt = 0.0, 0.1
        while t < 20.0 - 1e-12:
            y, v = _advance(table, p.sigma, None, d, y, v, t, dt)
            t += dt
        for i, n in enumerate((1, 2)):
            assert y[i] == pytest.approx(SQRT2 * 2.0 / (n * math.pi),
                                         rel=1e-12)
            assert abs(v[i]) < 1e-12

    def test_ramp_tracks_lifted_solution(self):
        # linear d: the mode tracks the moving static coefficient with a
        # constant velocity-induced offset, after transients
        p = DampingParams(1.0, 0.0)
        d = DisturbanceSpec.piecewise_linear([(0.0, 0.0), (30.0, 3.0)])
        n, slope = 1, 0.1
        table = _mode_table(p, [n])
        y, v = np.zeros(1), np.zeros(1)
        t, dt = 0.0, 0.05
        while t < 26.0 - 1e-12:
            y, v = _advance(table, p.sigma, None, d, y, v, t, dt)
            t += dt
        npi = n * math.pi
        # steady solution of y'' + 2k y' + npi^2 y = sqrt2 npi (sigma m + d)
        k = float(table[1][0])
        expect = SQRT2 * (p.sigma * slope + d.value(t)) / npi \
            - 2.0 * k * SQRT2 * slope / npi**3
        assert y[0] == pytest.approx(expect, rel=1e-10)
        assert v[0] == pytest.approx(SQRT2 * slope / npi, rel=1e-10)
