"""Frequency-domain layer: characteristic roots, profiles, per-frequency gains.

Pinned values were produced by the independent routes in oracles.py
(arbitrary-precision sinh ratios, direct quadrature); live comparisons
against those routes cover randomized parameters.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as oc
import wavegain.freq_response as fr
from wavegain.freq_response import (
    DampingParams,
    amplitude_at,
    l2_stats_at,
    polar_params,
    profile_at,
    sup_gain_at,
)

INV_SQRT3 = 1.0 / math.sqrt(3.0)


@st.composite
def sup_gain_cases(draw):
    """(sigma, mu, omegas, order, split): one parameter pair, 1-5 frequencies,
    a permutation of them and a place to cut the permuted array."""
    sigma = 10.0 ** draw(st.floats(-5.0, 1.0))
    musig = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999),
                           st.floats(1.0, 3.0)))
    omegas = draw(st.lists(st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
                           min_size=1, max_size=5))
    order = draw(st.permutations(range(len(omegas))))
    split = draw(st.integers(0, len(omegas)))
    return sigma, musig / sigma, omegas, order, split


@st.composite
def full_span_cases(draw):
    """(sigma, mu, omegas) with mu*sigma < 1: frequencies in [1e-3, 1e4],
    log-uniform, or five across [n*pi - 0.5, n*pi + 0.5] at a resonance with
    a <~ 1 (there the maximum is interior and above 1, and lies in the first
    half of the last period on one side of n*pi), or where the root
    underflows to a = b = 0."""
    sigma = 10.0 ** draw(st.floats(-6.0, 0.7))
    musig = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    n_max = max(1, int(math.sqrt(2.0 / sigma) / math.pi))  # a ~ sigma w^2/2
    groups = draw(st.lists(st.one_of(
        st.floats(-3.0, 4.0).map(lambda e: [10.0 ** e]),
        st.integers(1, n_max).map(
            lambda n: list(n * math.pi + np.linspace(-0.5, 0.5, 5))),
        st.sampled_from([1e-300, 1e-170]).map(lambda w: [w])),
        min_size=1, max_size=3))
    return sigma, musig / sigma, [w for g in groups for w in g]


class TestDampingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DampingParams(0.0, 1.0)
        with pytest.raises(ValueError):
            DampingParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            DampingParams(1.0, -0.1)
        with pytest.raises(ValueError):
            DampingParams(math.nan, 0.0)
        with pytest.raises(ValueError):
            DampingParams(1.0, math.inf)

    def test_coerces_to_float(self):
        p = DampingParams(1, 0)
        assert isinstance(p.sigma, float) and isinstance(p.mu, float)


class TestPolarParams:
    def test_root_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sigma = 10.0 ** rng.uniform(-3, 1)
            mu = rng.uniform(0.0, 5.0)
            omega = 10.0 ** rng.uniform(-2, 3)
            pt = polar_params(DampingParams(sigma, mu), omega)
            lam = complex(pt.a, pt.b)
            lhs = lam * lam * (1.0 + 1j * sigma * omega)
            rhs = 1j * mu * omega - omega * omega
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
            assert 0.0 < pt.theta < math.pi
            assert pt.a > 0.0 and pt.b > 0.0

    def test_quadrant_splits_at_unit_damping_product(self):
        # mu*sigma < 1 puts the root argument past pi/2, so b >= a
        pt = polar_params(DampingParams(0.5, 1.0), 2.0)
        assert pt.b >= pt.a
        pt = polar_params(DampingParams(2.0, 1.0), 2.0)
        assert pt.a >= pt.b

    def test_matches_literal_root(self):
        for sigma, mu, omega in [(1, 0, 1), (0.05, 0.1, 9), (2, 1, 0.3)]:
            pt = polar_params(DampingParams(sigma, mu), omega)
            lam = oc.spatial_root(sigma, mu, omega)
            assert complex(pt.a, pt.b) == pytest.approx(lam, rel=1e-14)


class TestProfiles:
    def test_pinned_midpoint_values(self):
        # sigma=1, mu=0, omega=1, x=0.5; 30-digit sinh-ratio values
        pt = polar_params(DampingParams(1.0, 0.0), 1.0)
        h, g = profile_at(pt, 0.5)
        assert h == pytest.approx(0.5310669094321838, rel=1e-13)
        assert g == pytest.approx(-0.03466974124327141, rel=1e-13)

    def test_boundary_values(self):
        for sigma, mu, omega in [(1, 0, 1), (0.5, 1, 2), (0.05, 0.1, 9),
                                 (2, 1, 0.3), (1e-4, 0.0, 3.14)]:
            pt = polar_params(DampingParams(sigma, mu), omega)
            h0, g0 = profile_at(pt, 0.0)
            h1, g1 = profile_at(pt, 1.0)
            assert abs(h0 - 1.0) < 1e-12 and abs(g0) < 1e-12
            assert abs(h1) < 1e-12 and abs(g1) < 1e-12

    def test_matches_complex_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sigma = 10.0 ** rng.uniform(-2, 0.5)
            mu = rng.uniform(0.0, 3.0)
            omega = 10.0 ** rng.uniform(-1.5, 1.5)
            x = rng.uniform(0.0, 1.0)
            pt = polar_params(DampingParams(sigma, mu), omega)
            h, g = profile_at(pt, x)
            v = oc.profile_complex(sigma, mu, omega, x)
            scale = max(1e-3, abs(v))
            assert abs(h - v.real) <= 1e-10 * scale
            assert abs(g - v.imag) <= 1e-10 * scale

    def test_stable_where_naive_sinh_overflows(self):
        # a is ~450 here; cmath.sinh would overflow, the package must not
        pt = polar_params(DampingParams(1e-4, 0.0), 2.0e5)
        assert pt.a > 400.0
        for x in (0.0, 0.25, 0.9, 1.0):
            h, g = profile_at(pt, x)
            v = oc.mp_profile(1e-4, 0.0, 2.0e5, x, dps=40)
            assert h == pytest.approx(float(v.real), abs=1e-300, rel=1e-11)
            assert g == pytest.approx(float(v.imag), abs=1e-300, rel=1e-11)

    def test_amplitude_identity(self):
        rng = np.random.default_rng(13)
        xs = np.linspace(0.0, 1.0, 41)
        for _ in range(50):
            sigma = 10.0 ** rng.uniform(-2, 0.5)
            mu = rng.uniform(0.0, 3.0)
            omega = 10.0 ** rng.uniform(-1.5, 1.5)
            pt = polar_params(DampingParams(sigma, mu), omega)
            h, g = profile_at(pt, xs)
            amp = amplitude_at(pt, xs)
            assert np.max(np.abs(amp**2 - (h**2 + g**2))) < 1e-10

    def test_array_and_scalar_shapes(self):
        pt = polar_params(DampingParams(1.0, 0.0), 1.0)
        h, g = profile_at(pt, 0.3)
        assert isinstance(h, float) and isinstance(g, float)
        hs, gs = profile_at(pt, np.linspace(0, 1, 5))
        assert hs.shape == (5,) and gs.shape == (5,)
        assert isinstance(amplitude_at(pt, 0.3), float)

    def test_position_validation(self):
        pt = polar_params(DampingParams(1.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            profile_at(pt, -0.1)
        with pytest.raises(ValueError):
            amplitude_at(pt, 1.5)

    def test_ode_residual_spot_check(self):
        # (1 + i sigma w) v'' = (i mu w - w^2) v via a 7-point stencil
        sigma, mu, omega, x = 0.7, 0.4, 2.3, 0.41
        pt = polar_params(DampingParams(sigma, mu), omega)
        step = 1e-3
        offs = np.arange(-3, 4) * step
        h, g = profile_at(pt, x + offs)
        v = h + 1j * g
        stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
        d2 = (stencil * v).sum() / (180.0 * step * step)
        lhs = (1.0 + 1j * sigma * omega) * d2
        rhs = (1j * mu * omega - omega * omega) * v[3]
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestSupGain:
    def test_never_below_one(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            sigma = 10.0 ** rng.uniform(-3, 0.5)
            mu = rng.uniform(0.0, 4.0)
            omega = 10.0 ** rng.uniform(-2, 2)
            assert sup_gain_at(DampingParams(sigma, mu), omega) >= 1.0

    def test_exactly_one_when_damping_product_large(self):
        for omega in (0.1, 1.0, 5.0, 80.0):
            assert sup_gain_at(DampingParams(1.0, 1.0), omega) == 1.0
            assert sup_gain_at(DampingParams(0.5, 3.0), omega) == 1.0

    def test_flat_at_moderate_kelvin_voigt(self):
        # the interior never rises above the boundary for sigma in {0.5, 1},
        # mu=0 (checked against 40-digit brute force)
        for sigma in (0.5, 1.0):
            p = DampingParams(sigma, 0.0)
            for omega in np.linspace(0.3, 40.0, 25):
                assert sup_gain_at(p, omega) <= 1.0 + 1e-12

    def test_limit_value_where_the_root_underflows(self):
        # a = b = 0 below omega ~ 1e-162: the omega -> 0 limit 1, not 0/0
        for sigma, mu in [(1.0, 0.0), (0.3, 0.2), (1e-3, 5.0)]:
            p = DampingParams(sigma, mu)
            ws = np.array([1e-300, 1e-170, 1e-3, 2.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sup_gain_at(p, ws)
                assert sup_gain_at(p, 1e-170) == 1.0
            assert got[:2].tolist() == [1.0, 1.0]
            assert got.tolist() == [sup_gain_at(p, w) for w in ws]

    def test_resonant_spike_pin(self):
        # near the first string resonance the gain is large; pinned value
        # validated against a dense arbitrary-precision grid
        val = sup_gain_at(DampingParams(1e-4, 0.05), 3.1414)
        assert val == pytest.approx(39.225656991931565, rel=1e-10)

    def test_matches_brute_force_at_spikes(self):
        for sigma, mu, omega in [(1e-4, 0.05, 3.1414), (0.01, 0.0, 3.2)]:
            pkg = sup_gain_at(DampingParams(sigma, mu), omega)
            brute = oc.mp_sup_gain(sigma, mu, omega, n=4001)
            assert pkg >= brute - 1e-9 * brute  # refined max beats any grid
            assert pkg == pytest.approx(brute, rel=1e-6)

    @settings(max_examples=25)
    @example((1e-5, 0.0, [1389.5, 3.0], [1, 0], 1))   # n = 14176: many blocks
    @example((1.0, 0.0, [2000.0, 0.5], [0, 1], 1))    # a >= 20: x window
    @example((1.0, 2.0, [5.0, 0.01], [1, 0], 0))      # mu*sigma >= 1
    @given(sup_gain_cases())
    def test_array_call_matches_scalar_calls_and_oracle(self, case):
        sigma, mu, omegas, order, split = case
        p = DampingParams(sigma, mu)
        whole = sup_gain_at(p, np.array(omegas))
        single = np.array([sup_gain_at(p, w) for w in omegas])
        shuffled = np.array(omegas)[order]
        parts = np.concatenate([sup_gain_at(p, shuffled[:split]),
                                sup_gain_at(p, shuffled[split:])])
        assert whole.tobytes() == single.tobytes()
        assert parts.tobytes() == whole[order].tobytes()
        assert np.all(np.isfinite(whole)) and np.all(whole >= 1.0)
        if mu * sigma < 1.0:  # otherwise exactly 1, the oracle's x=0 value
            for w, v in zip(omegas, whole):
                brute = oc.mp_sup_gain(sigma, mu, w, n=1025)
                assert v >= brute * (1.0 - 1e-15)

    def test_newton_pass_budget(self, monkeypatch):
        # every lockstep Newton call converges within 8 passes over
        # sigma in [1e-5, 10] and omega in [1e-3, 1e4]
        passes = []
        newton = fr._newton_roots

        def counting(*args):
            roots, count = newton(*args)
            passes.append(count)
            return roots, count

        monkeypatch.setattr(fr, "_newton_roots", counting)
        omegas = np.geomspace(1e-3, 1e4, 200)
        for sigma in (1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            for mu in (0.0, 0.1, 2.0):
                sup_gain_at(DampingParams(sigma, mu), omegas)
        assert len(passes) == 21 and max(passes) >= 4
        assert max(passes) <= 8

    def test_frequency_validation(self):
        # one shared check: the same message from every frequency entry point
        p = DampingParams(0.1, 0.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            for fn in (polar_params, sup_gain_at, l2_stats_at):
                with pytest.raises(ValueError,
                                   match=f"omega must be a positive real, got {bad!r}"):
                    fn(p, bad)
        for fn in (sup_gain_at, l2_stats_at):
            with pytest.raises(ValueError, match="got nan"):
                fn(p, [1.0, math.nan])
            with pytest.raises(ValueError, match="got 0.0"):
                fn(DampingParams(1.0, 1.0), [2.0, 0.0])
            with pytest.raises(ValueError, match="1-D"):
                fn(p, [[1.0, 2.0]])
        assert isinstance(sup_gain_at(p, 2.0), float)
        assert sup_gain_at(p, [2.0, 3.0]).shape == (2,)

    def test_large_frequency_still_fast_and_sane(self):
        # huge a: the search window must collapse to the boundary layer
        val = sup_gain_at(DampingParams(1e-4, 0.0), 4.0e4)
        assert 1.0 <= val < 1.5

    def test_few_period_rows_reach_a_dense_grid(self):
        # rows with fewer than 32 periods of cos(2bx) get 32 points per
        # period; the refined value must reach a 2^16-point float64 grid
        rng = np.random.default_rng(23)
        xs = np.linspace(0.0, 1.0, (1 << 16) + 1)
        cases = 0
        while cases < 200:
            sigma = 10.0 ** rng.uniform(-3.0, 0.5)
            mu = rng.uniform(0.0, 0.999) / sigma
            omega = 10.0 ** rng.uniform(-2.0, 2.5)
            _, _, a, b = fr._polar_arrays(sigma, mu, np.array([omega]))
            x_lo = 1.0 - 20.0 / max(a[0], 20.0)
            if b[0] * (1.0 - x_lo) / math.pi >= 32.0 or a[0] > 300.0:
                continue
            cases += 1
            lam = oc.spatial_root(sigma, mu, omega)
            dense = np.abs(np.sinh(lam * (1.0 - xs)) / np.sinh(lam)).max()
            val = sup_gain_at(DampingParams(sigma, mu), omega)
            assert val >= dense * (1.0 - 1e-15), (sigma, mu, omega)

    def test_grid_points_per_row(self, monkeypatch):
        # one period per row: exactly 33 points, whether [x_lo, 1] spans
        # under one period of cos(2bx) or over a thousand
        p = DampingParams(1e-6, 0.0)
        ws = np.geomspace(0.5, 5e3, 300)
        _, _, a, b = fr._polar_arrays(p.sigma, p.mu, ws)
        periods = b * (20.0 / np.maximum(a, 20.0)) / math.pi
        assert periods.min() < 1.0 and periods.max() > 1000.0
        shapes = record_grid_shapes(monkeypatch)
        sup_gain_at(p, ws)
        assert {cols for _, cols in shapes} == {33}
        assert sum(rows for rows, _ in shapes) == ws.size

    def test_rows_need_no_cap_at_tiny_sigma(self, monkeypatch):
        # at sigma = 1e-300 a row over all of [0, 1] would need about 1e7
        # and 1e151 points at omega = 1e6 and 1e150; the last period needs
        # 33. (Past omega ~ 1.3e154, r = |lambda|^2 overflows and the value
        # is NaN.)
        shapes = record_grid_shapes(monkeypatch)
        got = sup_gain_at(DampingParams(1e-300, 0.0), [1.0, 1e6, 1e150])
        assert np.all(np.isfinite(got)) and np.all(got >= 1.0)
        assert shapes == [(3, 33)]

    @settings(max_examples=60)
    @example((4e-8, 0.0, [3.16e4, 2.0]))     # 10^4 periods; b < pi
    @example((1e-6, 0.0, [1e4, 1e-300]))     # ~1300 periods; a = b = 0
    @example((1e-3, 0.5, [1e-170, 3.1416]))  # b tiny but nonzero
    @given(full_span_cases())
    def test_one_period_rows_match_full_span_reference(self, case):
        # the last-period rows agree with the old full-span rows to 4 ulp
        sigma, mu, omegas = case
        p = DampingParams(sigma, mu)
        ws = np.array(omegas)
        got = sup_gain_at(p, ws)
        with np.errstate(invalid="ignore"):
            want = oc.sup_gain_rows_full_span(p, ws)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want)), (
            got, want)


def record_grid_shapes(monkeypatch):
    """List that collects the shape of every 2-D grid the sup-gain rows
    evaluate: (rows, points per row) per block."""
    shapes = []
    objective = fr._sup_objective

    def recording(a, b, x):
        if np.ndim(x) == 2:
            shapes.append(x.shape)
        return objective(a, b, x)

    monkeypatch.setattr(fr, "_sup_objective", recording)
    return shapes


class TestL2Stats:
    def test_pinned_values(self):
        st = l2_stats_at(DampingParams(1.0, 0.0), 1.0)
        assert st.p == pytest.approx(0.17830392190555394, rel=1e-12)
        assert st.q1 == pytest.approx(-0.17765779111795366, rel=1e-12)
        assert st.q2 == pytest.approx(-0.012803319712775929, rel=1e-12)
        assert st.M == pytest.approx(0.031726215740577955, rel=1e-12)
        assert st.Q == pytest.approx(0.59701127792751, rel=1e-12)

    def test_matches_quadrature_oracle(self):
        for sigma, mu, omega in [(1, 0, 1), (0.5, 1, 2), (0.05, 0.1, 9)]:
            st = l2_stats_at(DampingParams(sigma, mu), omega)
            p, q1, q2 = oc.mp_l2_stats(sigma, mu, omega)
            assert st.p == pytest.approx(p, rel=1e-10)
            assert st.q1 == pytest.approx(q1, rel=1e-10)
            assert st.q2 == pytest.approx(q2, rel=1e-10)

    def test_internal_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            sigma = 10.0 ** rng.uniform(-2, 0.5)
            mu = rng.uniform(0.0, 3.0)
            omega = 10.0 ** rng.uniform(-1.5, 1.5)
            st = l2_stats_at(DampingParams(sigma, mu), omega)
            assert st.M == pytest.approx(st.q1**2 + st.q2**2, rel=1e-8)
            assert st.Q == pytest.approx(math.sqrt(st.p + math.sqrt(st.M)),
                                         rel=1e-14)
            assert st.p > 0.0

    def test_low_frequency_limit(self):
        # response follows the static profile (1-x): p -> 1/6, M -> 1/36,
        # Q -> 1/sqrt(3)
        st = l2_stats_at(DampingParams(1.0, 0.0), 1e-7)
        assert st.p == pytest.approx(1.0 / 6.0, rel=1e-9)
        assert st.M == pytest.approx(1.0 / 36.0, rel=1e-8)
        assert st.Q == pytest.approx(INV_SQRT3, rel=1e-9)

    def test_limit_values_where_the_root_underflows(self):
        # |lambda|^2 ~ omega^2 underflows to 0 here
        st = l2_stats_at(DampingParams(1.0, 0.0), 1e-300)
        for got, want in [(st.p, 1.0 / 6.0), (st.M, 1.0 / 36.0),
                          (st.Q, INV_SQRT3)]:
            assert abs(got - want) <= 2.0 * math.ulp(want)

    def test_series_and_closed_form_agree_across_crossover(self):
        # for these parameters the series below |lambda| = 0.5 hand over to
        # the closed forms near omega = 0.5321; the old switch near
        # omega = 0.05 is kept as well
        p = DampingParams(1.0, 0.0)
        for omega, below in [(0.049, True), (0.0501, True), (0.051, True),
                             (0.53, True), (0.5321, True), (0.5322, False),
                             (0.535, False), (0.6, False)]:
            assert (polar_params(p, omega).r < 0.25) == below
            st = l2_stats_at(p, omega)
            pp, q1, q2 = oc.mp_l2_stats(1.0, 0.0, omega)
            assert st.p == pytest.approx(pp, rel=1e-13)
            assert st.q1 == pytest.approx(q1, rel=1e-13)
            assert st.q2 == pytest.approx(q2, rel=1e-13)
            assert st.Q == pytest.approx(math.sqrt(pp + math.hypot(q1, q2)),
                                         rel=1e-15)

    def test_q_continuous_in_frequency(self):
        # no jump at the branch switch near omega = 0.5321
        p = DampingParams(1.0, 0.0)
        qs = l2_stats_at(p, np.linspace(0.5, 0.56, 201)).Q
        diffs = np.abs(np.diff(qs))
        assert diffs.max() < 1e-4

    @settings(max_examples=25)
    @example((1.0, 0.0, [0.5321, 0.5322, 1e-3], [2, 0, 1], 1))  # both branches
    @given(sup_gain_cases())
    def test_array_call_matches_scalar_calls(self, case):
        sigma, mu, omegas, order, split = case
        p = DampingParams(sigma, mu)
        whole = l2_stats_at(p, np.array(omegas))
        shuffled = np.array(omegas)[order]
        first = l2_stats_at(p, shuffled[:split])
        second = l2_stats_at(p, shuffled[split:])
        for name in ("p", "q1", "q2", "M", "Q"):
            got = getattr(whole, name)
            single = np.array([getattr(l2_stats_at(p, w), name)
                               for w in omegas])
            parts = np.concatenate([getattr(first, name),
                                    getattr(second, name)])
            assert got.tobytes() == single.tobytes()
            assert parts.tobytes() == got[order].tobytes()
        assert np.all(np.isfinite(whole.Q)) and np.all(whole.p > 0.0)

    def test_empty_array_gives_empty_fields(self):
        st = l2_stats_at(DampingParams(1.0, 0.0), np.array([]))
        for name in ("p", "q1", "q2", "M", "Q"):
            assert getattr(st, name).shape == (0,)
