"""Unit tests for the scalar numeric helpers."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as oc
from wavegain._numerics import (
    adaptive_simpson,
    composite_simpson,
    golden_max,
    grid_local_maxima,
    refine_local_maxima,
    scaled_cosh_minus_cos,
)


class TestScaledCoshMinusCos:
    def test_matches_naive_form_at_moderate_arguments(self):
        for z, w in [(1.0, 2.0), (3.5, 0.7), (0.5, 0.5), (10.0, 31.4)]:
            expect = math.exp(-z) * (math.cosh(z) - math.cos(w))
            assert scaled_cosh_minus_cos(z, w) == pytest.approx(expect, rel=1e-14)

    def test_no_cancellation_at_tiny_arguments(self):
        # naive cosh-cos loses all digits here; compare against 50-digit truth
        for z, w in [(1e-8, 2e-8), (1e-8, 0.0), (0.0, 3e-9), (1e-6, 1e-7)]:
            with mp.workdps(50):
                expect = float(mp.exp(-z) * (mp.cosh(z) - mp.cos(w)))
            assert scaled_cosh_minus_cos(z, w) == pytest.approx(expect, rel=1e-13)

    def test_no_overflow_at_huge_arguments(self):
        val = scaled_cosh_minus_cos(5000.0, 1.0)
        assert math.isfinite(val)
        assert val == pytest.approx(0.5, rel=1e-12)  # exp(-z)*cosh(z) -> 1/2

    def test_vectorized(self):
        z = np.array([0.0, 1.0, 2.0])
        w = np.array([0.0, 1.0, 0.5])
        out = scaled_cosh_minus_cos(z, w)
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestGoldenMax:
    def test_interior_maximum(self):
        x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert abs(x - 0.3) < 1e-9
        assert fx == pytest.approx(0.0, abs=1e-18)

    def test_boundary_maximum(self):
        x, _ = golden_max(lambda x: x, 0.0, 2.0, tol=1e-12)
        assert abs(x - 2.0) < 1e-9

    def test_respects_tolerance(self):
        # x resolution near a smooth max is limited to ~sqrt(eps) because
        # nearby f values compare equal in doubles
        x, _ = golden_max(lambda x: math.sin(x), 0.0, 3.0, tol=1e-10)
        assert abs(x - math.pi / 2) < 1e-7


class TestCompositeSimpson:
    def test_exact_on_cubics(self):
        xs = np.linspace(0.0, 2.0, 9)
        ys = xs**3 - xs
        assert composite_simpson(ys, xs[1] - xs[0]) == pytest.approx(2.0, rel=1e-14)

    def test_even_interval_count_uses_three_eighths_tail(self):
        xs = np.linspace(0.0, math.pi, 10)  # 9 intervals
        val = composite_simpson(np.sin(xs), xs[1] - xs[0])
        assert val == pytest.approx(2.0, rel=1e-3)

    def test_two_samples_falls_back_to_trapezoid(self):
        assert composite_simpson(np.array([0.0, 1.0]), 0.5) == pytest.approx(0.25)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            composite_simpson(np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            composite_simpson(np.ones((3, 1)), 0.1)
        with pytest.raises(ValueError):
            composite_simpson(np.float64(1.0), 0.1)

    @pytest.mark.parametrize("samples", [*range(2, 13), 1024])
    def test_rows_match_one_dimensional_calls_bit_for_bit(self, samples):
        # integrates along the last axis; each row is its own 1-D integral
        rng = np.random.default_rng(samples)
        ys = rng.normal(size=(2, 7, samples)) * rng.uniform(
            0.0, 1e3, size=(2, 7, 1))
        dx = 1.0 / (samples - 1)
        if samples == 4:  # three intervals: the 3/8 rule alone, exact on cubics
            xs = np.linspace(0.0, 3.0, 4)
            cubics = np.stack([xs**3 - xs, 2.0 * xs**2 + 1.0])
            assert composite_simpson(cubics[0], 1.0) == pytest.approx(
                15.75, rel=1e-14)
            assert composite_simpson(cubics, 1.0) == pytest.approx(
                [15.75, 21.0], rel=1e-14)
        got = composite_simpson(ys, dx)
        assert got.shape == (2, 7)
        want = [[composite_simpson(row, dx) for row in plane] for plane in ys]
        assert np.array_equal(got, np.array(want))

    def test_fourth_order_convergence(self):
        def err(n):
            xs = np.linspace(0.0, 1.0, n + 1)
            return abs(composite_simpson(np.exp(xs), 1.0 / n) - (math.e - 1.0))

        assert err(64) < err(16) / 200  # ~(1/4)^4 = 1/256 with slack


class TestAdaptiveSimpson:
    """f takes a 1-D array of points; a, b and tol may be per-panel arrays."""

    @staticmethod
    def quintic(x):
        # + and * only, so numpy arrays and Python floats give the same bits
        return ((((3.0 * x - 7.0) * x + 2.0) * x + 5.0) * x - 1.0) * x + 0.5

    def test_smooth_integrands(self):
        assert adaptive_simpson(np.exp, 0.0, 1.0) == pytest.approx(
            math.e - 1.0, rel=1e-13)
        assert adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) == \
            pytest.approx(math.pi / 4.0, rel=1e-13)

    def test_oscillatory_integrand(self):
        val = adaptive_simpson(lambda x: np.sin(20.0 * x), 0.0, math.pi,
                               tol=1e-13)
        expect = (1.0 - math.cos(20.0 * math.pi)) / 20.0
        assert val == pytest.approx(expect, abs=1e-12)

    def test_degenerate_interval(self):
        assert adaptive_simpson(np.exp, 1.0, 1.0) == 0.0

    def test_batch_same_bits_as_alone(self):
        def f(x):
            return np.sin(3.0 * x) * np.exp(-0.5 * x)

        a = np.array([0.0, 0.7, 2.0, 2.0, 5.0])
        b = np.array([0.7, 2.0, 2.0, 4.5, 9.0])  # the third is degenerate
        tol = np.array([1e-12, 1e-10, 1e-12, 1e-13, 1e-11])
        out = adaptive_simpson(f, a, b, tol=tol)
        assert isinstance(out, np.ndarray) and out.shape == (5,)
        alone = [adaptive_simpson(f, *p) for p in zip(a, b, tol)]
        assert all(isinstance(v, float) for v in alone)
        assert out.tolist() == alone
        assert alone[2] == 0.0

    def test_jump_stops_at_max_depth(self):
        calls = []

        def step(x):
            calls.append(x.size)
            return np.where(x < 1.0 / 3.0, 0.0, 1.0)

        val = adaptive_simpson(step, 0.0, 1.0, tol=1e-15, max_depth=20)
        # one call on the ends and midpoint, then one per level 0..20
        assert len(calls) == 22
        assert math.isfinite(val)
        assert val == pytest.approx(2.0 / 3.0, abs=2.0 ** -20)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14])
    def test_polynomial_same_bits_as_scalar_oracle(self, tol):
        a = [-1.0, 0.0, 0.25, 1.5]
        b = [0.0, 0.25, 1.5, 4.0]
        out = adaptive_simpson(self.quintic, a, b, tol=tol)
        expect = [oc.adaptive_simpson_scalar(self.quintic, lo, hi, tol=tol)
                  for lo, hi in zip(a, b)]
        assert out.tolist() == expect


class TestRefineLocalMaxima:
    """f takes a 1-D array of points; every call of f is one zoom pass."""

    @staticmethod
    def counting(f):
        """f, and the list of the arrays it was called with."""
        calls = []

        def g(x):
            calls.append(np.array(x))
            return f(x)

        return g, calls

    @staticmethod
    def lobes(x):
        return np.sin(5.0 * np.pi * x) ** 2 * np.exp(-x)

    def test_finds_global_maximum_of_multilobe_function(self):
        f = self.lobes
        xs = np.linspace(0.0, 1.0, 201)
        fs = f(xs)
        x_best, f_best = refine_local_maxima(f, xs, fs, tol=1e-12)
        # stationarity: 10 pi cot(5 pi x) = 1 on the first lobe
        x_true = math.atan(10.0 * math.pi) / (5.0 * math.pi)
        assert abs(x_best - x_true) < 1e-7
        assert f_best == pytest.approx(f(x_true), rel=1e-12)
        assert f_best >= fs.max()
        assert f(np.array([x_best]))[0] == f_best  # a sample, not a model

    def test_plateau_refines_once_not_everywhere(self):
        f, calls = self.counting(np.ones_like)
        xs = np.linspace(0.0, 1.0, 101)
        fs = np.ones_like(xs)
        _, f_best = refine_local_maxima(f, xs, fs, tol=1e-10)
        assert f_best == 1.0
        # one refinement window, not one per grid point
        assert sum(c.size for c in calls) < 120

    def test_boundary_maximum_refined(self):
        f = lambda x: x * x
        xs = np.linspace(0.0, 1.0, 11)
        fs = xs**2
        x_best, f_best = refine_local_maxima(f, xs, fs)
        assert f_best == pytest.approx(1.0, abs=1e-10)
        assert x_best == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("f", [lambda x: x, lambda x: -x,
                                   lambda x: np.exp(-3.0 * x)],
                             ids=["rising", "falling", "decaying"])
    def test_monotone_end_maximum_costs_one_probe(self, f):
        counting, calls = self.counting(f)
        xs = np.linspace(0.0, 1.0, 11)
        fs = f(xs)
        x_best, f_best = refine_local_maxima(counting, xs, fs, tol=1e-10)
        end = int(np.argmax(fs))
        assert end in (0, xs.size - 1)
        assert (x_best, f_best) == (xs[end], fs[end])
        # one call of one point, tol inside the end: no zoom
        assert len(calls) == 1
        assert calls[0].tolist() == [
            xs[0] + 1e-10 if end == 0 else xs[-1] - 1e-10]

    def test_flat_run_costs_one_probe(self):
        f, calls = self.counting(lambda x: np.full_like(x, 2.0))
        xs = np.linspace(0.0, 1.0, 11)
        fs = np.full_like(xs, 2.0)
        assert refine_local_maxima(f, xs, fs) == (1.0, 2.0)
        assert [c.size for c in calls] == [1]

    @pytest.mark.parametrize("peak", [0.97, 0.03])
    def test_peak_inside_end_cell_still_found(self, peak):
        # the grid maximum sits at the end, the true one a cell inside it
        f = lambda x: -(x - peak) ** 2
        xs = np.linspace(0.0, 1.0, 11)
        fs = f(xs)
        assert int(np.argmax(fs)) in (0, xs.size - 1)
        x_best, f_best = refine_local_maxima(f, xs, fs)
        assert abs(x_best - peak) < 1e-7
        assert f_best > fs.max()

    @pytest.mark.parametrize("n", [11, 40, 201])
    def test_brackets_together_same_bits_as_alone(self, n):
        # every grid maximum of the scan (at n = 11 and 40 also the left
        # end, where the curve rises inward) refined in one lockstep call
        # per pass and as a scan of its own bracket: the same points, so
        # the same bits
        f = lambda x: np.sin(7.3 * x) * np.exp(0.4 * x) - 0.1 * x
        xs = np.linspace(0.2, 3.0, n)
        fs = f(xs)
        idx = np.flatnonzero(grid_local_maxima(fs))
        assert idx.size >= 3
        together, calls = self.counting(f)
        best = refine_local_maxima(together, xs, fs, tol=1e-12)
        alone_best, alone_points = (xs[0], -math.inf), []
        for i in idx:
            cell = slice(max(i - 1, 0), i + 2)
            g, alone_calls = self.counting(f)
            x, fx = refine_local_maxima(g, xs[cell], fs[cell], tol=1e-12)
            assert g(np.array([x]))[0] == fx
            if fx > alone_best[1]:
                alone_best = (x, fx)
            alone_points += alone_calls[:-1]
        assert best == alone_best
        assert np.array_equal(np.sort(np.concatenate(calls)),
                              np.sort(np.concatenate(alone_points)))

    def test_stops_when_rounding_stops_the_zoom(self):
        # with tol = 0 the brackets stop shrinking once their samples are
        # a few ulps apart; each closes there instead of looping
        f, calls = self.counting(self.lobes)
        xs = np.linspace(0.0, 1.0, 41)
        x_best, f_best = refine_local_maxima(f, xs, self.lobes(xs), tol=0.0)
        assert len(calls) < 40
        assert self.lobes(np.array([x_best]))[0] == f_best

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
    def test_pass_count_bound(self, tol):
        # at most ceil(log(W/tol) / log(17/2)) passes for a bracket of width
        # W, plus the first pass that holds the end-of-scan probes
        f, calls = self.counting(self.lobes)
        xs = np.linspace(0.0, 1.0, 41)
        fs = self.lobes(xs)
        refine_local_maxima(f, xs, fs, tol=tol)
        width = max((xs[2:] - xs[:-2]).max(), xs[1] - xs[0], xs[-1] - xs[-2])
        bound = math.ceil(math.log(width / tol) / math.log(17.0 / 2.0)) + 1
        assert 0 < len(calls) <= bound
        assert all(c.size % 16 in (0, 1) for c in calls)

    @settings(max_examples=300)
    @given(case=st.data(), tol=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]))
    def test_same_bits_and_calls_as_array_form(self, case, tol):
        # the plain-record zoom against its earlier array form: the same
        # (x, f) bits and the same arrays passed to f, pass by pass
        draw = case.draw
        n = draw(st.integers(2, 200), label="points")
        a = draw(st.floats(-10.0, 10.0), label="start")
        span = 10.0 ** draw(st.floats(-6.0, 2.0), label="log10 span")
        if draw(st.booleans(), label="uniform"):
            xs = np.linspace(a, a + span, n)
        else:
            gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1,
                                 max_size=n - 1), label="gaps")
            xs = a + span * np.concatenate([[0.0], np.cumsum(gaps)]) / sum(gaps)
            assume(np.all(np.diff(xs) > 0.0))
        # lobes narrow and wide, centred up to a tenth of the span past
        # either end, and a slope that can put the maximum at an end
        lobes = draw(st.lists(st.tuples(
            st.floats(-0.1, 1.1), st.floats(-4.0, 0.0), st.floats(-1.0, 2.0)),
            min_size=0, max_size=4), label="lobes (place, log10 width, height)")
        slope = draw(st.floats(-2.0, 2.0), label="slope")
        digits = draw(st.sampled_from([None, 1, 3, 8, 14]), label="rounding")
        nan_band = draw(st.none() | st.tuples(st.floats(0.0, 1.0),
                                              st.floats(0.0, 0.3)),
                        label="NaN band (place, width)")

        def f(x):
            u = (np.asarray(x, dtype=float) - a) / span
            y = slope * u
            for c, log_w, h in lobes:
                y = y + h / (1.0 + ((u - c) / 10.0 ** log_w) ** 2)
            if digits is not None:  # plateaus and ties
                y = np.round(y, digits)
            if nan_band is not None:
                y = np.where(np.abs(u - nan_band[0]) <= nan_band[1], np.nan, y)
            return y

        fs = f(xs)
        new, new_calls = self.counting(f)
        old, old_calls = self.counting(f)
        got = refine_local_maxima(new, xs, fs, tol=tol)
        want = oc.refine_local_maxima_arrays(old, xs, fs, tol=tol)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert len(new_calls) == len(old_calls)
        for c_new, c_old in zip(new_calls, old_calls):
            assert c_new.dtype == c_old.dtype == np.float64
            assert c_new.tobytes() == c_old.tobytes()
