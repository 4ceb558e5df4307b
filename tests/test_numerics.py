"""Unit tests for the scalar numeric helpers."""

import math

import mpmath as mp
import numpy as np
import pytest

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

    def test_fourth_order_convergence(self):
        def err(n):
            xs = np.linspace(0.0, 1.0, n + 1)
            return abs(composite_simpson(np.exp(xs), 1.0 / n) - (math.e - 1.0))

        assert err(64) < err(16) / 200  # ~(1/4)^4 = 1/256 with slack


class TestAdaptiveSimpson:
    def test_smooth_integrands(self):
        assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(
            math.e - 1.0, rel=1e-13)
        assert adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0) == \
            pytest.approx(math.pi / 4.0, rel=1e-13)

    def test_oscillatory_integrand(self):
        val = adaptive_simpson(lambda x: math.sin(20.0 * x), 0.0, math.pi,
                               tol=1e-13)
        expect = (1.0 - math.cos(20.0 * math.pi)) / 20.0
        assert val == pytest.approx(expect, abs=1e-12)

    def test_degenerate_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


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
