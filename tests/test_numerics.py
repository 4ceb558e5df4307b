"""Unit tests for the scalar numeric helpers."""

import math

import mpmath as mp
import numpy as np
import pytest

from wavegain._numerics import (
    adaptive_simpson,
    composite_simpson,
    golden_max,
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
    def test_finds_global_maximum_of_multilobe_function(self):
        f = lambda x: math.sin(5.0 * math.pi * x) ** 2 * math.exp(-x)
        xs = np.linspace(0.0, 1.0, 201)
        fs = np.array([f(x) for x in xs])
        x_best, f_best = refine_local_maxima(f, xs, fs, tol=1e-12)
        # stationarity: 10 pi cot(5 pi x) = 1 on the first lobe
        x_true = math.atan(10.0 * math.pi) / (5.0 * math.pi)
        assert abs(x_best - x_true) < 1e-7
        assert f_best == pytest.approx(f(x_true), rel=1e-12)
        assert f_best >= fs.max()

    def test_plateau_refines_once_not_everywhere(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0

        xs = np.linspace(0.0, 1.0, 101)
        fs = np.ones_like(xs)
        _, f_best = refine_local_maxima(f, xs, fs, tol=1e-10)
        assert f_best == 1.0
        # one golden refinement window, not one per grid point
        assert len(calls) < 120

    def test_boundary_maximum_refined(self):
        f = lambda x: x * x
        xs = np.linspace(0.0, 1.0, 11)
        fs = xs**2
        x_best, f_best = refine_local_maxima(f, xs, fs)
        assert f_best == pytest.approx(1.0, abs=1e-10)
        assert x_best == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("f", [lambda x: x, lambda x: -x,
                                   lambda x: math.exp(-3.0 * x)],
                             ids=["rising", "falling", "decaying"])
    def test_monotone_end_maximum_costs_one_probe(self, f):
        calls = []

        def counting(x):
            calls.append(x)
            return f(x)

        xs = np.linspace(0.0, 1.0, 11)
        fs = np.array([f(x) for x in xs])
        x_best, f_best = refine_local_maxima(counting, xs, fs, tol=1e-10)
        end = int(np.argmax(fs))
        assert end in (0, xs.size - 1)
        assert (x_best, f_best) == (xs[end], fs[end])
        # one probe tol inside the end, no golden search
        assert calls == [xs[0] + 1e-10 if end == 0 else xs[-1] - 1e-10]

    def test_flat_run_costs_one_probe(self):
        calls = []

        def f(x):
            calls.append(x)
            return 2.0

        xs = np.linspace(0.0, 1.0, 11)
        fs = np.full_like(xs, 2.0)
        assert refine_local_maxima(f, xs, fs) == (1.0, 2.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("peak", [0.97, 0.03])
    def test_peak_inside_end_cell_still_found(self, peak):
        # the grid maximum sits at the end, the true one a cell inside it
        f = lambda x: -(x - peak) ** 2
        xs = np.linspace(0.0, 1.0, 11)
        fs = np.array([f(x) for x in xs])
        assert int(np.argmax(fs)) in (0, xs.size - 1)
        x_best, f_best = refine_local_maxima(f, xs, fs)
        assert abs(x_best - peak) < 1e-7
        assert f_best > fs.max()
