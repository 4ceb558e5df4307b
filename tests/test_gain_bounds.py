"""Upper/lower bounds layer: closed-form bounds, mode sums, spike searches.

Pinned values were cross-validated against the literal-formula and
quadrature routes in oracles.py; mode amplification constants additionally
against 25-digit quadrature of the forcing kernels.
"""

import importlib
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles as oc
from wavegain._numerics import grid_local_maxima, refine_local_maxima
from wavegain.freq_response import DampingParams, l2_stats_at, sup_gain_at
from wavegain.gain_bounds import (
    ZETA2,
    InternalConsistencyError,
    SupUpperBoundProblem,
    U2Value,
    _amplification_array,
    _tail_conditions,
    _tail_convex_from,
    gain_bounds,
    lower_l2,
    lower_sup,
    mode_constants,
    upper_l2,
    upper_sup,
)

INV_SQRT3 = 1.0 / math.sqrt(3.0)


class TestSupUpperBound:
    def test_pinned_values(self):
        assert upper_sup(DampingParams(1.0, 0.0)) == pytest.approx(
            1.637476348040803, rel=1e-12)
        assert upper_sup(DampingParams(1.0, 2.0)) == pytest.approx(
            1.3433944822680444, rel=1e-12)

    def test_exactly_one_at_unit_damping_product(self):
        assert upper_sup(DampingParams(1.0, 1.0)) == 1.0
        assert upper_sup(DampingParams(2.0, 0.5)) == 1.0

    def test_unit_damping_product_where_sigma_squared_underflows(self):
        # mu sigma = 1 exactly, sigma^2 = 2^-1200 underflows to 0: the regime
        # is still feasible, with s = 0, so the bound and the flag match the
        # ordinary pair (0.5, 2)
        tiny = DampingParams(2.0 ** -600, 2.0 ** 600)
        assert tiny.sigma ** 2 == 0.0
        assert SupUpperBoundProblem.from_params(tiny).s == 0.0
        assert upper_sup(tiny) == upper_sup(DampingParams(0.5, 2.0)) == 1.0
        b = gain_bounds(tiny)
        assert not b.L_inf_conditional
        assert b.U_inf == 1.0

    def test_undefined_when_damping_too_weak(self):
        # needs 2 < 2 mu sigma + sigma^2 pi^2
        assert upper_sup(DampingParams(0.1, 0.0)) is None
        assert upper_sup(DampingParams(0.4, 0.1)) is None

    def test_feasibility_threshold(self):
        s_star = math.sqrt(2.0) / math.pi  # boundary at mu = 0
        assert upper_sup(DampingParams(s_star * 1.001, 0.0)) is not None
        assert upper_sup(DampingParams(s_star * 0.999, 0.0)) is None

    def test_always_at_least_one(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            sigma = 10.0 ** rng.uniform(-0.5, 0.7)
            mu = rng.uniform(0.0, 4.0)
            val = upper_sup(DampingParams(sigma, mu))
            if val is not None:
                assert val >= 1.0

    @pytest.mark.parametrize("sigma, mu", [(1e-9, 1e300), (1e-300, 2e300)])
    def test_past_the_float_range_is_refused(self, sigma, mu):
        # s = (mu sigma - 1)/sigma^2 overflows, or sigma^2 underflows to 0
        with pytest.raises(ValueError, match="U_inf is past the float range"):
            upper_sup(DampingParams(sigma, mu))

    def test_objective_matches_brute_minimum(self):
        # the bound is the minimum of the objective over the open interval
        prob = SupUpperBoundProblem.from_params(DampingParams(1.0, 0.0))
        thetas = np.linspace(1e-9, prob.theta_max - 1e-9, 300001)
        brute = float(np.min(prob.objective(thetas)))
        val = upper_sup(DampingParams(1.0, 0.0))
        assert val <= brute + 1e-12
        assert val == pytest.approx(brute, rel=1e-8)


class TestModeConstants:
    PINS = [
        # sigma, mu, n, A_n (25-digit kernel quadrature agreement)
        (1.0, 0.0, 1, 1.1407841667071617),
        (1.0, 0.0, 2, 1.0437750283632972),
        (1.0, 0.0, 3, 1.0207613121911068),
        (0.5, 0.0, 1, 1.3746003872628751),
        (0.5, 0.0, 2, 1.1407841667071617),
        (0.05, 0.1, 1, 6.831409814602937),
        (0.05, 0.1, 2, 4.0410618500015225),
        (0.05, 0.1, 3, 2.9009979038804863),
        (0.05, 0.1, 13, 1.2614981705889237),
        (0.05, 7.0, 1, 1.0),
    ]

    def test_pinned_amplifications(self):
        for sigma, mu, n, expect in self.PINS:
            got = mode_constants(DampingParams(sigma, mu), n).A_n
            assert got == pytest.approx(expect, rel=1e-12), (sigma, mu, n)

    def test_rescaling_relation(self):
        # halving sigma at mu=0 shifts the mode index: A_2(s/2) = A_1(s)
        a1 = mode_constants(DampingParams(1.0, 0.0), 1).A_n
        a2 = mode_constants(DampingParams(0.5, 0.0), 2).A_n
        assert a1 == pytest.approx(a2, rel=1e-14)

    def test_matches_literal_formulas(self):
        # the literal route cancels in sigma*(k-r)-1 at large n, costing it
        # ~7 digits there; 1e-9 on the value leaves wide margin for that
        for sigma, mu in [(1.0, 0.0), (0.5, 0.3), (0.05, 0.1), (2.0, 0.2)]:
            p = DampingParams(sigma, mu)
            for n in range(1, 201):
                got = mode_constants(p, n).A_n
                lit = oc.amplification_literal(sigma, mu, n)
                assert got == pytest.approx(lit, rel=1e-9), (sigma, mu, n)

    def test_matches_mpmath_to_large_index(self):
        # every regime, up to n = 1e6 where the overdamped ratio Q/P is
        # ~1e-26 and Q = sigma(k-r) - 1 would cancel in floating point
        ns = np.unique(np.round(np.geomspace(1, 1e6, 60)))
        for sigma, mu in [(1.0, 0.0), (0.05, 0.1), (0.3, 1.2), (2.0, 0.2),
                          (0.02, 20.0), (0.15, 2.0), (10.0, 0.05)]:
            got = _amplification_array(DampingParams(sigma, mu), ns)
            for n, a in zip(ns, got):
                ref = oc.amplification_mp(sigma, mu, int(n))
                assert abs(a - ref) <= 1e-13 * ref, (sigma, mu, n)

    def test_unit_when_damping_product_large(self):
        for n in (1, 2, 50):
            assert mode_constants(DampingParams(1.0, 1.0), n).A_n == 1.0
            assert mode_constants(DampingParams(0.5, 4.0), n).A_n == 1.0

    def test_regime_labels(self):
        p = DampingParams(0.05, 0.1)
        regimes = [mode_constants(p, n).regime for n in range(1, 16)]
        assert regimes[0] == "underdamped"
        assert regimes[-1] == "overdamped"
        assert "underdamped" not in regimes[regimes.index("overdamped"):]

    def test_critical_point_values(self):
        # exact double roots constructed from w = sqrt(1 - mu sigma):
        # sigma = (1 +/- w)/pi, mu = pi (1 -/+ w) make mode 1 critical
        for w, expect in [(0.3, 1.0078742372421645),
                          (0.6, 1.0833801414673618),
                          (0.9, 1.2179859983061936)]:
            plus = mode_constants(
                DampingParams((1.0 + w) / math.pi, math.pi * (1.0 - w)), 1)
            minus = mode_constants(
                DampingParams((1.0 - w) / math.pi, math.pi * (1.0 + w)), 1)
            assert plus.regime == "critical"
            assert minus.regime == "critical"
            assert plus.A_n == pytest.approx(expect, rel=1e-12)
            assert plus.A_n == pytest.approx(
                1.0 + 2.0 * w * math.exp(-1.0 - 1.0 / w), rel=1e-12)
            assert minus.A_n == 1.0

    def test_continuous_across_criticality(self):
        # approach the double root from both regimes; A must limit onto the
        # critical value
        w = 0.6
        sigma = (1.0 + w) / math.pi
        mu_star = math.pi * (1.0 - w)
        at = mode_constants(DampingParams(sigma, mu_star), 1).A_n
        for eps in (1e-5, 1e-7):
            above = mode_constants(DampingParams(sigma, mu_star + eps), 1).A_n
            below = mode_constants(DampingParams(sigma, mu_star - eps), 1).A_n
            assert above == pytest.approx(at, rel=50.0 * eps)
            assert below == pytest.approx(at, rel=50.0 * eps)

    def test_beta_only_for_overdamped(self):
        p = DampingParams(0.05, 0.1)
        under = mode_constants(p, 1)
        over = mode_constants(p, 15)
        assert under.beta_n is None and under.omega_n is not None
        assert over.beta_n is not None and over.omega_n is None

    def test_index_validation(self):
        for n in (0, 2.5):
            with pytest.raises(ValueError):
                mode_constants(DampingParams(1.0, 0.0), n)


class TestUpperL2:
    def test_exact_branch(self):
        u = upper_l2(DampingParams(1.0, 1.0))
        assert float(u) == INV_SQRT3  # bit-exact
        assert u.terms == 0
        assert u.truncation_error_bound == 0.0
        u = upper_l2(DampingParams(3.0, 0.5))
        assert float(u) == INV_SQRT3

    def test_pinned_values(self):
        pins = [
            (1.0, 0.0, 0.6328323664185126),
            (0.5, 0.0, 0.7310733996569149),
            (0.05, 0.1, 3.262486403934807),
            (2.0, 0.2, 0.5872476214472299),
        ]
        for sigma, mu, expect in pins:
            u = upper_l2(DampingParams(sigma, mu))
            assert float(u) == pytest.approx(expect, rel=1e-7), (sigma, mu)
            assert u.truncation_error_bound < 1e-12 * float(u)
            assert u.terms > 0

    def test_truncation_bound_covers_longer_sum(self):
        # 20x the modes the plain partial sum used to take (14,866 and
        # 109,531), plus that sum's proven remainder: past L > 2/(pi sigma)
        # modes the envelope leaves at most 16 w^2 (1 + w^2) /
        # (3 (pi sigma)^2 L^3) of D. The printed value must lie within the
        # recorded bound of the result.
        for sigma, mu, old_terms in [(1.0, 0.0, 14866), (0.05, 0.1, 109531)]:
            p = DampingParams(sigma, mu)
            u = upper_l2(p)
            last = 20 * old_terms
            excess = 0.0
            for start in range(1, last + 1, 1 << 18):
                ns = np.arange(start, min(start + (1 << 18), last + 1),
                               dtype=float)
                a = _amplification_array(p, ns)
                excess += float(((a * a - 1.0) / (ns * ns)).sum())
            w2 = 1.0 - mu * sigma
            rest = (16.0 * w2 * (1.0 + w2)
                    / (3.0 * (math.pi * sigma) ** 2 * last ** 3))
            longer = math.sqrt(1.0 + (excess + rest) / ZETA2) * INV_SQRT3
            assert abs(float(u) - longer) <= u.truncation_error_bound, sigma

    @pytest.mark.parametrize("damping_product", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("sigma", [1.0, 0.05, 1e-2, 1e-3])
    def test_bracket_holds_the_whole_series(self, sigma, damping_product):
        ref = oc.u2_series_mp(sigma, damping_product / sigma)
        u = upper_l2(DampingParams(sigma, damping_product / sigma))
        value, width = mp.mpf(float(u)), u.truncation_error_bound
        assert value >= ref  # the tail enters at its upper end
        assert value - width <= ref
        assert value - ref <= width + 1e-15 * ref

    def test_tiny_sigma_completes(self):
        # 149M terms under the plain partial sum
        u = upper_l2(DampingParams(1e-6, 0.0))
        assert u.terms <= 1_000_000
        assert u.truncation_error_bound <= 1e-13 * u

    @pytest.mark.parametrize("sigma", [2e-9, 1e-300, 5e-324])
    def test_term_budget_refuses_tiny_sigma_at_once(self, sigma):
        # 2/(pi sigma) explicit terms exceed 2^28 below sigma ~ 2.37e-9:
        # ValueError naming sigma before any is summed
        t0 = time.perf_counter()
        with pytest.raises(ValueError,
                           match=f"sigma={sigma!r} is too small"):
            upper_l2(DampingParams(sigma, 0.0))
        assert time.perf_counter() - t0 < 1.0
        # where mu*sigma >= 1 no term is summed, whatever sigma (no float
        # mu reaches mu*sigma >= 1 at sigma = 5e-324)
        if math.isfinite(2.0 / sigma):
            u = upper_l2(DampingParams(sigma, 2.0 / sigma))
            assert float(u) == INV_SQRT3 and u.terms == 0

    @pytest.mark.parametrize("w", [1.0, 0.5, 0.1, 1e-2, 1e-4, 1e-8])
    def test_tail_convex_past_its_proven_start(self, w):
        # spot-checks the docstring's proof: past u_c = _tail_convex_from(w)
        # both of its conditions hold, and g(n) = (A_n^2 - 1)/n^2 has a
        # positive second derivative at 30 digits (pi sigma = 1, so n = u)
        sigma = 1.0 / math.pi
        mu = (1.0 - w * w) / sigma
        w = math.sqrt(1.0 - mu * sigma)
        u_c = _tail_convex_from(w)

        def g(x):
            a = oc.amplification_mp(sigma, mu, x, dps=mp.mp.dps + 20)
            return (a * a - 1) / (x * x)

        for u in [u_c * (1.0 + 0.02 * k) for k in range(40)] + [
                4 * u_c, 30 * u_c, 1e3 * u_c]:
            theta = math.acosh((u * u - 1.0 - w * w) / (2.0 * w))
            assert _tail_conditions(w, theta), u
            with mp.workdps(30):
                assert mp.diff(g, mp.mpf(u), 2) > 0, u

    @given(log_sigma=st.floats(-4.0, 1.0),
           damping_product=st.floats(0.0, 1.0, exclude_max=True))
    def test_bound_holds_over_parameter_range(self, log_sigma, damping_product):
        sigma = 10.0 ** log_sigma
        u = upper_l2(DampingParams(sigma, damping_product / sigma))
        assert math.isfinite(u) and u >= INV_SQRT3
        assert u.truncation_error_bound <= 1e-13 * u
        # the explicit sum stops within 10,000 modes of n0 = 2/(pi sigma)
        assert u.terms <= math.ceil(2.0 / (math.pi * sigma)) + 10_000

    def test_within_literal_series_interval(self):
        for sigma, mu in [(1.0, 0.0), (0.05, 0.1)]:
            lo, hi = oc.u2_interval_literal(sigma, mu, 20000)
            u = float(upper_l2(DampingParams(sigma, mu)))
            assert lo - 1e-9 <= u <= hi + 1e-9

    def test_value_type(self):
        u = upper_l2(DampingParams(1.0, 0.0))
        assert isinstance(u, U2Value) and isinstance(u, float)
        assert u + 0.0 == float(u)
        assert u >= INV_SQRT3

    def test_never_below_limit(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sigma = 10.0 ** rng.uniform(-1, 0.5)
            mu = rng.uniform(0.0, 3.0)
            assert float(upper_l2(DampingParams(sigma, mu))) >= INV_SQRT3


class TestLowerBounds:
    def test_sup_limit_case(self):
        r = lower_sup(DampingParams(1.0, 1.0))
        assert r.value == 1.0
        assert r.argmax_omega == 0.0  # attained in the low-frequency limit
        assert r.conditional is False

    def test_sup_flat_for_moderate_kelvin_voigt(self):
        r = lower_sup(DampingParams(1.0, 0.0))
        assert r.value == 1.0
        assert r.conditional is False

    def test_conditional_flag_tracks_feasibility(self):
        assert lower_sup(DampingParams(0.1, 0.0)).conditional is True
        assert lower_sup(DampingParams(1.0, 0.0)).conditional is False

    def test_l2_limit_case(self):
        r = lower_l2(DampingParams(1.0, 1.0))
        assert r.value == INV_SQRT3
        assert r.argmax_omega == 0.0

    def test_l2_pinned_searches(self):
        pins = [
            (1.0, 0.0, 0.6037758578063537, 1.7829149032891816),
            (0.5, 0.0, 0.6606236567364113, 2.274046231283103),
            (0.5, 1.0, 0.5957436670200976, 1.6389518418968636),
            (1.0, 0.5, 0.5870333914832859, 1.4073092208612343),
        ]
        for sigma, mu, value, omega in pins:
            r = lower_l2(DampingParams(sigma, mu))
            assert r.value == pytest.approx(value, rel=1e-6), (sigma, mu)
            assert r.argmax_omega == pytest.approx(omega, abs=0.01)

    def test_resonance_spikes_small_kelvin_voigt(self):
        # near-undamped string: huge narrow spike at the first resonance
        p = DampingParams(1e-4, 0.0)
        r = lower_sup(p)
        assert r.value == pytest.approx(2026.4237272855153, rel=1e-6)
        assert r.argmax_omega == pytest.approx(math.pi, abs=1e-3)
        r2 = lower_l2(p)
        assert r2.value == pytest.approx(1432.8980090141888, rel=1e-6)
        # peak profile is a half sine there, so the two norms differ by sqrt2
        assert r.value / r2.value == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_flat_curve_stops_after_five_windows(self, monkeypatch):
        # at sigma = 1, mu = 0 the sup gain stays at its omega -> 0 limit 1:
        # the base grid, then five windows that do not raise the best
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return refine_local_maxima(*args, **kwargs)

        module = importlib.import_module("wavegain.gain_bounds")
        monkeypatch.setattr(module, "refine_local_maxima", counting)
        assert lower_sup(DampingParams(1.0, 0.0))[:2] == (1.0, 0.0)
        assert len(calls) <= 1 + 5

    def test_infinite_search_range_is_refused(self):
        # 4/sigma overflows; gain_bounds refuses such sigma earlier, by the
        # U_2 term budget, so only the searches called directly reach this
        for search in (lower_sup, lower_l2):
            with pytest.raises(ValueError, match="search range"):
                search(DampingParams(5e-324, 0.0))

    def test_resolved_omega_max(self, monkeypatch):
        # the first scan is the log base grid of 256 points over
        # [1e-3, omega_max], omega_max resolved to max(20 pi, 4/sigma)
        scans = []

        def recording(f, xs, fs, tol):
            scans.append(np.array(xs))
            return refine_local_maxima(f, xs, fs, tol=tol)

        module = importlib.import_module("wavegain.gain_bounds")
        monkeypatch.setattr(module, "refine_local_maxima", recording)
        for sigma, omega_max in [(1.0, 20.0 * math.pi), (0.01, 4.0 / 0.01)]:
            scans.clear()
            lower_sup(DampingParams(sigma, 1.0))
            base = scans[0]
            assert len(base) == 256
            assert base[0] == pytest.approx(1e-3, rel=1e-12)
            assert base[-1] == pytest.approx(omega_max, rel=1e-12)
            assert np.diff(np.log(base)) == pytest.approx(
                math.log(omega_max / 1e-3) / 255, rel=1e-9)


class TestGainBoundsAggregate:
    def test_orderings_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sigma = 10.0 ** rng.uniform(-0.7, 0.5)
            mu = rng.uniform(0.0, 4.0)
            b = gain_bounds(DampingParams(sigma, mu))
            assert b.L_2 <= float(b.U_2) + 1e-9
            assert b.L_2 <= b.L_inf + 1e-9
            if b.U_inf is not None:
                assert b.L_inf <= b.U_inf + 1e-9
            assert b.L_2 >= INV_SQRT3 - 1e-6
            assert b.L_inf >= 1.0 - 1e-9

    def test_fields_consistent_with_components(self):
        p = DampingParams(1.0, 0.0)
        b = gain_bounds(p)
        assert b.U_inf == upper_sup(p)
        assert float(b.U_2) == float(upper_l2(p))
        assert b.L_inf == lower_sup(p).value
        assert b.L_2 == lower_l2(p).value
        assert b.params == p

    def test_undefined_upper_sup_propagates(self):
        b = gain_bounds(DampingParams(0.1, 0.0))
        assert b.U_inf is None
        assert b.L_inf_conditional is True
        assert b.L_inf > 2.0  # strong resonance once sigma is this small

    def test_consistency_error_type(self):
        assert issubclass(InternalConsistencyError, AssertionError)


class TestEndpointRefinement:
    """The spike search keeps an end-of-scan maximum after one inward probe
    when the curve does not rise there, instead of zooming on its cell."""

    # acceptance-grid pairs whose L2 curves peak inside the left-end cell of
    # the first window [pi - 0.5, pi + 0.5]
    END_CELL_PEAKS = [(0.17561698705841688, 0.631578947368421),
                      (0.24072270107570087, 0.21052631578947367),
                      (0.28183330319652344, 0.0)]
    DEFAULT_PAIRS = [(1.0, 0.0), (0.05, 0.1), (0.3, 5.0), (0.02, 0.0)]

    def test_same_bounds_as_refining_every_maximum(self, monkeypatch):
        # against golden section on every maximum, ends included: never
        # lower beyond rounding, and each value is the curve at its argmax
        cases = self.END_CELL_PEAKS + self.DEFAULT_PAIRS
        fast = [(lower_sup(DampingParams(*p)), lower_l2(DampingParams(*p)))
                for p in cases]
        module = importlib.import_module("wavegain.gain_bounds")
        monkeypatch.setattr(module, "refine_local_maxima",
                            oc.refine_every_maximum)
        for p, (sup, l2) in zip(cases, fast):
            params = DampingParams(*p)
            for got, oracle, curve, limit in [
                    (sup, lower_sup(params), sup_gain_at, 1.0),
                    (l2, lower_l2(params),
                     lambda q, w: l2_stats_at(q, w).Q, INV_SQRT3)]:
                assert got.value >= oracle.value * (1.0 - 2e-15), p
                at = (curve(params, got.argmax_omega) if got.argmax_omega
                      else limit)
                assert at == got.value, p

    @pytest.mark.parametrize("sigma, mu", [(1.0, 1.0), (0.3, 5.0)])
    def test_few_one_frequency_evaluations(self, monkeypatch, sigma, mu):
        # scans pass whole grids; every call made inside the refinement is
        # one zoom pass (end-of-scan probes are calls of one frequency)
        module = importlib.import_module("wavegain.gain_bounds")
        sizes = []

        def counting(f, xs, fs, tol):
            def g(x):
                sizes.append(np.size(x))
                return f(x)
            return refine_local_maxima(g, xs, fs, tol=tol)

        monkeypatch.setattr(module, "refine_local_maxima", counting)
        for bound in (lower_sup, lower_l2):
            sizes.clear()
            bound(DampingParams(sigma, mu))
            assert 0 < len(sizes) <= 10, bound.__name__
            assert set(sizes) == {1}, bound.__name__  # flat curves: probes


class TestBatchedRefinement:
    """refine_local_maxima zooms on every bracket of a scan in one call of
    16 points per bracket and pass."""

    @staticmethod
    def counted(monkeypatch):
        """Count the evaluate calls the spike search makes, scans included."""
        module = importlib.import_module("wavegain.gain_bounds")
        calls = []

        def wrap(func):
            def wrapper(params, w):
                calls.append(np.size(w))
                return func(params, w)
            return wrapper

        monkeypatch.setattr(module, "sup_gain_at", wrap(module.sup_gain_at))
        monkeypatch.setattr(module, "l2_stats_at", wrap(module.l2_stats_at))
        return calls

    @pytest.mark.parametrize("bound, sigma", [(lower_l2, 1e6),
                                              (lower_sup, 1e-3)])
    def test_evaluate_call_budget(self, monkeypatch, bound, sigma):
        # lower_l2(1e6, 0) sits on rounding noise with about 600 grid maxima;
        # lower_sup(1e-3, 0) zooms on sharp resonance peaks
        calls = self.counted(monkeypatch)
        bound(DampingParams(sigma, 0.0))
        assert 0 < len(calls) <= 60

    @pytest.mark.parametrize("bound, sigma, mu", [(lower_l2, 1e6, 0.0),
                                                  (lower_sup, 0.05, 0.1),
                                                  (lower_l2, 0.02, 0.0)])
    def test_scan_brackets_together_same_bits_as_alone(
            self, monkeypatch, bound, sigma, mu):
        # each scan of the search refined as it is, and bracket by bracket
        # as a scan of its own cell: the same best, bit for bit
        module = importlib.import_module("wavegain.gain_bounds")
        scans = []

        def recording(f, xs, fs, tol):
            out = refine_local_maxima(f, xs, fs, tol=tol)
            scans.append((f, xs, fs, tol, out))
            return out

        monkeypatch.setattr(module, "refine_local_maxima", recording)
        bound(DampingParams(sigma, mu))
        assert max(np.count_nonzero(grid_local_maxima(fs))
                   for _, _, fs, _, _ in scans) >= 2
        for f, xs, fs, tol, together in scans[:3]:
            best = (float(xs[0]), -math.inf)
            for i in np.flatnonzero(grid_local_maxima(fs)):
                cell = slice(max(i - 1, 0), i + 2)
                x, fx = refine_local_maxima(f, xs[cell], fs[cell], tol=tol)
                if fx > best[1]:
                    best = (x, fx)
            assert together == best
