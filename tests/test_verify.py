"""Self-check harness: suite selection, determinism, defect detection."""

import io
import math

import pytest

from wavegain import cli
from wavegain import freq_response as fr
from wavegain import modal as mo
from wavegain import verify
from wavegain.verify import SUITE_NAMES, run_suites

import importlib

gb = importlib.import_module("wavegain.gain_bounds")


class TestRunSuites:
    def test_quick_all_pass(self):
        results = run_suites(seed=0, quick=True)
        assert [r.name for r in results] == list(SUITE_NAMES)
        assert all(r.passed for r in results)
        for r in results:
            assert r.worst >= 0.0
            assert r.worst <= r.tolerance

    def test_name_filter(self):
        results = run_suites(names=["orderings"], seed=0, quick=True)
        assert len(results) == 1
        assert results[0].name == "orderings"
        assert results[0].passed

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(names=["nosuch"], seed=0, quick=True)

    def test_same_seed_same_worst(self):
        a = run_suites(names=["ode-residual"], seed=42, quick=True)
        b = run_suites(names=["ode-residual"], seed=42, quick=True)
        assert a[0].worst == b[0].worst

    def test_different_seed_different_draws(self):
        a = run_suites(names=["ode-residual"], seed=1, quick=True)
        b = run_suites(names=["ode-residual"], seed=2, quick=True)
        # same tolerance, almost surely different worst-case residual
        assert a[0].worst != b[0].worst


class TestDefectDetection:
    """Corrupt one internal routine and confirm the harness notices."""

    def test_corrupted_amplification_caught(self, monkeypatch):
        real = gb._amplification_array

        def warped(params, ns):
            return 2.0 - real(params, ns)

        monkeypatch.setattr(gb, "_amplification_array", warped)
        buf = io.StringIO()
        assert cli.cmd_verify(seed=0, quick=True, stream=buf) == 1
        (line,) = [l for l in buf.getvalue().splitlines()
                   if l.split()[1:2] == ["kernel-l1"]]
        # the corrupted A_n reached the check: a finite gap, not a raise
        fields = line.split()
        assert fields[0] == "FAIL" and fields[2] == "worst"
        worst = float(fields[3])
        tol = float(fields[5].rstrip(","))
        assert math.isfinite(worst) and worst > tol

    def test_corrupted_kernel_caught(self, monkeypatch):
        # the quadrature side of kernel-l1: K off by 1e-5 relative, ten
        # times the suite's tolerance
        real = mo._kernel

        def scaled(params, n):
            K, rate, zeros = real(params, n)
            return (lambda tau: K(tau) * (1.0 + 1e-5)), rate, zeros

        monkeypatch.setattr(mo, "_kernel", scaled)
        (result,) = run_suites(names=["kernel-l1"], seed=0, quick=True)
        assert not result.passed
        assert math.isfinite(result.worst) and result.worst > result.tolerance

    def test_corrupted_profile_caught(self, monkeypatch):
        real = fr.profile_at

        def flipped(point, x):
            h, g = real(point, x)
            return h, -g

        monkeypatch.setattr(fr, "profile_at", flipped)
        buf = io.StringIO()
        assert cli.cmd_verify(seed=0, quick=True, stream=buf) == 1
        assert "FAIL" in buf.getvalue()

    def test_corrupted_l2_statistics_caught(self, monkeypatch):
        real = fr._l2_quantities

        def skewed(params, w):
            p, q1, q2, M = real(params, w)
            return p, q1, q2 * (1.0 + 1e-6), M

        monkeypatch.setattr(fr, "_l2_quantities", skewed)
        (result,) = run_suites(names=["l2-stats-identity"], seed=0, quick=True)
        assert not result.passed
        assert result.worst > result.tolerance

    def test_intact_library_passes(self):
        buf = io.StringIO()
        assert cli.cmd_verify(seed=3, quick=True, stream=buf) == 0
        assert "all suites passed" in buf.getvalue()


class TestSuiteResult:
    def test_fields(self):
        r = run_suites(names=["corollaries"], seed=0, quick=True)[0]
        assert isinstance(r, verify.SuiteResult)
        assert isinstance(r.detail, str) and r.detail
        assert r.tolerance > 0.0
