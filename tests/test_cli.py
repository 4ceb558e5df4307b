"""Command-line surface: parsing, config precedence, CSV/JSON formats."""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from wavegain import cli
from wavegain.freq_response import DampingParams, l2_stats_at, sup_gain_at
from wavegain.gain_bounds import InternalConsistencyError
from wavegain.modal import DisturbanceSpec


def run_main(*argv):
    return cli.main(list(argv))


def limit_memory():
    """preexec_fn: a 2 GiB address-space limit, so that a regression fails
    the test instead of exhausting the machine's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestBounds:
    def test_text_output(self, capsys):
        assert run_main("bounds", "--sigma", "1", "--mu", "1") == 0
        out = capsys.readouterr().out
        assert "L_inf              1.0" in out
        assert "U_inf              1.0" in out
        assert "L_inf_conditional  no" in out

    def test_json_output(self, capsys):
        assert run_main("bounds", "--sigma", "0.1", "--mu", "0",
                        "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["U_inf"] is None
        assert payload["L_inf_conditional"] is True
        assert payload["L_2"] <= payload["U_2"] + 1e-9
        assert payload["sigma"] == 0.1

    def test_undefined_rendered_in_text(self, capsys):
        assert run_main("bounds", "--sigma", "0.1", "--mu", "0") == 0
        assert "undefined" in capsys.readouterr().out

    def test_missing_option_is_usage_error(self, capsys):
        assert run_main("bounds", "--sigma", "1") == 2
        assert "--mu" in capsys.readouterr().err

    def test_invalid_value_is_usage_error(self, capsys):
        assert run_main("bounds", "--sigma", "-1", "--mu", "0") == 2
        assert "sigma" in capsys.readouterr().err

    def test_overflowing_parameters_are_usage_error(self, capsys):
        # sigma**2 overflows in the feasibility test: exit 2, no traceback
        assert run_main("bounds", "--sigma", "1e300", "--mu", "1e300") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def broken(params):
            raise InternalConsistencyError("L_2=2 exceeds U_2=1")

        monkeypatch.setattr(cli, "gain_bounds", broken)
        assert run_main("bounds", "--sigma", "1", "--mu", "0") == 3
        err = capsys.readouterr().err
        assert err == "error: internal: L_2=2 exceeds U_2=1\n"

    def test_tiny_sigma_is_usage_error(self, capsys):
        # 2/(pi sigma) overflows: the U_2 term budget refuses it first
        assert run_main("bounds", "--sigma", "5e-324", "--mu", "0") == 2
        assert capsys.readouterr().err.startswith(
            "error: sigma=5e-324 is too small")

    def test_sigma_past_the_u2_budget_is_usage_error(self):
        # U_2 would sum 2/(pi sigma) ~ 6e299 explicit terms: refused before
        # any is summed
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "bounds", "--sigma", "1e-300",
             "--mu", "0"], capture_output=True, text=True,
            preexec_fn=limit_memory, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: sigma=1e-300 is too small")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @settings(max_examples=40)
    @example(5e-324, 0.0)
    @example(1e-300, 2e300)     # sigma^2 underflows where mu*sigma >= 1
    @example(1e-9, 1e300)       # U_inf past the float range
    @example(2e-9, 5e8)         # mu*sigma = 1: U_2 is 1/sqrt(3), no terms
    @given(st.floats(math.log(5e-324), math.log(2e-9)).map(math.exp),
           st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                     st.floats(math.log(1e-3), math.log(1e300)).map(math.exp)))
    def test_tiny_sigma_exits_0_or_2_quickly(self, sigma, mu):
        # every sigma at or below the U_2 budget's floor either returns
        # finite bounds or is refused with one line, within 2 s; mu is also
        # drawn log-uniform so that mu*sigma >= 1 is often reached
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_main("bounds", "--sigma", repr(sigma), "--mu",
                            repr(mu), "--json")
        assert time.perf_counter() - t0 < 2.0
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert [ln for ln in err.getvalue().splitlines()
                    if ln.startswith("error:")] == [err.getvalue().strip()]
        else:
            payload = json.loads(out.getvalue())
            nums = [v for k, v in payload.items()
                    if k != "L_inf_conditional" and v is not None]
            assert all(math.isfinite(v) for v in nums)


class TestBode:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "bode.csv"
        assert run_main("bode", "--sigma", "1", "--mu", "0",
                        "--omega-min", "0.5", "--omega-max", "13",
                        "--points", "5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,A_sup,Q_l2,ln_A_sup,ln_Q_l2"
        assert len(lines) == 6
        cells = [line.split(",") for line in lines[1:]]
        omegas = [float(c[0]) for c in cells]
        assert omegas[0] == 0.5 and omegas[-1] == 13.0
        assert omegas == sorted(omegas)
        # values round-trip and agree with the library
        p = DampingParams(1.0, 0.0)
        for c in cells:
            w = float(c[0])
            assert float(c[1]) == sup_gain_at(p, w)
            assert float(c[2]) == l2_stats_at(p, w).Q
            assert float(c[3]) == math.log(float(c[1]))
            assert float(c[4]) == math.log(float(c[2]))

    def test_log_scale_endpoints_exact(self, tmp_path):
        out = tmp_path / "bode.csv"
        assert run_main("bode", "--sigma", "1", "--mu", "0",
                        "--omega-min", "0.25", "--omega-max", "16",
                        "--points", "7", "--scale", "log",
                        "--out", str(out)) == 0
        cells = [l.split(",") for l in out.read_text().splitlines()[1:]]
        omegas = [float(c[0]) for c in cells]
        assert omegas[0] == 0.25 and omegas[-1] == 16.0
        ratios = [omegas[i + 1] / omegas[i] for i in range(6)]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_bad_range_is_usage_error(self, capsys):
        assert run_main("bode", "--sigma", "1", "--mu", "0",
                        "--omega-min", "5", "--omega-max", "2",
                        "--points", "4", "--out", "-") == 2
        assert "error:" in capsys.readouterr().err

    def test_identical_across_runs(self, tmp_path):
        args = ["bode", "--sigma", "1e-4", "--mu", "0.05",
                "--omega-min", "0.5", "--omega-max", "13",
                "--points", "200"]
        payloads = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"{name}.csv"
            assert run_main(*args, "--out", str(out)) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_non_finite_gain_is_usage_error(self, tmp_path, capsys):
        # omega^2 overflows at the last row: exit 2 before anything is written
        out = tmp_path / "bode.csv"
        args = ["bode", "--sigma", "1", "--mu", "0", "--omega-min", "1",
                "--omega-max", "1e308", "--points", "3", "--scale", "log",
                "--out", str(out)]
        assert run_main(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: the gains at omega=1e+308 are not finite\n"
        assert list(tmp_path.iterdir()) == []
        proc = subprocess.run([sys.executable, "-m", "wavegain", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == err
        assert list(tmp_path.iterdir()) == []

    def test_root_underflow_gives_the_low_frequency_limit(self, capsys):
        # below omega ~ 1e-162 the characteristic root underflows to 0; the
        # sup gain takes its omega -> 0 limit 1 there
        args = ["bode", "--sigma", "1", "--mu", "0", "--omega-min", "1e-300",
                "--omega-max", "1", "--points", "3", "--scale", "log",
                "--out", "-"]
        assert run_main(*args) == 0
        out, err = capsys.readouterr()
        assert err == ""
        header, first = out.splitlines()[:2]
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert row["omega"] == 1e-300
        assert row["A_sup"] == 1.0

    def test_scale_checked_by_grid(self, tmp_path, capsys):
        # a bad scale is refused by the grid itself, from a direct call and
        # from a config file (argparse's choices cover only the flag)
        with pytest.raises(ValueError, match="^scale must be linear or log$"):
            cli.cmd_bode(1, 0, 1, 100, 3, "LOG", "-")
        assert capsys.readouterr().out == ""
        conf = tmp_path / "conf.ini"
        conf.write_text("scale = LOG\n")
        assert run_main("bode", "--sigma", "1", "--mu", "0", "--omega-min",
                        "1", "--omega-max", "100", "--points", "3",
                        "--out", "-", "--config", str(conf)) == 2
        assert capsys.readouterr() == ("", "error: scale must be linear or log\n")

    def test_parallel_option_is_gone(self, tmp_path, capsys):
        args = ["bode", "--sigma", "1", "--mu", "0", "--omega-min", "0.5",
                "--omega-max", "13", "--points", "4", "--out", "-"]
        with pytest.raises(SystemExit) as exc:
            run_main(*args, "--parallel", "2")
        assert exc.value.code == 2
        cfg = tmp_path / "bode.cfg"
        cfg.write_text("parallel = 2\n")
        assert run_main(*args, "--config", str(cfg)) == 2
        assert "unknown config keys: ['parallel']" in capsys.readouterr().err


class TestSweep:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_main("sweep", "--sigma", "1", "--mu-min", "0",
                        "--mu-max", "2", "--points", "5",
                        "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,sigma,L_inf,L_inf_conditional,U_inf,L_2,U_2"
        assert len(lines) == 6
        for line in lines[1:]:
            mu, sigma, li, cond, ui, l2, u2 = line.split(",")
            assert float(sigma) == 1.0
            assert cond in ("0", "1")
            assert float(l2) <= float(u2) + 1e-9
            if ui:
                assert float(li) <= float(ui) + 1e-9
        # mu*sigma >= 1 rows collapse to the exact limit
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0
        assert float(last[6]) == pytest.approx(1.0 / math.sqrt(3.0),
                                               rel=1e-12)

    def test_undefined_upper_bound_empty_cell(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_main("sweep", "--sigma", "0.2", "--mu-min", "0",
                        "--mu-max", "1", "--points", "3",
                        "--out", str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        # sigma=0.2: infeasible at mu=0 (2 > sigma^2 pi^2), feasible at mu=5
        assert rows[0][4] == ""
        assert rows[0][3] == "1"

    def test_bad_mu_range(self, capsys):
        assert run_main("sweep", "--sigma", "1", "--mu-min", "2",
                        "--mu-max", "1", "--points", "3", "--out", "-") == 2


class TestCleanUsageErrors:
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 763. MiB"),
         "error: MemoryError: Unable to allocate 763. MiB\n"),
        (MemoryError(), "error: MemoryError: out of memory\n")])
    @pytest.mark.parametrize("command, site", [
        (["bode", "--sigma", "1", "--mu", "0", "--omega-min", "1",
          "--omega-max", "2", "--points", "100000000", "--out", "-"], "_grid"),
        (["sweep", "--sigma", "1", "--mu-max", "1", "--points", "3",
          "--out", "-"], "gain_bounds")], ids=["bode", "sweep"])
    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch,
                                                 command, site, exc, line):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, site, exhausted)
        assert run_main(*command) == 2
        assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize("command", [
        ["bode", "--sigma", "1", "--mu", "0", "--omega-min", "1",
         "--omega-max", "2", "--points", "100000000", "--out", "-"],
        ["sweep", "--sigma", "1", "--mu-max", "1", "--points", "100000000",
         "--out", "-"]], ids=["bode", "sweep"])
    def test_oversized_grid_refused_before_it_is_built(self, capsys,
                                                       command):
        # a 1e8-point grid would allocate gigabytes; the 2^20 budget is
        # checked first, so the refusal is immediate
        t0 = time.perf_counter()
        assert run_main(*command) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == (
            "", "error: points must be at most 1048576, got 100000000\n")

    @pytest.mark.parametrize("options, line", [
        (["simulate", "--omega", "1", "--amplitude", "inf"],
         "disturbance amplitude must be finite, got inf"),
        (["simulate", "--omega", "1", "--phase", "nan"],
         "disturbance phase must be finite, got nan"),
        (["simulate", "--constant", "nan"],
         "disturbance constant level must be finite, got nan"),
        (["simulate", "--knots", "0:0,nan:1"],
         "disturbance knot time must be finite, got nan"),
        (["simulate", "--knots", "0:0,1:-inf"],
         "disturbance knot value must be finite, got -inf"),
        (["sweep", "--mu-max", "inf", "--points", "3"],
         "mu range must be finite and satisfy 0 <= min < max, "
         "got [0.0, inf]"),
    ], ids=["amplitude", "phase", "constant", "knot-time", "knot-value",
            "mu-max"])
    def test_non_finite_value_named_in_one_line(self, options, line):
        # a fresh process, so that numpy warnings would show on stderr
        mu = [] if options[0] == "sweep" else ["--mu", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", options[0], "--sigma", "1",
             *mu, *options[1:], "--out", "-"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {line}\n"


# log-uniform over [1e-300, 1e300]
_WIDE = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _WIDE).map(
    lambda p: p[0] * p[1])


def _knots_option(times, values):
    pts = zip([0.0, *sorted(times)], values)
    return ["--knots", ",".join(f"{t!r}:{v!r}" for t, v in pts)]


_DISTURBANCES = st.one_of(
    _WIDE.map(lambda w: ["--omega", repr(w)]),
    _SIGNED.map(lambda c: [f"--constant={c!r}"]),  # "-1e+16" is no option
    st.builds(_knots_option, st.lists(_WIDE, min_size=1, max_size=3,
                                      unique=True),
              st.lists(st.one_of(st.just(0.0), _SIGNED), min_size=4,
                       max_size=4)))


class TestSimulate:
    def test_output_step_budget_refused_before_allocation(self, tmp_path):
        # 4e8 output steps would allocate about 9.6 GB before stepping; the
        # 2^20 budget is checked first
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "simulate", "--sigma", "1",
             "--mu", "0", "--omega", "1", "--dt-output", "1e-7", "--out",
             str(tmp_path / "sim.csv")], capture_output=True, text=True,
            preexec_fn=limit_memory, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("error: t_final/dt_output must be at most "
                               "1048576 output steps, got 4e+08\n")
        assert proc.stdout == ""
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("name, low", [("n_modes", 1), ("x_points", 64)])
    def test_grid_budget_refused_before_allocation(self, tmp_path, name, low):
        # 1e8 modes or x points would allocate gigabytes (without a limit the
        # kernel killed such a run); the 2^20 budget is checked first
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "simulate", "--sigma", "1",
             "--mu", "0", "--omega", "3", cli._flag(name), "100000000",
             "--t-final", "0.01", "--out", str(tmp_path / "sim.csv")],
            capture_output=True, text=True, preexec_fn=limit_memory,
            timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {name} must lie in [{low}, 1048576], "
                               f"got 100000000\n")
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("params", [
        ["--sigma", "1e8", "--mu", "0", "--omega", "1"],
        ["--sigma", "1", "--mu", "1e9", "--constant", "1"]],
        ids=["sigma", "mu"])
    def test_heavy_damping_takes_the_burn_in_cap(self, tmp_path, capsys,
                                                 params):
        # the slowest decay rate k - r cancels to exactly 0 here (its true
        # value (n pi)^2/(k + r) is about 1e-8), so the default burn-in is
        # the cap, half the horizon
        out = tmp_path / "sim.csv"
        assert run_main("simulate", *params, "--t-final", "0.1",
                        "--n-modes", "8", "--x-points", "64",
                        "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        side = json.loads((tmp_path / "sim.json").read_text())
        assert side["burn_in"] == 0.05
        assert math.isfinite(side["empirical_gain_sup"])
        assert math.isfinite(side["empirical_gain_l2"])

    @settings(max_examples=100)
    @example(1.0, 0.0, ["--omega", "3"], (1e300, 1e299), 8)
    @example(5.465911339641237e+97, 951658759707777.5,
             ["--knots", "0:0,1.4203144183581932e-232:1,"
                         "3.653447139756325e+300:-1"],
             (2.082082852511087e-14, 2.082082852511087e-14), 7)
    @example(1.4138638121903778e-230, 3.4117018656435816e-296,
             ["--omega", "6.385998051040758e+136"],
             (2.2854676575474298e+254, 2.28546765754743e+253), 7)
    @example(6.974348480708087e+39, 0.0, ["--omega", "5.025626255475429e+287"],
             (3.274445510502889e-238, 1.6372227552514444e-238), 7)
    @given(_WIDE, st.one_of(st.just(0.0), _WIDE), _DISTURBANCES,
           st.tuples(_WIDE, st.floats(1.0, 100.0)).map(
               lambda p: (p[0], p[0] / p[1])),
           st.integers(1, 8))
    def test_float_range_inputs_exit_0_or_2_cleanly(self, sigma, mu,
                                                     disturbance, horizon,
                                                     n_modes):
        # inputs anywhere in the float range either give finite rows with
        # nothing on stderr, or are refused with one line and no CSV; a
        # numpy warning fails the run
        t_final, dt_output = horizon
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            out = os.path.join(tmp, "sim.csv")
            with contextlib.redirect_stderr(err):
                code = run_main(
                    "simulate", "--sigma", repr(sigma), "--mu", repr(mu),
                    *disturbance, "--t-final", repr(t_final), "--dt-output",
                    repr(dt_output), "--n-modes", str(n_modes),
                    "--x-points", "64", "--out", out)
            if code == 0:
                assert err.getvalue() == ""
                with open(out, encoding="utf-8") as fh:
                    rows = fh.read().splitlines()[1:]
                assert rows and all(math.isfinite(float(v))
                                    for row in rows for v in row.split(","))
            else:
                assert code == 2
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert os.listdir(tmp) == []

    def test_sinusoid_with_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_main("simulate", "--sigma", "1", "--mu", "0",
                        "--omega", "5", "--n-modes", "32",
                        "--t-final", "8", "--dt-output", "0.05",
                        "--x-points", "128", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,sup_norm,l2_norm"
        assert len(lines) == 162
        side = json.loads((tmp_path / "sim.json").read_text())
        assert side["disturbance"]["kind"] == "sinusoid"
        assert side["n_modes"] == 32
        assert side["rel_err_sup"] < 0.01
        assert side["rel_err_l2"] < 0.01
        assert side["analytic_gain_sup"] == sup_gain_at(DampingParams(1, 0),
                                                        5.0)

    def test_constant_no_analytic_fields(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_main("simulate", "--sigma", "1", "--mu", "0.5",
                        "--constant", "2", "--n-modes", "16",
                        "--t-final", "4", "--dt-output", "0.1",
                        "--x-points", "64", "--out", str(out)) == 0
        side = json.loads((tmp_path / "sim.json").read_text())
        assert "analytic_gain_sup" not in side
        assert side["empirical_gain_sup"] is not None

    def test_knots_parsing(self, tmp_path):
        out = tmp_path / "ramp.csv"
        assert run_main("simulate", "--sigma", "1", "--mu", "0",
                        "--knots", "0:0, 2:1, 6:1", "--n-modes", "16",
                        "--t-final", "4", "--dt-output", "0.2",
                        "--x-points", "64", "--out", str(out)) == 0
        side = json.loads((tmp_path / "ramp.json").read_text())
        assert side["disturbance"]["kind"] == "piecewise_linear"
        assert side["disturbance"]["knots"] == [[0.0, 0.0], [2.0, 1.0],
                                                [6.0, 1.0]]

    def test_exactly_one_disturbance_required(self, capsys):
        base = ["simulate", "--sigma", "1", "--mu", "0", "--out", "-"]
        assert run_main(*base) == 2
        assert run_main(*base, "--omega", "1", "--constant", "2") == 2

    def test_overflowing_parameters_are_usage_error(self, tmp_path, capsys):
        # the per-mode constants overflow: exit 2 before anything is written
        out = tmp_path / "sim.csv"
        assert run_main("simulate", "--sigma", "1e300", "--mu", "0",
                        "--omega", "1", "--t-final", "0.1",
                        "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FloatingPointError: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        # numpy prints its warnings to the real stderr of a fresh process
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "simulate", "--sigma", "1e300",
             "--mu", "0", "--omega", "1", "--t-final", "0.1",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_analytic_gain_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--sigma", "1", "--mu", "0", "--omega", "1e200",
                "--t-final", "0.05", "--out", str(out)]
        assert run_main(*args) == 2
        err = capsys.readouterr().err
        assert err == "error: the gains at omega=1e+200 are not finite\n"
        assert list(tmp_path.iterdir()) == []
        proc = subprocess.run([sys.executable, "-m", "wavegain", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == err
        assert list(tmp_path.iterdir()) == []

    def test_bad_knots_usage_error(self, capsys):
        assert run_main("simulate", "--sigma", "1", "--mu", "0",
                        "--knots", "0:0,0:1", "--out", "-") == 2


class TestVerifyCommand:
    def test_quick_run_passes(self, capsys):
        assert run_main("verify", "--quick") == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert out.count("PASS") == 8

    def test_reports_seed(self, capsys):
        assert run_main("verify", "--quick", "--seed", "7") == 0
        assert "[seed 7, quick]" in capsys.readouterr().out


def record_calls(monkeypatch, command):
    """Stand in for cli.cmd_<command>; each call appends its arguments by
    parameter name, the disturbance spread into the options it came from."""
    real = getattr(cli, f"cmd_{command}")
    calls = []

    def fake(*args, **kwargs):
        got = inspect.signature(real).bind(*args, **kwargs).arguments
        d = got.pop("disturbance", None)
        if d is not None and d.kind == "sinusoid":
            got.update(omega=d.omega, amplitude=d.amplitude, phase=d.phase)
        elif d is not None and d.kind == "constant":
            got["constant"] = d.level
        elif d is not None:
            got["knots"] = ",".join(f"{t!r}:{v!r}" for t, v in d.knots)
        calls.append(got)
        return 0

    monkeypatch.setattr(cli, f"cmd_{command}", fake)
    return calls


REQUIRED = object()  # no default: the run without a file passes the flag
SIGMA = (1.5, 2.5, REQUIRED)
MU = (0.5, 0.25, REQUIRED)
OUT = ("a.csv", "b.csv", REQUIRED)

# per subcommand: every option that takes a value, as
# (flag value, config-file value, default); simulate once per disturbance
VALUE_OPTIONS = [
    ("bounds", {"sigma": SIGMA, "mu": MU}),
    ("bode", {"sigma": SIGMA, "mu": MU, "omega_min": (0.5, 0.75, REQUIRED),
              "omega_max": (13.0, 14.0, REQUIRED), "points": (5, 6, 1000),
              "scale": ("linear", "log", "linear"), "out": OUT}),
    ("sweep", {"sigma": SIGMA, "mu_min": (0.5, 0.75, 0.0),
               "mu_max": (3.0, 4.0, REQUIRED), "points": (5, 6, 81),
               "out": OUT}),
    ("simulate", {"sigma": SIGMA, "mu": MU, "omega": (5.0, 6.0, REQUIRED),
                  "amplitude": (2.0, 3.0, 1.0), "phase": (0.5, 0.75, 0.0),
                  "n_modes": (8, 16, 512), "t_final": (1.0, 2.0, 40.0),
                  "dt_output": (0.5, 0.25, 0.01), "x_points": (64, 128, 1024),
                  "burn_in": (0.5, 0.25, None), "out": OUT}),
    ("simulate", {"sigma": SIGMA, "mu": MU, "constant": (2.0, 3.0, REQUIRED),
                  "out": OUT}),
    ("simulate", {"sigma": SIGMA, "mu": MU, "out": OUT,
                  "knots": ("0.0:0.0,1.0:1.0", "0.0:1.0,2.0:0.0", REQUIRED)}),
    ("verify", {"seed": (7, 8, None)}),
]


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, options", VALUE_OPTIONS,
        ids=["bounds", "bode", "sweep", "simulate-sinusoid",
             "simulate-constant", "simulate-knots", "verify"])
    def test_every_value_option_from_file(self, command, options, tmp_path,
                                          monkeypatch):
        calls = record_calls(monkeypatch, command)
        conf = tmp_path / "conf.ini"
        conf.write_text("".join(f"{key.replace('_', '-')} = {file_val}\n"
                                for key, (_, file_val, _) in options.items()))

        def flags(keys):
            return [arg for key in keys
                    for arg in ("--" + key.replace("_", "-"),
                                str(options[key][0]))]

        required = [k for k, (_, _, d) in options.items() if d is REQUIRED]
        assert run_main(command, "--config", str(conf)) == 0
        assert run_main(command, "--config", str(conf), *flags(options)) == 0
        assert run_main(command, *flags(required)) == 0
        from_file, from_flags, defaults = calls
        for key, (flag_val, file_val, default) in options.items():
            if default is REQUIRED:
                default = flag_val
            for got, want in ((from_file, file_val), (from_flags, flag_val),
                              (defaults, default)):
                assert (key, got[key], type(got[key])) == (key, want,
                                                           type(want))

    def test_bad_value_names_file_and_key(self, tmp_path, capsys):
        conf = tmp_path / "conf.ini"
        conf.write_text("points = 1e3\n")
        assert run_main("bode", "--sigma", "1", "--mu", "0", "--omega-min",
                        "1", "--omega-max", "2", "--out", "-",
                        "--config", str(conf)) == 2
        assert capsys.readouterr() == (
            "", f"error: {conf}: points: invalid literal for int() with "
                "base 10: '1e3'\n")

    @pytest.mark.parametrize("command, key", [
        ("bounds", "json"), ("verify", "quick"), ("verify", "config")])
    def test_flags_only_switches_not_config_keys(self, command, key,
                                                 tmp_path, capsys):
        conf = tmp_path / "conf.ini"
        conf.write_text(f"{key} = 1\n")
        args = ["--sigma", "1", "--mu", "1"] if command == "bounds" else []
        assert run_main(command, *args, "--config", str(conf)) == 2
        assert capsys.readouterr().err == (
            f"error: unknown config keys: ['{key}']\n")

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        conf = tmp_path / "conf.ini"
        conf.write_text("# defaults for a spike hunt\n"
                        "sigma = 1\nmu = 0\nomega-min = 1\n"
                        "omega_max = 2\npoints = 5\n"
                        f"out = {tmp_path / 'from_file.csv'}\n")
        assert run_main("bode", "--config", str(conf)) == 0
        assert len((tmp_path / "from_file.csv")
                   .read_text().splitlines()) == 6
        out2 = tmp_path / "flag_wins.csv"
        assert run_main("bode", "--config", str(conf), "--points", "3",
                        "--out", str(out2)) == 0
        assert len(out2.read_text().splitlines()) == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.ini"
        conf.write_text("sigma=1\nbogus=3\n")
        assert run_main("bounds", "--config", str(conf), "--mu", "1") == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "conf.ini"
        conf.write_text("sigma 1\n")
        assert run_main("bounds", "--config", str(conf), "--mu", "1") == 2

    def test_missing_file_is_io_error(self):
        assert run_main("bounds", "--config", "/nonexistent/conf",
                        "--sigma", "1", "--mu", "1") == 2


class TestArgparseBehavior:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nosuch"])
        assert exc.value.code == 2

    def test_option_strings_per_subcommand(self):
        sub, = [a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        expected = {
            "bounds": ["--sigma", "--mu", "--json"],
            "bode": ["--sigma", "--mu", "--omega-min", "--omega-max",
                     "--points", "--scale", "--out"],
            "sweep": ["--sigma", "--mu-min", "--mu-max", "--points", "--out"],
            "simulate": ["--sigma", "--mu", "--omega", "--amplitude",
                         "--phase", "--constant", "--knots", "--n-modes",
                         "--t-final", "--dt-output", "--x-points",
                         "--burn-in", "--out"],
            "verify": ["--seed", "--quick"],
        }
        assert list(sub.choices) == list(expected)
        for name, flags in expected.items():
            actions = sub.choices[name]._actions
            assert [s for a in actions for s in a.option_strings] == [
                "-h", "--help", *flags, "--config"]
        scale, = [a for a in sub.choices["bode"]._actions
                  if a.dest == "scale"]
        assert list(scale.choices) == ["linear", "log"]

    def test_parser_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        args = ["bounds", "--sigma", "2", "--mu", "1"]
        assert run_main(*args) == 0
        built.clear()
        for _ in range(3):
            assert run_main(*args) == 0
        assert built == []

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "bounds",
             "--sigma", "2", "--mu", "1", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["U_2"] == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-12)


class TestDirectCalls:
    def test_cmd_bounds_stream(self):
        buf = io.StringIO()
        assert cli.cmd_bounds(1.0, 1.0, as_json=True, stream=buf) == 0
        assert json.loads(buf.getvalue())["L_inf"] == 1.0

    def test_cmd_simulate_accepts_spec(self, tmp_path):
        out = tmp_path / "s.csv"
        d = DisturbanceSpec.sinusoid(1.0, 3.0)
        assert cli.cmd_simulate(1.0, 0.0, d, str(out), n_modes=8,
                                t_final=1.0, dt_output=0.5,
                                x_points=64) == 0
        assert out.exists() and (tmp_path / "s.json").exists()
