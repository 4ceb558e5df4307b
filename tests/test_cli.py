"""Command-line surface: parsing, config precedence, CSV/JSON formats."""

import io
import json
import math
import resource
import subprocess
import sys

import pytest

from wavegain import cli
from wavegain.freq_response import DampingParams, l2_stats_at, sup_gain_at
from wavegain.gain_bounds import InternalConsistencyError
from wavegain.modal import DisturbanceSpec


def run_main(*argv):
    return cli.main(list(argv))


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
        def broken(params, search=None):
            raise InternalConsistencyError("L_2=2 exceeds U_2=1")

        monkeypatch.setattr(cli, "gain_bounds", broken)
        assert run_main("bounds", "--sigma", "1", "--mu", "0") == 3
        err = capsys.readouterr().err
        assert err == "error: internal: L_2=2 exceeds U_2=1\n"

    def test_tiny_sigma_is_usage_error(self, capsys):
        # 4/sigma overflows the default search range
        assert run_main("bounds", "--sigma", "5e-324", "--mu", "0") == 2
        assert capsys.readouterr().err.startswith(
            "error: sigma=5e-324 is too small")

    def test_oversized_sup_gain_grid_is_usage_error(self):
        # the base scan reaches omega = 4e300, where one row of the sup-gain
        # grid would need ~1e300 points: refused before allocation. The
        # address-space limit turns a regression into a failure here, not
        # into a run that exhausts the machine's memory.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "wavegain", "bounds", "--sigma", "1e-300",
             "--mu", "0"], capture_output=True, text=True,
            preexec_fn=limit_memory, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: sigma=1e-300, omega=")
        assert proc.stderr.count("\n") == 1
        assert "above the cap" in proc.stderr
        assert proc.stdout == ""


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


class TestSimulate:
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


class TestConfigFile:
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
