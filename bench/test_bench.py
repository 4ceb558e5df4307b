"""Tests of the benchmark itself: generators, checker and span accounting.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import math
import os
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from wavegain import cli  # noqa: E402


def run_op(argv, tmp_path):
    """(rc, stdout, {output name: text}) of one CLI call, run in tmp_path."""
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        rc, _, stdout, files, error = worker.run_op(cli, argv, "")
        assert error is None
        texts = worker.read_files(files)
        for path in files.values():
            os.remove(path)
    finally:
        os.chdir(cwd)
    return rc, stdout, texts


BOUNDS = ["bounds", "--sigma", "0.5", "--mu", "4.0", "--json"]
BODE = ["bode", "--sigma", "1.0", "--mu", "0.3", "--omega-min", "0.5",
        "--omega-max", "13.0", "--points", "40", "--scale", "log",
        "--out", workloads.BODE_OUT]
SIMULATE = ["simulate", "--sigma", "1.0", "--mu", "0.0", "--omega", "3.0",
            "--n-modes", "32", "--x-points", "64", "--t-final", "0.5",
            "--out", workloads.SIM_OUT]
VERIFY_OUT = "".join(
    f"PASS  {name:<18} worst 1.000e-12 (tol 1e-06, 0.0s)  detail\n"
    for name in spans.SUITES) + "all suites passed [seed 7, quick]\n"


def regime(argv):
    """Damping regime as the package classifies it: by the float mu*sigma."""
    sigma = float(argv[argv.index("--sigma") + 1])
    mu = float(argv[argv.index("--mu") + 1])
    if mu == 0.0:
        return "mu0"
    return "heavy" if mu * sigma >= 1.0 else "light"


class TestGenerators:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_argv(self, name):
        first = [workloads.op_argv(name, 11, i) for i in range(60)]
        again = [workloads.op_argv(name, 11, i) for i in range(60)]
        other = [workloads.op_argv(name, 12, i) for i in range(60)]
        assert first == again
        assert first != other

    @pytest.mark.parametrize("name", ["bounds", "bode", "simulate"])
    def test_cell_mix_does_not_depend_on_seed(self, name):
        def mix(seed):
            ops = [workloads.op_argv(name, seed, i) for i in range(27)]
            return sorted(regime(a) for a in ops)
        assert mix(1) == mix(2) == mix(99)
        assert mix(1).count("heavy") == 9

    def test_verify_pool_does_not_depend_on_seed(self):
        def pool(seed):
            n = workloads.VERIFY_POOL
            return sorted(tuple(workloads.op_argv("verify", seed, i)) for i in range(n))
        assert pool(1) == pool(2) == pool(99)
        assert len(set(pool(1))) == workloads.VERIFY_POOL

    def test_sigma_stays_in_range(self):
        for i in range(200):
            sigma = float(workloads.op_argv("bounds", 3, i)[2])
            assert 1e-2 <= sigma <= 5.0

    def test_simulate_kinds_in_fixed_shares(self):
        kinds = [workloads.op_argv("simulate", 4, i)[5] for i in range(30)]
        assert kinds.count("--omega") == kinds.count("--constant") == \
            kinds.count("--knots") == 10

    def test_op_sizes_stay_in_range(self):
        for i in range(200):
            bode = workloads.op_argv("bode", 5, i)
            lo, hi = workloads.BODE_POINTS[regime(bode)]
            assert lo <= workloads.items(bode) <= hi
            sim = workloads.op_argv("simulate", 5, i)
            lo, hi = workloads.SIM_STEPS
            assert lo + 1 <= workloads.items(sim) <= hi + 1


class TestTail:
    def test_ten_ops_stay_above(self):
        value, pct = run.tail(list(range(150, 0, -1)))
        assert (value, pct) == (140, 140 / 150 * 100)

    def test_short_run_falls_back_to_minimum(self):
        assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


class TestScaling:
    def test_scaled_seconds_follow_the_calibration_job(self):
        result = {"calibration_ref_s": 1e-3, "ops": [
            {"seconds": 0.2, "calibration_s": 2e-3},
            {"seconds": 0.3, "calibration_s": 1e-3}]}
        assert run.scaled_seconds(result) == pytest.approx([0.1, 0.3])

    def test_calibration_job_times_something(self):
        assert 0.0 < worker.calibration_s() < 1.0


class TestChecker:
    def test_real_outputs_pass(self, tmp_path):
        for argv in (BOUNDS, BODE, SIMULATE):
            rc, out, files = run_op(argv, tmp_path)
            assert check.check_op(argv, rc, out, files) == []
        assert check.check_op(["verify"], 0, VERIFY_OUT, {}) == []

    def test_corrupted_bounds_fail(self, tmp_path):
        rc, out, files = run_op(BOUNDS, tmp_path)
        payload = json.loads(out)
        for key, value in (("L_2", payload["U_2"] + 1e-6), ("L_inf", 0.99),
                           ("U_2", 0.6)):
            bad = dict(payload, **{key: value})
            assert check.check_op(BOUNDS, rc, json.dumps(bad), files)
        assert check.check_op(BOUNDS, rc, out[:-5], files)
        assert check.check_op(BOUNDS, 2, out, files)

    def test_corrupted_bode_fails(self, tmp_path):
        rc, out, files = run_op(BODE, tmp_path)
        text = files[workloads.BODE_OUT]
        lines = text.splitlines(keepends=True)
        row = lines[5].split(",")
        below_one = ",".join([row[0], "0.999"] + row[2:])
        for bad in ("".join(lines[:-1]),                     # a row missing
                    text.replace("A_sup", "A"),               # wrong header
                    "".join(lines[:5] + [below_one] + lines[6:]),
                    text.replace(row[2], "nan", 1)):
            assert check.check_op(BODE, rc, out, {workloads.BODE_OUT: bad})

    def test_corrupted_simulate_fails(self, tmp_path):
        rc, out, files = run_op(SIMULATE, tmp_path)
        csv = files[workloads.SIM_OUT]
        side = files[workloads.SIDECAR_OUT]
        for bad in ({workloads.SIM_OUT: csv, workloads.SIDECAR_OUT: side[:-3]},
                    {workloads.SIM_OUT: csv[: len(csv) // 2],
                     workloads.SIDECAR_OUT: side},
                    {workloads.SIM_OUT: csv}):
            assert check.check_op(SIMULATE, rc, out, bad)

    def test_failed_suite_fails(self):
        bad = VERIFY_OUT.replace("PASS  parseval", "FAIL  parseval")
        assert check.check_op(["verify"], 0, bad, {})
        assert check.check_op(["verify"], 0, VERIFY_OUT.splitlines(True)[0], {})

    def test_reference_comparison(self, tmp_path):
        rc, out, files = run_op(BODE, tmp_path)
        ref = {"argv": BODE, "values": check.reference_entry(BODE, out, files)}
        assert check.compare_reference(BODE, out, files, ref) == []
        text = files[workloads.BODE_OUT]
        row = text.splitlines()[1].split(",")
        nudged = text.replace(row[2], repr(float(row[2]) * (1 + 1e-8)), 1)
        assert check.compare_reference(
            BODE, out, {workloads.BODE_OUT: nudged}, ref)
        assert check.compare_reference(BODE, out, {}, ref)  # file missing

        light = ["bounds", "--sigma", "1.0", "--mu", "0.5", "--json"]
        rc, out, files = run_op(light, tmp_path)
        b = json.loads(out)
        ref = {"argv": light, "values": check.reference_entry(light, out, files)}
        better = dict(b, L_inf=b["L_inf"] + 1e-3)  # a lower bound may improve
        assert check.compare_reference(light, json.dumps(better), files, ref) == []
        for key, value in (("L_2", b["L_2"] - 1e-6),
                           ("U_2", b["U_2"] * (1 + 1e-6))):
            worse = dict(b, **{key: value})
            assert check.compare_reference(light, json.dumps(worse), files, ref)


def traced_ops(argvs, tmp_path):
    tracer = spans.Tracer()
    walls = []
    for i, argv in enumerate(argvs):
        tracer.current_op = i
        tracer.install()
        try:
            t0 = time.perf_counter()
            rc, _, _ = run_op(argv, tmp_path)
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        assert rc == 0
    return tracer, walls


class TestSpans:
    def test_self_times_add_up_to_op_wall_time(self, tmp_path):
        argvs = [BOUNDS, BODE, SIMULATE,
                 ["bounds", "--sigma", "2.0", "--mu", "0.1", "--json"]]
        tracer, walls = traced_ops(argvs, tmp_path)
        s = tracer.arrays()
        own = spans.self_times(s)
        roots = np.nonzero(s["parent"] == -1)[0]
        assert len(roots) == len(argvs)
        for i, root in enumerate(roots):
            in_op = s["op"] == i
            op_wall = s["end"][root] - s["start"][root]
            assert in_op.sum() > 1
            assert math.isclose(own[in_op].sum(), op_wall, rel_tol=1e-9)
            assert (own[in_op] >= 0).all()
            assert op_wall <= walls[i]

    def test_one_span_name_per_caller(self, tmp_path):
        tracer, _ = traced_ops(
            [["bounds", "--sigma", "2.0", "--mu", "0.1", "--json"]], tmp_path)
        names = {tracer.names[i] for i in set(tracer.arrays()["name"])}
        assert {"numerics.refine_local_maxima@gain_bounds",
                "numerics.refine_local_maxima@freq_response",
                "freq_response.sup_gain_at@gain_bounds",
                "freq_response.sup_gain_at@freq_response"} <= names
        metrics = spans.layer_metrics(tracer, 1, 0, 0.0)
        assert set(metrics) == set(spans.METRICS)
        assert metrics["gain_bounds.scans"][0] > 0
        assert 0 < metrics["gain_bounds.useful_scan_ratio"][0] <= 1

    def test_patches_are_removed(self):
        gb = importlib.import_module("wavegain.gain_bounds")
        before = gb.sup_gain_at
        tracer = spans.Tracer()
        tracer.install()
        assert gb.sup_gain_at is not before
        tracer.remove()
        assert gb.sup_gain_at is before

    def test_missing_name_is_reported_absent(self, tmp_path, monkeypatch):
        import wavegain.simulator as sim
        monkeypatch.delattr(sim, "_propagator_arrays")
        tracer, _ = traced_ops([BOUNDS], tmp_path)
        metrics = spans.layer_metrics(tracer, 1, 0, 0.0)
        assert "simulator._propagator_arrays" in tracer.missing
        assert "modal.propagator.calls" not in metrics
        assert "gain_bounds.scans" in metrics



