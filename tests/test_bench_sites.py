"""The benchmark's patch sites resolve in the package.

bench/spans.py times the package's layers by replacing functions in the
module namespaces its SITES table lists. A site that no longer resolves is
skipped, and every per-layer metric built on it drops out of a traced run's
result. These tests load that file as it is, install its tracer for a
moment, and check that each per-layer metric of BENCHMARK.json is still
produced, so that a renamed or deleted layer fails here first. The last
test runs one real op of each workload under the tracer, as a traced
benchmark run does.
"""

import contextlib
import importlib.util
import io
import json
import math
import os

import wavegain.cli as cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sites that SITES still lists but the package no longer has: the batched
# kernels of freq_response made the first two and the last one obsolete
KNOWN_MISSING = {"simulator.sup_gain_at", "simulator.l2_stats_at",
                 "freq_response.refine_local_maxima"}


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


def installed_tracer(spans):
    """A tracer that has resolved every site; the package is left as it was."""
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    return tracer


def test_every_patch_site_resolves_but_the_known_missing():
    spans = load_spans()
    tracer = installed_tracer(spans)
    assert set(tracer.missing) == KNOWN_MISSING
    assert len(tracer.missing) == len(KNOWN_MISSING)
    assert tracer.installed == set(spans.SITES)


def test_every_benchmark_layer_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    spans = load_spans()
    metrics = spans.layer_metrics(installed_tracer(spans), 0, 0, 0.0)
    assert set(metrics) == names
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_traced_ops_give_every_layer_metric_as_strict_json(tmp_path, monkeypatch):
    # one real op of each workload under the tracer, as bench/worker.py runs
    # them; the metrics must pass a strict JSON encoder, as in the result
    # line that bench/run.py prints last (json.dumps would write NaN)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    spans, workloads = load_spans(), load_bench("workloads")
    monkeypatch.chdir(tmp_path)
    tracer = spans.Tracer()
    bytes_out = 0
    for index, name in enumerate(("bounds", "bode", "simulate", "verify")):
        argv = workloads.op_argv(name, 0, 0)
        out = io.StringIO()
        tracer.current_op = index
        tracer.install()
        try:
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0, argv
        finally:
            tracer.remove()
        bytes_out += len(out.getvalue().encode()) + sum(
            os.path.getsize(f) for f in os.listdir(tmp_path))
        for f in os.listdir(tmp_path):
            os.remove(f)
    metrics = spans.layer_metrics(tracer, 4, bytes_out, 0.0)
    assert set(metrics) == names
    # each op reached the layers its workload stresses
    assert metrics["gain_bounds.scans"][0] > 0.0
    assert metrics["freq_response.sup_gain_at.calls"][0] > 0.0
    assert metrics["simulator.simulate.calls"][0] == 0.25
    assert metrics["modal.modal_kernel_l1.calls"][0] > 0.0
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    json.dumps({"metrics": reported}, allow_nan=False)
