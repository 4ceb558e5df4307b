"""The benchmark's patch sites resolve in the package.

bench/spans.py times the package's layers by replacing functions in the
module namespaces its SITES table lists. A site that no longer resolves is
skipped, and every per-layer metric built on it drops out of a traced run's
result. These tests load that file as it is, install its tracer for a
moment, and check that each per-layer metric of BENCHMARK.json is still
produced, so that a renamed or deleted layer fails here first.
"""

import importlib.util
import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sites that SITES still lists but the package no longer has: the batched
# kernels of freq_response made the first two and the last one obsolete
KNOWN_MISSING = {"simulator.sup_gain_at", "simulator.l2_stats_at",
                 "freq_response.refine_local_maxima"}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

