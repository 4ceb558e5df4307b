"""Spans around the package's layer boundaries, taken from outside the package.

Modules bind each other's functions with `from .x import f`, so one function
is looked up under several module namespaces. Tracer.install replaces the
function in every namespace listed in SITES with a wrapper that records a
span named `<function>@<namespace>`, one name per caller: the spike-search
scans (`numerics.refine_local_maxima@gain_bounds`) stay apart from the
x-refinement inside sup_gain_at (`...@freq_response`). A name missing from
the package is skipped and the metrics built on it are reported as absent.

Spans (name, start, end, parent, op id, plus one count and one value) are
kept in flat arrays in memory and written out once, by save(), when the run
ends. layer_metrics turns them into per-op means; self time is a span's
duration minus the durations of its child spans.
"""

import importlib
import threading
import time
from array import array

import numpy as np

# layer function -> the (module, attribute) names through which it is called
SITES = {
    "cli.main": (("cli", "main"),),
    "gain_bounds.gain_bounds": (("cli", "gain_bounds"),
                                ("gain_bounds", "gain_bounds")),
    "gain_bounds.lower_sup": (("gain_bounds", "lower_sup"),),
    "gain_bounds.lower_l2": (("gain_bounds", "lower_l2"),),
    "gain_bounds.upper_sup": (("gain_bounds", "upper_sup"),),
    "gain_bounds.upper_l2": (("gain_bounds", "upper_l2"),),
    "freq_response.sup_gain_at": (("gain_bounds", "sup_gain_at"),
                                  ("freq_response", "sup_gain_at"),
                                  ("cli", "sup_gain_at"),
                                  ("simulator", "sup_gain_at")),
    "freq_response.l2_stats_at": (("gain_bounds", "l2_stats_at"),
                                  ("freq_response", "l2_stats_at"),
                                  ("cli", "l2_stats_at"),
                                  ("simulator", "l2_stats_at")),
    "numerics.refine_local_maxima": (("gain_bounds", "refine_local_maxima"),
                                     ("freq_response", "refine_local_maxima")),
    "numerics.golden_max": (("_numerics", "golden_max"),),
    "simulator.simulate": (("cli", "simulate"),),
    "modal.propagator": (("simulator", "_propagator_arrays"),),
    "modal.particular": (("simulator", "_particular_arrays"),),
    "numerics.composite_simpson": (("simulator", "composite_simpson"),
                                   ("verify", "composite_simpson")),
    "modal.modal_kernel_l1": (("modal", "modal_kernel_l1"),),
    "numerics.adaptive_simpson": (("modal", "adaptive_simpson"),),
    "verify.run_suites": (("verify", "run_suites"),),
}

SUITES = ("ode-residual", "profile-identity", "l2-stats-identity", "parseval",
          "kernel-l1", "duality", "corollaries", "orderings")
SIM_KINDS = {"sinusoid": 0, "constant": 1, "piecewise_linear": 2}
INV_SQRT3 = 3.0 ** -0.5

# Per-layer metrics: name -> (unit, the layer functions it is built from).
# Counts and seconds are means per traced op; self_s by disturbance kind is
# a mean per simulate call of that kind.
_CALLS_S = ("freq_response.sup_gain_at", "freq_response.l2_stats_at",
            "modal.propagator", "modal.particular",
            "numerics.composite_simpson", "modal.modal_kernel_l1",
            "numerics.adaptive_simpson")
METRICS = {}
for _f in _CALLS_S:
    METRICS[f"{_f}.calls"] = ("count/op", (_f,))
    METRICS[f"{_f}.s"] = ("s/op", (_f,))
for _f in ("numerics.golden_max", "numerics.refine_local_maxima"):
    METRICS[f"{_f}.calls"] = ("count/op", (_f,))
    METRICS[f"{_f}.self_s"] = ("s/op", (_f,))
_SEARCH = ("gain_bounds.lower_sup", "gain_bounds.lower_l2",
           "numerics.refine_local_maxima")
METRICS.update({
    "gain_bounds.lower_sup.s": ("s/op", ("gain_bounds.lower_sup",)),
    "gain_bounds.lower_l2.s": ("s/op", ("gain_bounds.lower_l2",)),
    "gain_bounds.scans": ("count/op", _SEARCH),
    "gain_bounds.scan_points": ("count/op", _SEARCH),
    "gain_bounds.omega_refinements": ("count/op",
                                      _SEARCH + ("numerics.golden_max",)),
    "gain_bounds.useful_scan_ratio": ("ratio", _SEARCH),
    "gain_bounds.upper_l2.s": ("s/op", ("gain_bounds.upper_l2",)),
    "gain_bounds.upper_l2.terms": ("count/op", ("gain_bounds.upper_l2",)),
    "gain_bounds.upper_sup.s": ("s/op", ("gain_bounds.upper_sup",)),
    "simulator.simulate.calls": ("count/op", ("simulator.simulate",)),
    "simulator.simulate.s": ("s/op", ("simulator.simulate",)),
    "simulator.simulate.self_s": ("s/op", ("simulator.simulate",)),
    "simulator.simulate.self_s.sinusoid": ("s/call", ("simulator.simulate",)),
    "simulator.simulate.self_s.constant": ("s/call", ("simulator.simulate",)),
    "simulator.simulate.self_s.knots": ("s/call", ("simulator.simulate",)),
    "simulator.output_steps": ("count/op", ("simulator.simulate",)),
})
for _s in SUITES:
    METRICS[f"verify.{_s}.s"] = ("s/op", ("verify.run_suites",))
METRICS.update({
    "cli.self_s": ("s/op", ("cli.main",)),
    "cli.bytes_out": ("bytes/op", ("cli.main",)),
    "trace_overhead_frac": ("ratio", ()),
})


def _refine_attrs(args, kwargs, out):
    return len(args[1]), float(out[1])


def _upper_l2_attrs(args, kwargs, out):
    return int(getattr(out, "terms", 0)), 0.0


def _simulate_attrs(args, kwargs, out):
    kind = SIM_KINDS.get(getattr(args[1], "kind", None), -1)
    return len(out.t), float(kind)


# span attributes (count, value) taken from a call's arguments and result
_ATTRS = {
    "numerics.refine_local_maxima@gain_bounds": _refine_attrs,
    "gain_bounds.upper_l2@gain_bounds": _upper_l2_attrs,
    "simulator.simulate@cli": _simulate_attrs,
}


class Tracer:
    """Span recorder for one traced run; install() patches, remove() restores."""

    def __init__(self):
        self.names = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.count = array("q")
        self.value = array("d")
        self.suite_seconds = []  # {suite: seconds} per run_suites call
        self.current_op = -1
        self.installed = set()   # layer functions with at least one site
        self.missing = []        # "module.attribute" names not found
        self._wrappers = None    # (module, attribute, original, wrapper)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """fn wrapped so that each call records one span called `name`."""
        nid = len(self.names)
        self.names.append(name)
        names, start, end, parent = self.name, self.start, self.end, self.parent
        op, count, value = self.op, self.count, self.value
        clock, stack_of, tracer = time.perf_counter, self._stack, self

        def traced(*args, **kwargs):
            stack = stack_of()
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            count.append(0)
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if attrs is not None:
                count[idx], value[idx] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every site that exists in the package; record those missing.

        The wrappers are built on the first call and reused afterwards.
        """
        if self._wrappers is None:
            self._wrappers = []
            for func, sites in SITES.items():
                for module_name, attr in sites:
                    try:
                        module = importlib.import_module(f"wavegain.{module_name}")
                    except ImportError:
                        module = None
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    name = f"{func}@{module_name}"
                    inner = (self._recording_suites(original)
                             if func == "verify.run_suites" else original)
                    self._wrappers.append(
                        (module, attr, original,
                         self.wrap(name, inner, _ATTRS.get(name))))
                    self.installed.add(func)
        for module, attr, _, wrapped in self._wrappers:
            setattr(module, attr, wrapped)

    def _recording_suites(self, run_suites):
        """run_suites that also keeps each suite's own SuiteResult.seconds."""
        def recorded(*args, **kwargs):
            results = run_suites(*args, **kwargs)
            self.suite_seconds.append({r.name: r.seconds for r in results})
            return results
        return recorded

    def remove(self):
        for module, attr, original, _ in self._wrappers or ():
            setattr(module, attr, original)

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "count": np.frombuffer(self.count, dtype=np.int64),
                "value": np.frombuffer(self.value, dtype=np.float64)}

    def save(self, path):
        """Write all spans and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    children = np.bincount(spans["parent"][has_parent],
                           weights=dur[has_parent], minlength=dur.size)
    return dur - children


def layer_metrics(tracer, n_ops, bytes_out, overhead_frac):
    """Per-layer metrics as {name: (value, unit)}; absent layers are left out.

    n_ops is the number of traced ops, bytes_out their total output bytes.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    name, parent, count, value = (spans["name"], spans["parent"],
                                  spans["count"], spans["value"])
    func_of = [n.split("@")[0] for n in tracer.names]

    def ids(*funcs):
        return [i for i, f in enumerate(func_of) if f in funcs]

    def mask(*funcs):
        return np.isin(name, ids(*funcs))

    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for func in SITES:
        m = mask(func)
        out[f"{func}.calls"] = m.sum() * per_op
        out[f"{func}.s"] = dur[m].sum() * per_op
        out[f"{func}.self_s"] = own[m].sum() * per_op

    # spike-search scans: refine_local_maxima called from lower_sup/lower_l2
    searches = np.nonzero(mask("gain_bounds.lower_sup", "gain_bounds.lower_l2"))[0]
    scan = (np.isin(name, [i for i, n in enumerate(tracer.names)
                           if n == "numerics.refine_local_maxima@gain_bounds"])
            & np.isin(parent, searches))
    # replay the search's strict-improvement rule on each scan's best value
    limit = {int(i): (1.0 if func_of[name[i]] == "gain_bounds.lower_sup"
                      else INV_SQRT3) for i in searches}
    useful = 0
    for i in np.nonzero(scan)[0]:
        p = int(parent[i])
        if value[i] > limit[p]:
            useful += 1
            limit[p] = float(value[i])
    n_scans = int(scan.sum())
    out["gain_bounds.scans"] = n_scans * per_op
    out["gain_bounds.scan_points"] = count[scan].sum() * per_op
    out["gain_bounds.omega_refinements"] = (
        (mask("numerics.golden_max") & np.isin(parent, np.nonzero(scan)[0])).sum()
        * per_op)
    out["gain_bounds.useful_scan_ratio"] = useful / n_scans if n_scans else 0.0
    out["gain_bounds.upper_l2.terms"] = count[mask("gain_bounds.upper_l2")].sum() * per_op

    sim = mask("simulator.simulate")
    out["simulator.output_steps"] = count[sim].sum() * per_op
    for kind, code in (("sinusoid", 0), ("constant", 1), ("knots", 2)):
        k = sim & (value == code)
        out[f"simulator.simulate.self_s.{kind}"] = own[k].mean() if k.any() else 0.0

    for suite in SUITES:
        out[f"verify.{suite}.s"] = sum(
            r.get(suite, 0.0) for r in tracer.suite_seconds) * per_op
    root = mask("cli.main")
    out["cli.self_s"] = own[root].sum() * per_op
    out["cli.bytes_out"] = bytes_out * per_op
    out["trace_overhead_frac"] = overhead_frac

    return {k: (float(out[k]), unit) for k, (unit, funcs) in METRICS.items()
            if all(f in tracer.installed for f in funcs)}
