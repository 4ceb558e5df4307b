"""wavegain benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload bounds --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. Set-up is timed first: `import
wavegain.cli` in several fresh processes. Then a fresh worker process runs
the closed loop (bench/worker.py) and checks every output. Prints one line
per metric (name, value, unit, notes) and, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Set-up and op times
are scaled by a calibration job timed next to them (bench/README.md, "Machine
speed"); a `raw` line gives the unscaled values. Exits 2 without a result
when the checkout holds no wavegain sources, 1 when the worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # fresh-process imports per run
TAIL_BEYOND = 10   # the tail percentile keeps this many ops above it
# Times `import wavegain.cli` in a fresh interpreter, then the calibration job
# of bench/worker.py on the same core; prints the import time scaled the way
# op times are, and the raw import time.
PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import wavegain.cli
import_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from worker import CALIBRATION_REF_S, calibration_s
print(import_s * CALIBRATION_REF_S / calibration_s(), import_s)
"""


def _env():
    env = dict(os.environ)
    env.pop("WAVEGAIN_PARALLEL", None)  # bode runs at its default --parallel
    return env


def setup_samples(count):
    """(scaled, raw) seconds of `import wavegain.cli` in `count` fresh
    processes, or None if an import fails."""
    samples = []
    # one discarded probe first, so bytecode is compiled and files cached
    for _ in range(count + 1):
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC, BENCH_DIR],
                              env=_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        samples.append(tuple(float(v) for v in proc.stdout.split()))
    return samples[1:]


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above.

    With TAIL_BEYOND ops or fewer no percentile qualifies; the minimum is
    reported then, which keeps the value continuous as the op count falls.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * max(n - TAIL_BEYOND, 0) / n


def scaled_seconds(result):
    """Op seconds rescaled to the speed at which the calibration job takes
    the worker's reference time (see bench/worker.py)."""
    ref = result["calibration_ref_s"]
    return [op["seconds"] * ref / op["calibration_s"] for op in result["ops"]]


def raw_metrics(result, setup):
    """setup_s, items_per_s, op_s.p50 and op_s.tail unscaled, with
    items_per_s over the loop's wall time."""
    ops = result["ops"]
    raw = [op["seconds"] for op in ops]
    good_items = sum(op["items"] for op in ops if not op["problems"])
    return {"setup_s": statistics.median(r for _, r in setup),
            "items_per_s": good_items / result["wall_s"],
            "op_s.p50": statistics.median(raw), "op_s.tail": tail(raw)[0]}


def end_to_end(result, setup):
    """{name: (value, unit, note)} from an untraced worker result and the
    set-up samples. Times and items_per_s are scaled (scaled_seconds); the
    notes give the raw values of raw_metrics."""
    ops = result["ops"]
    lat = scaled_seconds(result)
    raw = raw_metrics(result, setup)
    good_items = sum(op["items"] for op in ops if not op["problems"])
    tail_s, pct = tail(lat)
    failed = sum(1 for op in ops if op["problems"])
    return {
        "setup_s": (statistics.median(s for s, _ in setup), "s",
                    f"median of {len(setup)} fresh-process imports; "
                    f"raw {raw['setup_s']:.6g}"),
        "items_per_s": (good_items / sum(lat), "items/s",
                        f"{good_items} items; raw {raw['items_per_s']:.6g} "
                        f"over {result['wall_s']:.3f} s of loop wall time"),
        "op_s.p50": (statistics.median(lat), "s",
                     f"n={len(lat)}; raw {raw['op_s.p50']:.6g}"),
        "op_s.tail": (tail_s, "s",
                      f"p{pct:.1f}, n={len(lat)}; raw {raw['op_s.tail']:.6g}"),
        "failed_frac": (failed / len(ops), "ratio", f"{failed}/{len(ops)} ops"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "worker ru_maxrss"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wavegain", "cli.py")):
        print(f"error: no wavegain sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    setup = [] if args.trace else setup_samples(SETUP_SAMPLES)
    if setup is None:
        print("error: import wavegain.cli failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), SRC, work,
             args.workload, str(args.seed), repr(args.seconds), str(args.trace)],
            env=_env(), capture_output=True, text=True,
            timeout=args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    for op in failed[:5]:
        print(f"FAILED op {op['index']}: {'; '.join(op['problems'])}")
    cal = statistics.median(op["calibration_s"] for op in ops)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={len(ops)} "
          f"worker_import_s={result['import_s']:.4f} calibration_s={cal:.6f}")
    if args.trace:
        metrics = {k: (v, unit, "") for k, (v, unit) in result["layers"].items()}
        print(f"spans={result['spans']} missing_sites={result['missing_sites']}")
    else:
        metrics = end_to_end(result, setup)
        print("raw " + json.dumps(raw_metrics(result, setup)))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value!r:>24} {unit:<9} {note}")
    # failed_frac travels as failed/attempted: it is 0 on a correct program
    reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                if k != "failed_frac"}
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
