"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/report.py --workloads bounds bode simulate verify \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seed 0 --out bench/BASELINE.json

For each workload, runs bench/run.py untraced once per seed and prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median), and the same for the unscaled values of the
`raw` line. failed_frac is failed/attempted summed over the
runs. With --trace-seed, one traced run per workload adds the per-layer
metrics. --out writes all of it, with the machine, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["bounds", "bode", "simulate", "verify"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"machine": machine(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        outs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        runs = [res for res, _ in outs]
        raws = [json.loads(next(ln[4:] for ln in lines if ln.startswith("raw ")))
                for _, lines in outs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"failed_frac": {"value": failed / attempted, "unit": "ratio",
                                 "failed": failed, "attempted": attempted},
                 "end_to_end": {}, "raw": {}}
        print(f"{workload}: failed_frac {failed}/{attempted}")
        for name, m in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            entry["end_to_end"][name] = s
            ok = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<14} median {s['median']:<22.6g} {m['unit']:<8} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){ok}")
        for name in raws[0]:
            s = summarize([r[name] for r in raws])
            entry["raw"][name] = s
            print(f"  raw {name:<10} median {s['median']:<22.6g} "
                  f"spread {s['spread']:.4f}")
        if args.trace_seed is not None:
            traced, lines = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "attempted": traced["attempted"],
                                  "failed": traced["failed"],
                                  "metrics": traced["metrics"]}
            for line in lines:
                print(f"  {line}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
