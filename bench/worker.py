"""One benchmark run in a fresh process: a closed loop of CLI calls.

    python3 bench/worker.py <src dir> <work dir> <workload> <seed> <seconds> <trace>

One client sends the next op only after the previous one returns. An op is
one call to wavegain.cli.main(argv), run in the work directory with stdout
captured in memory; its output files are kept there under per-op names.
Ops are timed while the loop runs and checked after the loop ends. With
trace=1 every op runs twice, untraced and traced in alternating order, so the
tracing overhead is measured on the same inputs; the traced half gives the
per-layer metrics.

Prints one JSON object: per-op latencies, items and problems, the loop wall
time, the import time of wavegain.cli, peak RSS at the end of the loop, and
with trace=1 the layer metrics.

The host's CPU speed changes by up to 2x within seconds, and each core
changes on its own. So a short calibration job that does not use the package
(`calibration_s`) runs on the same core after every execution, and each
execution records the mean of the two jobs around it. run.py rescales op
times by that mean to the speed at which the job takes CALIBRATION_REF_S.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import check
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference_seed0.json")
REFERENCE_SEED = 0
OUT_FILES = (workloads.BODE_OUT, workloads.SIM_OUT, workloads.SIDECAR_OUT)
# Calibration job: numpy calls on a short vector and on a field-sized array,
# the kinds of work the package does. The speed of simulate ops follows the
# array part and hardly follows interpreter loops. The job does not use the
# package, so a change to the package cannot move it. Scaled times are seconds
# at the speed at which the job takes CALIBRATION_REF_S, a round number near
# its time on the machine of BASELINE.json.
CALIBRATION_X = np.linspace(0.0, 1.0, 1024)
CALIBRATION_FIELD = np.linspace(0.0, 1.0, 64 * 201).reshape(64, 201)
CALIBRATION_REF_S = 1e-3


def calibration_s():
    """Seconds of the calibration job. It runs twice and only the second run
    counts, so the cache misses the op before it left are not timed."""
    x, field = CALIBRATION_X, CALIBRATION_FIELD
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(25):
            np.sin(x * 3.1).sum()
        for _ in range(40):
            (field * 1.0001 + field).sum(axis=0)
    return time.perf_counter() - t0


def run_op(cli, argv, keep_as):
    """Run one CLI call in the current directory.

    Returns (exit code, seconds, stdout, files, error); the output files the
    call wrote are renamed to keep_as + name, and files maps each output
    name to that path.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crashed op is a failed op, not a crashed run
            rc, error = -1, repr(exc)
        except SystemExit as exc:  # argparse exits on usage errors
            rc, error = exc.code, "SystemExit"
        seconds = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = err.getvalue().strip()
    files = {}
    for name in OUT_FILES:
        if os.path.exists(name):
            files[name] = keep_as + name
            os.replace(name, files[name])
    return rc, seconds, out.getvalue(), files, error


def read_files(files):
    """{output name: text} for a files map returned by run_op."""
    texts = {}
    for name, path in files.items():
        with open(path, encoding="utf-8") as fh:
            texts[name] = fh.read()
    return texts


def main(src, work, workload, seed, seconds, trace):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import wavegain.cli as cli
    import_s = time.perf_counter() - t0

    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()

    ops = []
    runs = {}  # op index -> (argv, [(rc, stdout, files) per execution])
    plain_s = traced_s = 0.0
    traced_bytes = n_traced = 0
    cal_before = calibration_s()
    cal_total = 0.0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        argv = workloads.op_argv(workload, seed, index)
        # with tracing, untraced first on even ops and traced first on odd ops
        modes = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
        runs[index] = (argv, [])
        for traced in modes:
            if traced:
                tracer.current_op = index
                tracer.install()
            try:
                rc, op_s, stdout, files, error = run_op(
                    cli, argv, f"{index}.{int(traced)}.")
            finally:
                if traced:
                    tracer.remove()
            if traced:
                traced_s += op_s
                traced_bytes += len(stdout.encode()) + sum(
                    os.path.getsize(p) for p in files.values())
                n_traced += 1
            else:
                plain_s += op_s
            t0 = time.perf_counter()
            cal_after = calibration_s()
            cal_total += time.perf_counter() - t0
            runs[index][1].append((rc, stdout, files))
            ops.append({"index": index, "traced": traced, "seconds": op_s,
                        "calibration_s": 0.5 * (cal_before + cal_after),
                        "items": workloads.items(argv), "error": error})
            cal_before = cal_after
        index += 1
    wall_s = time.perf_counter() - start - cal_total
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # check every output after the timed loop
    reference = None
    if seed == REFERENCE_SEED and os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload]
    problems = {}
    for i, (argv, execs) in runs.items():
        outputs = [(rc, stdout, read_files(files)) for rc, stdout, files in execs]
        rc, stdout, texts = outputs[0]
        probs = check.check_op(argv, rc, stdout, texts)
        if any(not check.same_output(argv, o, outputs[0]) for o in outputs):
            probs.append("traced output differs from untraced output")
        if reference is not None and i < len(reference):
            probs += check.compare_reference(argv, stdout, texts, reference[i])
        problems[i] = probs
    for op in ops:
        op["problems"] = problems[op["index"]] + ([op["error"]] if op["error"] else [])
        del op["error"]

    result = {"import_s": import_s, "wall_s": wall_s, "ops": ops,
              "peak_rss_mb": peak_rss_mb,
              "calibration_ref_s": CALIBRATION_REF_S}
    if trace:
        # items/s untraced over items/s traced, on the same ops, minus 1
        overhead = traced_s / plain_s - 1.0
        result["layers"] = spans.layer_metrics(tracer, n_traced, traced_bytes,
                                               overhead)
        result["missing_sites"] = tracer.missing
        result["spans"] = len(tracer.start)
        tracer.save(os.path.join(os.path.dirname(work), f"trace-{workload}.npz"))
    return result


if __name__ == "__main__":
    src_dir, work_dir, name, seed_s, secs, trace_flag = sys.argv[1:7]
    res = main(src_dir, work_dir, name, int(seed_s), float(secs), trace_flag == "1")
    sys.stdout.write(json.dumps(res) + "\n")
