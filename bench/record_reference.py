"""Record the seed-0 reference outputs that later runs are compared against.

    python3 bench/record_reference.py

Runs the first ops of each workload under seed 0, checks them, and writes
their argv and values (bounds: the four bounds; bode and simulate: sampled
CSV rows and the sidecar gains) to bench/reference_seed0.json. verify has no
recorded values: its check is that every suite passes. Rerun only when the
generators change; the point of the file is that it stays fixed.
"""

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE, REFERENCE_SEED, read_files, run_op  # noqa: E402

# more ops than a run on the reference machine completes
OPS = {"bounds": 96, "bode": 320, "simulate": 72, "verify": 0}


def main():
    import wavegain.cli as cli
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        os.chdir(tmp)
        for name, count in OPS.items():
            entries = []
            for i in range(count):
                argv = workloads.op_argv(name, REFERENCE_SEED, i)
                rc, _, stdout, files, error = run_op(cli, argv, "")
                files = read_files(files)
                probs = check.check_op(argv, rc, stdout, files)
                if probs or error:
                    raise SystemExit(f"{name} op {i} failed: {probs} {error}")
                entries.append({"argv": argv, "values":
                                check.reference_entry(argv, stdout, files)})
            reference[name] = entries
            print(f"{name}: {count} ops recorded")
        os.chdir(BENCH_DIR)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
