"""Output checker: invariants for every op, reference values for seed 0.

check_op returns a list of problems (empty when the op's output is correct).
compare_reference holds an op's output against the values recorded at the
commit that defined the benchmark; reference_entry extracts those values.
"""

import json
import math

from workloads import BODE_OUT, SIDECAR_OUT, SIM_OUT, items

INV_SQRT3 = 1.0 / math.sqrt(3.0)
SLACK = 1e-9           # rounding slack the package allows on its orderings
L2_FLOOR_SLACK = 1e-6  # the package's own slack on the L_2 >= 1/sqrt(3) floor
BOUNDS_KEYS = ("sigma", "mu", "L_inf", "L_inf_conditional", "U_inf", "L_2",
               "U_2", "argmax_omega_sup", "argmax_omega_l2")
BODE_HEADER = "omega,A_sup,Q_l2,ln_A_sup,ln_Q_l2"
SIM_HEADER = "t,sup_norm,l2_norm"
SIDECAR_KEYS = ("sigma", "mu", "disturbance", "n_modes", "burn_in",
                "empirical_gain_sup", "empirical_gain_l2",
                "truncation_tail_estimate")
# reference rows kept per CSV: every STRIDE-th row plus the last one
BODE_STRIDE = 50
SIM_STRIDE = 25


def _arg(argv, flag):
    return float(argv[argv.index(flag) + 1])


def _finite_rows(text, header, width):
    """Parse a CSV body into float rows; raise ValueError on any defect."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        raise ValueError(f"header is {lines[:1]!r}, expected {header!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {line!r} has {len(cells)} cells")
        row = [float(c) for c in cells]
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"non-finite value in row {line!r}")
        rows.append(row)
    return rows


def _check_bounds(argv, stdout):
    b = json.loads(stdout)
    missing = [k for k in BOUNDS_KEYS if k not in b]
    if missing:
        return [f"missing keys {missing}"]
    sigma, mu = _arg(argv, "--sigma"), _arg(argv, "--mu")
    l_inf, u_inf, l_2, u_2 = b["L_inf"], b["U_inf"], b["L_2"], b["U_2"]
    probs = []
    if b["sigma"] != sigma or b["mu"] != mu:
        probs.append("echoed sigma/mu differ from the request")
    if not (l_2 <= u_2 + SLACK):
        probs.append(f"L_2={l_2} > U_2={u_2}")
    if not (l_2 <= l_inf + SLACK):
        probs.append(f"L_2={l_2} > L_inf={l_inf}")
    if u_inf is not None and not (l_inf <= u_inf + SLACK):
        probs.append(f"L_inf={l_inf} > U_inf={u_inf}")
    if not (l_inf >= 1.0 - SLACK):
        probs.append(f"L_inf={l_inf} below the floor 1")
    if not (l_2 >= INV_SQRT3 - L2_FLOOR_SLACK):
        probs.append(f"L_2={l_2} below the floor 1/sqrt(3)")
    if mu * sigma >= 1.0:
        for key, val, exact in (("L_inf", l_inf, 1.0), ("L_2", l_2, INV_SQRT3),
                                ("U_2", u_2, INV_SQRT3)):
            if abs(val - exact) > SLACK:
                probs.append(f"{key}={val} but mu*sigma >= 1 forces {exact}")
    return probs


def _check_bode(argv, text):
    rows = _finite_rows(text, BODE_HEADER, 5)
    probs = []
    if len(rows) != items(argv):
        probs.append(f"{len(rows)} rows, expected {items(argv)}")
    if rows and (rows[0][0] != _arg(argv, "--omega-min")
                 or rows[-1][0] != _arg(argv, "--omega-max")):
        probs.append("omega grid misses its endpoints")
    for w, a_sup, q, _, _ in rows:
        if not (a_sup >= 1.0):
            probs.append(f"A_sup={a_sup} < 1 at omega={w}")
            break
        if not (q > 0.0):
            probs.append(f"Q_l2={q} <= 0 at omega={w}")
            break
    return probs


def _check_simulate(argv, csv_text, sidecar_text):
    rows = _finite_rows(csv_text, SIM_HEADER, 3)
    probs = []
    if len(rows) != items(argv):
        probs.append(f"{len(rows)} rows, expected {items(argv)}")
    if rows and rows[0][0] != 0.0:
        probs.append("time axis does not start at 0")
    if any(r[1] < 0.0 or r[2] < 0.0 for r in rows):
        probs.append("negative norm")
    side = json.loads(sidecar_text)
    missing = [k for k in SIDECAR_KEYS if k not in side]
    if missing:
        probs.append(f"sidecar lacks {missing}")
    else:
        for key in ("empirical_gain_sup", "empirical_gain_l2"):
            val = side[key]
            if not (isinstance(val, float) and math.isfinite(val) and val > 0):
                probs.append(f"sidecar {key}={val!r}")
    return probs


def _check_verify(stdout):
    lines = stdout.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    probs = [f"suite line {ln!r}" for ln in lines[:-1]
             if not ln.startswith("PASS ")]
    if len(passes) != items(["verify"]):
        probs.append(f"{len(passes)} suites passed, expected {items(['verify'])}")
    if not lines or not lines[-1].startswith("all suites passed"):
        probs.append("summary line does not report all suites passed")
    return probs


def check_op(argv, rc, stdout, files):
    """Problems with one op's output; files maps output name -> text."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        cmd = argv[0]
        if cmd == "bounds":
            return _check_bounds(argv, stdout)
        if cmd == "bode":
            return _check_bode(argv, files[BODE_OUT])
        if cmd == "simulate":
            return _check_simulate(argv, files[SIM_OUT], files[SIDECAR_OUT])
        return _check_verify(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def same_output(argv, a, b):
    """Whether two executions of one op gave the same (rc, stdout, files).

    verify prints each suite's wall time, so only its other fields count.
    """
    if argv[0] != "verify":
        return a == b
    strip = [ln.split("(")[0] for ln in a[1].splitlines()], \
        [ln.split("(")[0] for ln in b[1].splitlines()]
    return a[0] == b[0] and strip[0] == strip[1]


def _sample_rows(text, stride):
    rows = text.split("\n")[1:-1]
    keep = rows[::stride]
    if (len(rows) - 1) % stride:
        keep.append(rows[-1])
    return [[float(c) for c in r.split(",")] for r in keep]


def reference_entry(argv, stdout, files):
    """The values of one op that later commits are compared against."""
    cmd = argv[0]
    if cmd == "bounds":
        b = json.loads(stdout)
        return {"L_inf": b["L_inf"], "U_inf": b["U_inf"], "L_2": b["L_2"],
                "U_2": b["U_2"]}
    if cmd == "bode":
        return {"rows": _sample_rows(files[BODE_OUT], BODE_STRIDE)}
    if cmd == "simulate":
        side = json.loads(files[SIDECAR_OUT])
        return {"rows": _sample_rows(files[SIM_OUT], SIM_STRIDE),
                "gains": [side["empirical_gain_sup"], side["empirical_gain_l2"],
                          side["truncation_tail_estimate"]]}
    return {}


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_reference(argv, stdout, files, ref):
    """Problems of one op against its recorded reference entry."""
    if ref["argv"] != argv:
        return ["reference was recorded for a different argv"]
    try:
        got = reference_entry(argv, stdout, files)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    want = ref["values"]
    probs = []
    if argv[0] == "bounds":
        if not _rel_close(got["U_2"], want["U_2"], 1e-7):
            probs.append(f"U_2={got['U_2']} vs reference {want['U_2']}")
        for key in ("L_inf", "L_2"):  # a lower bound may only improve
            if got[key] < want[key] - SLACK:
                probs.append(f"{key}={got[key]} below reference {want[key]}")
        if (got["U_inf"] is None) != (want["U_inf"] is None) or (
                got["U_inf"] is not None
                and got["U_inf"] > want["U_inf"] * (1 + SLACK)):
            probs.append(f"U_inf={got['U_inf']} vs reference {want['U_inf']}")
        return probs
    flat_got = [v for row in got.get("rows", []) for v in row] + got.get("gains", [])
    flat_want = [v for row in want.get("rows", []) for v in row] + want.get("gains", [])
    if len(flat_got) != len(flat_want):
        return [f"{len(flat_got)} reference values, expected {len(flat_want)}"]
    bad = [(g, w) for g, w in zip(flat_got, flat_want) if not _rel_close(g, w, 1e-9)]
    if bad:
        probs.append(f"{len(bad)} values differ from the reference beyond "
                     f"rel 1e-9, first {bad[0]}")
    return probs
