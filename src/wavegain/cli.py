"""Command-line interface: bounds, Bode sweeps, mu sweeps, simulation, verify.

Outputs are plain CSV/JSON with shortest round-trip float formatting, byte
identical across runs. Flags override an optional key=value config file,
which overrides built-in defaults. Exit codes: 0 success, 1 verification
failure, 2 usage, I/O or float-range error.

    wavegain bounds --sigma 1 --mu 1 --json
    wavegain bode --sigma 1e-4 --mu 0.05 --omega-min 0.5 --omega-max 13 \
        --points 20000 --out bode.csv
    wavegain sweep --sigma 1 --mu-min 0 --mu-max 4 --points 81 --out sweep.csv
    wavegain simulate --sigma 1 --mu 0 --omega 5 --t-final 40 --out sim.csv
    wavegain verify --quick
"""

import argparse
import json
import math
import sys

from .freq_response import DampingParams, sup_gain_at, l2_stats_at
from .gain_bounds import FrequencySearchConfig, gain_bounds
from .modal import DisturbanceSpec
from .simulator import SimConfig, simulate
from . import verify as verify_mod

__all__ = ["main", "cmd_bounds", "cmd_bode", "cmd_sweep", "cmd_simulate",
           "cmd_verify"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _read_config(path: str) -> dict:
    """Flat key=value file; keys mirror the long flag names."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, val = text.partition("=")
            values[key.strip().lstrip("-").replace("-", "_")] = val.strip()
    return values


def _merge(args: argparse.Namespace, spec: dict) -> dict:
    """Resolve option values: flag > config file > default."""
    config = _read_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(config) - set(spec)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (cast, default) in spec.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in config:
            out[key] = cast(config[key])
        else:
            out[key] = default
    return out


def _require(merged: dict, *keys):
    missing = [k for k in keys if merged[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required option(s): {flags}")


def _grid(lo: float, hi: float, points: int, scale: str):
    if points < 2:
        raise ValueError("points must be at least 2")
    if not (0.0 < lo < hi):
        raise ValueError(f"range endpoints must satisfy 0 < min < max, "
                         f"got [{lo}, {hi}]")
    if scale == "log":
        step = (math.log(hi) - math.log(lo)) / (points - 1)
        xs = [math.exp(math.log(lo) + i * step) for i in range(points)]
    else:
        step = (hi - lo) / (points - 1)
        xs = [lo + i * step for i in range(points)]
    xs[0], xs[-1] = lo, hi
    return xs


def _write_lines(path: str, lines):
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies (callable directly; return process exit codes)
# ---------------------------------------------------------------------------

def cmd_bounds(sigma, mu, as_json=False, stream=None) -> int:
    """Compute and print the four gain bounds for one parameter pair."""
    stream = stream or sys.stdout
    b = gain_bounds(DampingParams(sigma, mu))
    fields = [
        ("sigma", sigma), ("mu", mu),
        ("L_inf", b.L_inf), ("L_inf_conditional", b.L_inf_conditional),
        ("U_inf", b.U_inf), ("L_2", b.L_2), ("U_2", float(b.U_2)),
        ("argmax_omega_sup", b.argmax_omega_sup),
        ("argmax_omega_l2", b.argmax_omega_l2),
    ]
    if as_json:
        payload = {k: v for k, v in fields}
        stream.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    else:
        for key, val in fields:
            if isinstance(val, bool):
                text = "yes" if val else "no"
            elif val is None:
                text = "undefined"
            else:
                text = _fmt(val)
            stream.write(f"{key:<18} {text}\n")
    return EXIT_OK


def cmd_bode(sigma, mu, omega_min, omega_max, points, scale, out) -> int:
    """Per-frequency gains on a grid, as CSV (omega ascending)."""
    params = DampingParams(sigma, mu)
    omegas = _grid(omega_min, omega_max, points, scale)

    def row(w):
        a = sup_gain_at(params, w)
        q = l2_stats_at(params, w).Q
        return (f"{_fmt(w)},{_fmt(a)},{_fmt(q)},"
                f"{_fmt(math.log(a))},{_fmt(math.log(q))}")

    lines = ["omega,A_sup,Q_l2,ln_A_sup,ln_Q_l2"]
    lines += [row(w) for w in omegas]
    _write_lines(out, lines)
    return EXIT_OK


def cmd_sweep(sigma, mu_min, mu_max, points, out, search=None) -> int:
    """Bounds along a mu axis at fixed sigma, as CSV."""
    if points < 2:
        raise ValueError("points must be at least 2")
    if not (0.0 <= mu_min < mu_max):
        raise ValueError(f"mu range must satisfy 0 <= min < max, "
                         f"got [{mu_min}, {mu_max}]")
    step = (mu_max - mu_min) / (points - 1)
    mus = [mu_min + i * step for i in range(points)]
    mus[-1] = mu_max
    search = search or FrequencySearchConfig()

    def row(m):
        b = gain_bounds(DampingParams(sigma, m), search)
        u_inf = "" if b.U_inf is None else _fmt(b.U_inf)
        return (f"{_fmt(m)},{_fmt(sigma)},{_fmt(b.L_inf)},"
                f"{int(b.L_inf_conditional)},{u_inf},"
                f"{_fmt(b.L_2)},{_fmt(float(b.U_2))}")

    lines = ["mu,sigma,L_inf,L_inf_conditional,U_inf,L_2,U_2"]
    lines += [row(m) for m in mus]
    _write_lines(out, lines)
    return EXIT_OK


def _sidecar_path(out: str) -> str:
    return out[:-4] + ".json" if out.endswith(".csv") else out + ".json"


def cmd_simulate(sigma, mu, disturbance, out, n_modes=512, t_final=40.0,
                 dt_output=0.01, x_points=1024, burn_in=None) -> int:
    """Run the time-domain simulation; CSV of norms + JSON gain sidecar."""
    params = DampingParams(sigma, mu)
    config = SimConfig(n_modes=n_modes, t_final=t_final, dt_output=dt_output,
                       x_points=x_points, burn_in=burn_in)
    res = simulate(params, disturbance, config)

    lines = ["t,sup_norm,l2_norm"]
    lines += [f"{_fmt(t)},{_fmt(s)},{_fmt(l)}"
              for t, s, l in zip(res.t, res.sup_norm, res.l2_norm)]
    _write_lines(out, lines)

    dist = {"kind": disturbance.kind}
    if disturbance.kind == "sinusoid":
        dist.update(amplitude=disturbance.amplitude,
                    omega=disturbance.omega, phase=disturbance.phase)
    elif disturbance.kind == "constant":
        dist["level"] = disturbance.level
    else:
        dist["knots"] = [list(p) for p in disturbance.knots]
    payload = {
        "sigma": sigma,
        "mu": mu,
        "disturbance": dist,
        "n_modes": res.n_modes,
        "burn_in": res.burn_in,
        "empirical_gain_sup": res.empirical_gain_sup,
        "empirical_gain_l2": res.empirical_gain_l2,
        "truncation_tail_estimate": res.truncation_tail_estimate,
    }
    if disturbance.kind == "sinusoid" and res.empirical_gain_sup is not None:
        a = sup_gain_at(params, disturbance.omega)
        q = l2_stats_at(params, disturbance.omega).Q
        payload["analytic_gain_sup"] = a
        payload["analytic_gain_l2"] = q
        payload["rel_err_sup"] = abs(res.empirical_gain_sup - a) / a
        payload["rel_err_l2"] = abs(res.empirical_gain_l2 - q) / q
    if out == "-":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        with open(_sidecar_path(out), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(seed=None, quick=False, stream=None) -> int:
    """Run the cross-validation suites; exit 0 iff all pass."""
    stream = stream or sys.stdout
    seed = verify_mod.DEFAULT_SEED if seed is None else seed
    results = verify_mod.run_suites(seed=seed, quick=quick)
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        stream.write(f"{status}  {r.name:<18} worst {r.worst:.3e} "
                     f"(tol {r.tolerance:.0e}, {r.seconds:.1f}s)  {r.detail}\n")
    stream.write(("all suites passed" if all_pass else "FAILURES present")
                 + f" [seed {seed}{', quick' if quick else ''}]\n")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavegain",
        description="Gain bounds and frequency/time response of a boundary-"
                    "disturbed string with Kelvin-Voigt and viscous damping.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file with option defaults")

    p = sub.add_parser("bounds", help="the four gain bounds at one (sigma, mu)")
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--json", action="store_true")
    add_common(p)

    p = sub.add_parser("bode", help="per-frequency gain curves as CSV")
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--omega-min", type=float, dest="omega_min")
    p.add_argument("--omega-max", type=float, dest="omega_max")
    p.add_argument("--points", type=int)
    p.add_argument("--scale", choices=["linear", "log"])
    p.add_argument("--out")
    add_common(p)

    p = sub.add_parser("sweep", help="bounds along a mu axis as CSV")
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu-min", type=float, dest="mu_min")
    p.add_argument("--mu-max", type=float, dest="mu_max")
    p.add_argument("--points", type=int)
    p.add_argument("--out")
    add_common(p)

    p = sub.add_parser("simulate", help="time-domain norms as CSV + JSON")
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--omega", type=float, help="sinusoid frequency")
    p.add_argument("--amplitude", type=float, help="sinusoid amplitude")
    p.add_argument("--phase", type=float, help="sinusoid phase")
    p.add_argument("--constant", type=float, help="constant level")
    p.add_argument("--knots", help="piecewise-linear t:d pairs, e.g. 0:0,1:1")
    p.add_argument("--n-modes", type=int, dest="n_modes")
    p.add_argument("--t-final", type=float, dest="t_final")
    p.add_argument("--dt-output", type=float, dest="dt_output")
    p.add_argument("--x-points", type=int, dest="x_points")
    p.add_argument("--burn-in", type=float, dest="burn_in")
    p.add_argument("--out")
    add_common(p)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--quick", action="store_true")
    add_common(p)

    return parser


def _parse_knots(raw: str):
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        t, _, d = item.partition(":")
        pairs.append((float(t), float(d)))
    return pairs


def _make_disturbance(merged: dict) -> DisturbanceSpec:
    chosen = [k for k in ("omega", "constant", "knots") if merged[k] is not None]
    if len(chosen) != 1:
        raise ValueError(
            "exactly one of --omega, --constant, --knots selects the "
            f"disturbance; got {chosen or 'none'}")
    if merged["omega"] is not None:
        amp = 1.0 if merged["amplitude"] is None else merged["amplitude"]
        phase = 0.0 if merged["phase"] is None else merged["phase"]
        return DisturbanceSpec.sinusoid(amp, merged["omega"], phase)
    if merged["constant"] is not None:
        return DisturbanceSpec.constant(merged["constant"])
    return DisturbanceSpec.piecewise_linear(_parse_knots(merged["knots"]))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            merged = _merge(args, {
                "sigma": (float, None), "mu": (float, None)})
            _require(merged, "sigma", "mu")
            return cmd_bounds(merged["sigma"], merged["mu"], as_json=args.json)

        if args.command == "bode":
            merged = _merge(args, {
                "sigma": (float, None), "mu": (float, None),
                "omega_min": (float, None), "omega_max": (float, None),
                "points": (int, 1000), "scale": (str, "linear"),
                "out": (str, None)})
            _require(merged, "sigma", "mu", "omega_min", "omega_max", "out")
            if merged["scale"] not in ("linear", "log"):
                raise ValueError("scale must be linear or log")
            return cmd_bode(merged["sigma"], merged["mu"], merged["omega_min"],
                            merged["omega_max"], merged["points"],
                            merged["scale"], merged["out"])

        if args.command == "sweep":
            merged = _merge(args, {
                "sigma": (float, None), "mu_min": (float, 0.0),
                "mu_max": (float, None), "points": (int, 81),
                "out": (str, None)})
            _require(merged, "sigma", "mu_max", "out")
            return cmd_sweep(merged["sigma"], merged["mu_min"],
                             merged["mu_max"], merged["points"],
                             merged["out"])

        if args.command == "simulate":
            merged = _merge(args, {
                "sigma": (float, None), "mu": (float, None),
                "omega": (float, None), "amplitude": (float, None),
                "phase": (float, None), "constant": (float, None),
                "knots": (str, None), "n_modes": (int, 512),
                "t_final": (float, 40.0), "dt_output": (float, 0.01),
                "x_points": (int, 1024), "burn_in": (float, None),
                "out": (str, None)})
            _require(merged, "sigma", "mu", "out")
            d = _make_disturbance(merged)
            return cmd_simulate(merged["sigma"], merged["mu"], d,
                                merged["out"], merged["n_modes"],
                                merged["t_final"], merged["dt_output"],
                                merged["x_points"], merged["burn_in"])

        if args.command == "verify":
            merged = _merge(args, {"seed": (int, None)})
            return cmd_verify(seed=merged["seed"], quick=args.quick)
    except (ValueError, OSError, ArithmeticError) as exc:
        # ArithmeticError: inputs past the float range, e.g. sigma**2
        # overflowing; InternalConsistencyError is an AssertionError, not this
        kind = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")
