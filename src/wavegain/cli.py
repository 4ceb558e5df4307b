"""Command-line interface: bounds, Bode sweeps, mu sweeps, simulation, verify.

Outputs are plain CSV/JSON with shortest round-trip float formatting, byte
identical across runs. Flags override an optional key=value config file,
which overrides built-in defaults; `--json`, `--quick` and `--config` are
flags only. Exit codes: 0 success, 1 verification failure, 2 usage, I/O,
float-range or out-of-memory error, 3 internal error (a computed set of
bounds broke an ordering that must hold: a bug, reported as one
`error: internal: ...` line).

    wavegain bounds --sigma 1 --mu 1 --json
    wavegain bode --sigma 1e-4 --mu 0.05 --omega-min 0.5 --omega-max 13 \
        --points 20000 --out bode.csv
    wavegain sweep --sigma 1 --mu-min 0 --mu-max 4 --points 81 --out sweep.csv
    wavegain simulate --sigma 1 --mu 0 --omega 5 --t-final 40 --out sim.csv
    wavegain verify --quick
"""

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .freq_response import (_MAX_GRID_POINTS, DampingParams, sup_gain_at,
                            l2_stats_at)
from .gain_bounds import InternalConsistencyError, gain_bounds
from .modal import DisturbanceSpec
from .simulator import SimConfig, simulate
from . import verify as verify_mod

__all__ = ["main", "cmd_bounds", "cmd_bode", "cmd_sweep", "cmd_simulate",
           "cmd_verify"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_SCALES = ("linear", "log")


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


def _check_points(points: int):
    if points < 2:
        raise ValueError("points must be at least 2")
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"points must be at most {_MAX_GRID_POINTS}, "
                         f"got {points}")


def _grid(lo: float, hi: float, points: int, scale: str):
    if scale not in _SCALES:
        raise ValueError("scale must be linear or log")
    _check_points(points)
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


def _frequency_gains(params, omegas):
    """(sup gains, L2 gains) at a list of frequencies; ValueError naming the
    first omega where one is not finite (omega^2 overflows past ~1.3e154)."""
    with np.errstate(all="ignore"):  # checked below
        sups = sup_gain_at(params, omegas)
        l2s = l2_stats_at(params, omegas).Q
    bad = ~(np.isfinite(sups) & np.isfinite(l2s))
    if bad.any():
        w = np.asarray(omegas)[bad][0]
        raise ValueError(f"the gains at omega={_fmt(w)} are not finite")
    return sups, l2s


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
    sups, l2s = _frequency_gains(params, omegas)

    def row(w, a, q):
        return (f"{_fmt(w)},{_fmt(a)},{_fmt(q)},"
                f"{_fmt(math.log(a))},{_fmt(math.log(q))}")

    lines = ["omega,A_sup,Q_l2,ln_A_sup,ln_Q_l2"]
    lines += [row(w, a, q)
              for w, a, q in zip(omegas, sups.tolist(), l2s.tolist())]
    _write_lines(out, lines)
    return EXIT_OK


def cmd_sweep(sigma, mu_min, mu_max, points, out) -> int:
    """Bounds along a mu axis at fixed sigma, as CSV."""
    _check_points(points)
    if not (0.0 <= mu_min < mu_max < math.inf):
        raise ValueError(f"mu range must be finite and satisfy "
                         f"0 <= min < max, got [{mu_min}, {mu_max}]")
    step = (mu_max - mu_min) / (points - 1)
    mus = [mu_min + i * step for i in range(points)]
    mus[-1] = mu_max

    def row(m):
        b = gain_bounds(DampingParams(sigma, m))
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


def cmd_simulate(sigma, mu, disturbance, out, n_modes=SimConfig.n_modes,
                 t_final=SimConfig.t_final, dt_output=SimConfig.dt_output,
                 x_points=SimConfig.x_points,
                 burn_in=SimConfig.burn_in) -> int:
    """Run the time-domain simulation; CSV of norms + JSON gain sidecar."""
    params = DampingParams(sigma, mu)
    config = SimConfig(n_modes=n_modes, t_final=t_final, dt_output=dt_output,
                       x_points=x_points, burn_in=burn_in)
    res = simulate(params, disturbance, config)
    analytic = (disturbance.kind == "sinusoid"
                and res.empirical_gain_sup is not None)
    if analytic:
        (a,), (q,) = _frequency_gains(params, [disturbance.omega])

    lines = ["t,sup_norm,l2_norm"]
    lines += [f"{_fmt(t)},{_fmt(s)},{_fmt(l)}" for t, s, l in zip(
        res.t.tolist(), res.sup_norm.tolist(), res.l2_norm.tolist())]
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
    if analytic:
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

class _Opt(NamedTuple):
    """An option that takes a value, from its flag or a config-file key."""
    type: type
    default: object = None
    required: bool = False
    help: Optional[str] = None
    choices: Optional[tuple] = None


class _Command(NamedTuple):
    help: str
    options: dict      # name (flag without "--", "-" as "_") -> _Opt
    flags: tuple = ()  # (command-line-only switch, its cmd_<command> keyword)


_SIGMA = _Opt(float, required=True)
_MU = _Opt(float, required=True)
_OUT = _Opt(str, required=True)

# The one declaration of every option: it builds the parser, the config-file
# merge, the defaults and the required-option check.
_COMMANDS = {
    "bounds": _Command(
        "the four gain bounds at one (sigma, mu)",
        {"sigma": _SIGMA, "mu": _MU},
        (("json", "as_json"),)),
    "bode": _Command(
        "per-frequency gain curves as CSV",
        {"sigma": _SIGMA, "mu": _MU,
         "omega_min": _Opt(float, required=True),
         "omega_max": _Opt(float, required=True),
         "points": _Opt(int, 1000),
         "scale": _Opt(str, "linear", choices=_SCALES),
         "out": _OUT}),
    "sweep": _Command(
        "bounds along a mu axis as CSV",
        {"sigma": _SIGMA,
         "mu_min": _Opt(float, 0.0),
         "mu_max": _Opt(float, required=True),
         "points": _Opt(int, 81),
         "out": _OUT}),
    "simulate": _Command(
        "time-domain norms as CSV + JSON",
        {"sigma": _SIGMA, "mu": _MU,
         "omega": _Opt(float, help="sinusoid frequency"),
         "amplitude": _Opt(float, 1.0, help="sinusoid amplitude"),
         "phase": _Opt(float, 0.0, help="sinusoid phase"),
         "constant": _Opt(float, help="constant level"),
         "knots": _Opt(str, help="piecewise-linear t:d pairs, e.g. 0:0,1:1"),
         "n_modes": _Opt(int, SimConfig.n_modes),
         "t_final": _Opt(float, SimConfig.t_final),
         "dt_output": _Opt(float, SimConfig.dt_output),
         "x_points": _Opt(int, SimConfig.x_points),
         "burn_in": _Opt(float, SimConfig.burn_in),
         "out": _OUT}),
    "verify": _Command(
        "run the cross-validation suites",
        {"seed": _Opt(int)},
        (("quick", "quick"),)),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for _COMMANDS, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="wavegain",
        description="Gain bounds and frequency/time response of a boundary-"
                    "disturbed string with Kelvin-Voigt and viscous damping.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, opt in command.options.items():
            p.add_argument(_flag(key), type=opt.type, choices=opt.choices,
                           help=opt.help)
        for flag, dest in command.flags:
            p.add_argument(_flag(flag), dest=dest, action="store_true")
        p.add_argument("--config", help="key=value file with option defaults")
    return parser


def _merge(args: argparse.Namespace, options: dict) -> dict:
    """Resolve option values: flag > config file > default."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, opt in options.items():
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = opt.type(config[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {key}: {exc}") from None
        out[key] = opt.default if value is None else value
    return out


def _require(merged: dict, options: dict):
    missing = [k for k, opt in options.items()
               if opt.required and merged[k] is None]
    if missing:
        flags = ", ".join(_flag(k) for k in missing)
        raise ValueError(f"missing required option(s): {flags}")


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
    """Take the disturbance options out of merged; return their spec."""
    d = {k: merged.pop(k)
         for k in ("omega", "amplitude", "phase", "constant", "knots")}
    chosen = [k for k in ("omega", "constant", "knots") if d[k] is not None]
    if len(chosen) != 1:
        raise ValueError(
            "exactly one of --omega, --constant, --knots selects the "
            f"disturbance; got {chosen or 'none'}")
    if d["omega"] is not None:
        return DisturbanceSpec.sinusoid(d["amplitude"], d["omega"], d["phase"])
    if d["constant"] is not None:
        return DisturbanceSpec.constant(d["constant"])
    return DisturbanceSpec.piecewise_linear(_parse_knots(d["knots"]))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        kwargs = _merge(args, command.options)
        _require(kwargs, command.options)
        if args.command == "simulate":
            kwargs["disturbance"] = _make_disturbance(kwargs)
        for _, dest in command.flags:
            kwargs[dest] = getattr(args, dest)
        return globals()[f"cmd_{args.command}"](**kwargs)
    except (ValueError, OSError, ArithmeticError) as exc:
        # ArithmeticError: inputs past the float range, e.g. sigma**2
        # overflowing
        kind = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a grid or run too large to allocate; Python's own carries no text
        print(f"error: MemoryError: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
