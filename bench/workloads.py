"""Seeded, stratified argv generators for the four benchmark workloads.

Every workload walks the same nine (sigma decade, damping regime) cells in a
fixed order, so each prefix of the op sequence holds nearly the same share of
every cell whatever the seed. Inside a cell, the position of the j-th visit is
the j-th point of a Halton sequence shifted by a seeded offset (a randomized
quasi-Monte Carlo draw): the seed moves points around inside their cells but
keeps them spread evenly, so a new seed does not change the cost mix.

verify has no cells: the cost of `verify --quick` depends on the (sigma, mu)
draws its --seed makes, and varies 2x between seeds. So verify ops walk a fixed
pool of VERIFY_POOL derived seeds, one pass after another, in an order the
run's seed shuffles anew for each pass. A run of about one pass holds the same
cost mix whatever the seed.

    op_argv("bode", seed=3, index=0)   # -> ["bode", "--sigma", ...]
"""

import math
import random

WORKLOADS = ("bounds", "bode", "simulate", "verify")

# (log10 sigma low, log10 sigma high). Pairs with sigma < 1e-2 take 2.7-34 s
# each and would swamp a run, so the range stops there.
DECADES = ((-2.0, -1.0), (-1.0, 0.0), (0.0, math.log10(5.0)))

# Damping regimes: mu0 (mu = 0), light (0 < mu*sigma < 1), heavy (mu*sigma >= 1).
# Latin-square order: any three consecutive cells cover every decade and
# every regime, so a run cut at any op holds a balanced cost mix.
CELLS = ((0, "light"), (1, "heavy"), (2, "mu0"),
         (1, "light"), (2, "heavy"), (0, "mu0"),
         (2, "light"), (0, "heavy"), (1, "mu0"))

# Rows per bode op, log-uniform over each range. A heavily damped row costs
# about a quarter of the others, so those ops get four times the rows: every
# op then costs about the same, and the op latencies form one cluster.
BODE_POINTS = {"mu0": (150, 300), "light": (150, 300), "heavy": (600, 1200)}
BODE_OMEGA_MIN = 0.5
BODE_OMEGA_MAX = (13.0, 60.0)
# Output steps per simulate op, log-uniform: t_final runs from 4 to 10.
SIM_STEPS = (400, 1000)
SIM_DT_OUTPUT = 0.01  # the CLI default; used to count output steps
SIM_KINDS = ("sinusoid", "constant", "knots")
VERIFY_SUITES = 8
VERIFY_POOL = 12  # about the ops one run makes

# Output files are relative: the worker runs ops from its own work directory.
BODE_OUT = "bode.csv"
SIM_OUT = "sim.csv"
SIDECAR_OUT = "sim.json"

_PRIMES = (2, 3, 5, 7)


def _radical_inverse(j: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while j > 0:
        j, digit = divmod(j, base)
        inv += digit * f
        f /= base
    return inv


def _cell_point(name: str, seed: int, cell: int, visit: int):
    """Shifted Halton point in [0, 1)^4 for the visit-th draw from a cell."""
    shift = random.Random(f"{name}:{seed}:cell{cell}")
    return tuple((_radical_inverse(visit, p) + shift.random()) % 1.0
                 for p in _PRIMES)


def _sigma_mu(cell: int, pos):
    decade, regime = CELLS[cell]
    lo, hi = DECADES[decade]
    sigma = 10.0 ** (lo + pos[0] * (hi - lo))
    if regime == "mu0":
        return sigma, 0.0
    if regime == "light":
        return sigma, (0.05 + 0.9 * pos[1]) / sigma
    # 1.02 keeps the float product mu*sigma clear of 1 after rounding
    return sigma, (1.02 + 2.98 * pos[1]) / sigma


def _f(x: float) -> str:
    return repr(float(x))


def _knots(rng: random.Random, t_final: float) -> str:
    """t=0 plus four interior knots that avoid the output grid."""
    ts = sorted(rng.uniform(0.2, t_final - 0.2) for _ in range(4))
    pts = [(0.0, rng.uniform(-1.5, 1.5))]
    for t in ts:
        steps = t / SIM_DT_OUTPUT
        if abs(steps - round(steps)) < 1e-3:
            t += 0.3 * SIM_DT_OUTPUT
        pts.append((t, rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5)))
    return ",".join(f"{_f(t)}:{_f(d)}" for t, d in pts)


def op_argv(name: str, seed: int, index: int) -> list:
    """argv for op `index` of workload `name` under `seed` (deterministic)."""
    if name == "verify":
        rounds, slot = divmod(index, VERIFY_POOL)
        order = list(range(VERIFY_POOL))
        random.Random(f"verify:{seed}:pass{rounds}").shuffle(order)
        derived = random.Random(f"verify:pool{order[slot]}").randrange(1, 2 ** 31)
        return ["verify", "--quick", "--seed", str(derived)]
    visit, slot = divmod(index, len(CELLS))
    # simulate rotates the cell order by one each pass, so over three passes
    # every cell meets every disturbance kind
    cell = (slot + visit) % len(CELLS) if name == "simulate" else slot
    pos = _cell_point(name, seed, cell, visit)
    sigma, mu = _sigma_mu(cell, pos)
    head = ["--sigma", _f(sigma), "--mu", _f(mu)]
    if name == "bounds":
        return ["bounds", *head, "--json"]
    if name == "bode":
        lo, hi = BODE_OMEGA_MAX
        p_lo, p_hi = BODE_POINTS[CELLS[cell][1]]
        return ["bode", *head, "--omega-min", _f(BODE_OMEGA_MIN),
                "--omega-max", _f(lo + pos[2] * (hi - lo)),
                "--points", str(round(p_lo * (p_hi / p_lo) ** pos[3])),
                "--scale", "linear" if index % 2 == 0 else "log",
                "--out", BODE_OUT]
    if name == "simulate":
        rng = random.Random(f"simulate:{seed}:{index}")
        kind = SIM_KINDS[index % len(SIM_KINDS)]
        lo, hi = SIM_STEPS
        t_final = round(lo * (hi / lo) ** pos[3]) * SIM_DT_OUTPUT
        if kind == "sinusoid":
            dist = ["--omega", _f(10.0 ** (math.log10(0.5) + pos[2] * math.log10(40.0))),
                    "--amplitude", _f(rng.uniform(0.5, 2.0)),
                    "--phase", _f(rng.uniform(0.0, 2.0 * math.pi))]
        elif kind == "constant":
            dist = ["--constant",
                    _f(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))]
        else:
            dist = ["--knots", _knots(rng, t_final)]
        return ["simulate", *head, *dist, "--t-final", _f(t_final),
                "--out", SIM_OUT]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def items(argv: list) -> int:
    """Work items in one op: (sigma, mu) pairs, bode rows, time steps, suites."""
    cmd = argv[0]
    if cmd == "bounds":
        return 1
    if cmd == "bode":
        return int(argv[argv.index("--points") + 1])
    if cmd == "simulate":
        t_final = float(argv[argv.index("--t-final") + 1])
        return int(math.floor(t_final / SIM_DT_OUTPUT + 1e-12)) + 1
    return VERIFY_SUITES
