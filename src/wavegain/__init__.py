"""Disturbance-to-displacement gains of a damped boundary-driven string.

The model is a unit-length wave equation with Kelvin-Voigt damping sigma
and viscous damping mu, driven at the left end and pinned at the right.
This package computes, for the steady-state response:

- per-frequency sup-norm and L2-norm amplification curves,
- frequency-independent upper and lower bounds on both gains,
- a modal time-domain simulator used to cross-check the analytics,
- a self-contained verification harness tying the three routes together.
"""

from .freq_response import (
    DampingParams,
    FrequencyPoint,
    L2ResponseStats,
    amplitude_at,
    l2_stats_at,
    polar_params,
    profile_at,
    sup_gain_at,
)
from .gain_bounds import (
    GainBounds,
    InternalConsistencyError,
    LowerBound,
    ModeConstants,
    U2Value,
    gain_bounds,
    lower_l2,
    lower_sup,
    mode_constants,
    upper_l2,
    upper_sup,
)
from .modal import (
    DisturbanceSpec,
    modal_kernel_l1,
)
from .simulator import (
    SimConfig,
    SimResult,
    simulate,
)
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "DampingParams",
    "DisturbanceSpec",
    "FrequencyPoint",
    "GainBounds",
    "InternalConsistencyError",
    "L2ResponseStats",
    "LowerBound",
    "ModeConstants",
    "SUITE_NAMES",
    "SimConfig",
    "SimResult",
    "SuiteResult",
    "U2Value",
    "amplitude_at",
    "gain_bounds",
    "l2_stats_at",
    "lower_l2",
    "lower_sup",
    "modal_kernel_l1",
    "mode_constants",
    "polar_params",
    "profile_at",
    "run_suites",
    "simulate",
    "sup_gain_at",
    "upper_l2",
    "upper_sup",
    "__version__",
]
