"""`repro.opt` — the pluggable low-power pass framework.

:func:`optimize` runs Algorithm 1's greedy loop over any combination of
registered :class:`TransformPass` families; operand isolation, register
clock gating and datapath rewriting ship built in.
:func:`isolate_design` is the paper's Algorithm 1 — the isolation pass
alone. Both are configured by one :class:`IsolationConfig` and return
one :class:`OptimizeResult`. See ``docs/passes.md``.
"""

from repro.opt.framework import (
    AppliedTransform,
    DesignMetrics,
    IsolationConfig,
    OptimizeResult,
    OptIteration,
    PassContext,
    StageTimings,
    TransformPass,
    available_passes,
    isolate_design,
    optimize,
    register_pass,
    resolve_passes,
)

# Importing the built-in pass modules registers them.
from repro.opt.isolation import IsolationPass
from repro.opt.gating import ClockGatingPass, GatingScore
from repro.opt.rewriting import RewritePass

__all__ = [
    "AppliedTransform",
    "ClockGatingPass",
    "DesignMetrics",
    "GatingScore",
    "IsolationConfig",
    "IsolationPass",
    "RewritePass",
    "OptimizeResult",
    "OptIteration",
    "PassContext",
    "StageTimings",
    "TransformPass",
    "available_passes",
    "isolate_design",
    "optimize",
    "register_pass",
    "resolve_passes",
]
