"""`repro.rewrite` — power-driven structural rewriting of datapaths.

Rule finders and plans live in :mod:`repro.rewrite.rules`; exact
trace-replay scoring in :mod:`repro.rewrite.scoring`. The optimizer
integration (the ``"rewrite"`` pass) is
:class:`repro.opt.rewriting.RewritePass`. See ``docs/rewriting.md``.
"""

from repro.rewrite.rules import (
    MAX_SHIFT_TERMS,
    RewritePlan,
    find_mux_hoist,
    find_mux_push,
    find_reassociation,
    find_rewrites,
    find_strength_reduction,
)
from repro.rewrite.scoring import (
    MIN_GAIN_MW,
    RewriteScore,
    ValueTrace,
    score_rewrite,
)

__all__ = [
    "MAX_SHIFT_TERMS",
    "MIN_GAIN_MW",
    "RewritePlan",
    "RewriteScore",
    "ValueTrace",
    "find_mux_hoist",
    "find_mux_push",
    "find_reassociation",
    "find_rewrites",
    "find_strength_reduction",
    "score_rewrite",
]
