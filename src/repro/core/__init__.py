"""The paper's contribution: automated RT-level operand isolation.

Pipeline (one call runs it all — :func:`repro.opt.isolate_design`):

1. :mod:`~repro.core.activation` derives an activation function per
   datapath module by structural observability analysis (Section 3);
2. :mod:`~repro.core.candidates` identifies isolation candidates and
   their fanin/fanout candidate relationships with multiplexing
   functions (Section 4.1);
3. :mod:`~repro.core.savings` estimates primary and secondary power
   savings from measured activity (Sections 4.2–4.3);
4. :mod:`~repro.core.cost` scores candidates with ``h(c) = ω_p·rP −
   ω_a·rA`` and slack rejection (Section 5.1);
5. :mod:`~repro.core.isolate` rewrites the netlist with AND/OR/LAT
   isolation banks and synthesized activation logic (Section 5.2);
6. :mod:`repro.opt` iterates 2–5 per combinational block until no
   candidate clears ``h_min`` (Algorithm 1); it owns the loop, its
   configuration and its result, and imports this package — never the
   other way round at module level.
"""

from repro.core.activation import (
    ActivationAnalysis,
    derive_activation_functions,
    net_activation_function,
)
from repro.core.candidates import (
    FaninLink,
    FanoutLink,
    IsolationCandidate,
    find_candidates,
)
from repro.core.savings import SavingsEstimate, SavingsModel
from repro.core.cost import CostModel, CostWeights
from repro.core.isolate import IsolationInstance, IsolationStyle, isolate_candidate
from repro.core.report import StyleComparison, compare_styles, format_comparison_table
from repro.core.explore import RankedCandidate, format_ranking, rank_candidates
from repro.core.lookahead import derive_with_lookahead

__all__ = [
    "ActivationAnalysis",
    "derive_activation_functions",
    "net_activation_function",
    "IsolationCandidate",
    "FaninLink",
    "FanoutLink",
    "find_candidates",
    "SavingsModel",
    "SavingsEstimate",
    "CostModel",
    "CostWeights",
    "IsolationStyle",
    "IsolationInstance",
    "isolate_candidate",
    "StyleComparison",
    "compare_styles",
    "format_comparison_table",
    "RankedCandidate",
    "rank_candidates",
    "format_ranking",
    "derive_with_lookahead",
]
