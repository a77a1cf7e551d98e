"""Experiment harness: one module per table/figure of the paper's
evaluation (Section 7), plus the analytic experiments of Sections 3 and 5.

Every experiment exposes ``run_*`` functions returning a result dataclass
with a ``format()`` method that prints the same rows as the paper, and is
parameterised by network size so tests can exercise scaled-down versions
while the benchmarks regenerate the full 8x8 configurations.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # for tools; at run time a name is imported on first use
    from repro.experiments.workloads import (
        WorkloadReport,
        all_pairs,
        establish_workload,
        hotspot_pairs,
        mixed_bandwidth_traffic,
        uniform_traffic,
    )
    from repro.experiments.figure9 import Figure9Result, run_figure9
    from repro.experiments.table1 import Table1Result, run_table1
    from repro.experiments.table2 import Table2Result, run_table2
    from repro.experiments.table3 import Table3Result, run_table3
    from repro.experiments.delay_bound import DelayBoundResult, run_delay_bound
    from repro.experiments.rcc_sizing import RCCSizingResult, run_rcc_sizing
    from repro.experiments.reliability import ReliabilityResult, run_reliability
    from repro.experiments.inhomogeneous import (
        InhomogeneousResult,
        run_inhomogeneous,
    )
    from repro.experiments.message_loss import MessageLossResult, run_message_loss
    from repro.experiments.baseline_comparison import (
        BaselineComparisonResult,
        run_baseline_comparison,
    )

__all__ = [
    "all_pairs",
    "hotspot_pairs",
    "uniform_traffic",
    "mixed_bandwidth_traffic",
    "establish_workload",
    "WorkloadReport",
    "run_figure9",
    "Figure9Result",
    "run_table1",
    "Table1Result",
    "run_table2",
    "Table2Result",
    "run_table3",
    "Table3Result",
    "run_delay_bound",
    "DelayBoundResult",
    "run_rcc_sizing",
    "RCCSizingResult",
    "run_reliability",
    "ReliabilityResult",
    "run_inhomogeneous",
    "InhomogeneousResult",
    "run_message_loss",
    "MessageLossResult",
    "run_baseline_comparison",
    "BaselineComparisonResult",
]

__getattr__ = lazy_exports(__name__, {
    "workloads": (
        "WorkloadReport",
        "all_pairs",
        "establish_workload",
        "hotspot_pairs",
        "mixed_bandwidth_traffic",
        "uniform_traffic",
    ),
    "figure9": ("Figure9Result", "run_figure9"),
    "table1": ("Table1Result", "run_table1"),
    "table2": ("Table2Result", "run_table2"),
    "table3": ("Table3Result", "run_table3"),
    "delay_bound": ("DelayBoundResult", "run_delay_bound"),
    "rcc_sizing": ("RCCSizingResult", "run_rcc_sizing"),
    "reliability": ("ReliabilityResult", "run_reliability"),
    "inhomogeneous": ("InhomogeneousResult", "run_inhomogeneous"),
    "message_loss": ("MessageLossResult", "run_message_loss"),
    "baseline_comparison": (
        "BaselineComparisonResult", "run_baseline_comparison",
    ),
})
