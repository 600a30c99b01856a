"""Workloads, metrics, report tables and the experiment modules.

The experiment catalogue is ``repro.cli.EXPERIMENTS`` (README, *Experiment
catalogue*); ``python -m repro <name>`` runs one.
"""

from repro.analysis.metrics import (
    LatencyStats,
    count_reordering_witnesses,
    count_trace_final_discords,
)
from repro.analysis.report import format_table
from repro.analysis.workload import RandomWorkload, WorkloadProfile

__all__ = [
    "LatencyStats",
    "RandomWorkload",
    "WorkloadProfile",
    "count_reordering_witnesses",
    "count_trace_final_discords",
    "format_table",
]
