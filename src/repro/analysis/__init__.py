"""Analysis utilities: access skew (Figure 3) and speedups (Figures 8/9)."""

from repro.analysis.skew import access_frequency_curve, skew_report, task_access_profile
from repro.analysis.speedup import (
    effective_speedup,
    effective_speedup_from_results,
    raw_speedup,
)

__all__ = [
    "access_frequency_curve",
    "skew_report",
    "task_access_profile",
    "raw_speedup",
    "effective_speedup",
    "effective_speedup_from_results",
]
