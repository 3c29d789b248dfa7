"""Speedup computations (Figures 8 and 9, and the speedup callouts of Fig. 6).

The paper reports two speedups relative to the shared-memory single node:

* **raw speedup** — ratio of epoch run times, ignoring model quality;
* **effective speedup** — ratio of the times needed to reach 90% of the best
  model quality the single node achieved within the budget.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.runner.experiment import ExperimentResult


#: Fraction of the best single-node quality that defines the effective-speedup
#: threshold (Section 5.1).
EFFECTIVE_QUALITY_FRACTION = 0.9


def raw_speedup(baseline_epoch_time: float, variant_epoch_time: float) -> float:
    """Ratio of epoch run times (>1 means the variant is faster)."""
    if baseline_epoch_time <= 0 or variant_epoch_time <= 0:
        raise ValueError("epoch times must be positive")
    return baseline_epoch_time / variant_epoch_time


def effective_quality_threshold(single_node: ExperimentResult,
                                fraction: float = EFFECTIVE_QUALITY_FRACTION) -> float:
    """The quality threshold: ``fraction`` of the single node's best quality.

    For lower-is-better metrics (RMSE) the threshold is the value whose
    *improvement* over the initial quality covers ``fraction`` of the single
    node's total improvement.
    """
    best = single_node.best_quality()
    if single_node.higher_is_better:
        return fraction * best
    initial = float(single_node.initial_quality[single_node.quality_metric])
    return initial - fraction * (initial - best)


def effective_speedup(single_node: ExperimentResult, variant: ExperimentResult,
                      fraction: float = EFFECTIVE_QUALITY_FRACTION) -> Optional[float]:
    """Effective speedup of ``variant`` over the single node (None if not reached)."""
    threshold = effective_quality_threshold(single_node, fraction)
    single_time = single_node.time_to_quality(threshold)
    variant_time = variant.time_to_quality(threshold)
    if single_time is None or variant_time is None or variant_time <= 0:
        return None
    return single_time / variant_time


def effective_speedup_from_results(results: Sequence[ExperimentResult],
                                   single_node_system: str = "single-node",
                                   fraction: float = EFFECTIVE_QUALITY_FRACTION
                                   ) -> Dict[str, Optional[float]]:
    """Effective speedups of every result against the single-node result."""
    single = _find_single(results, single_node_system)
    return {
        result.system: effective_speedup(single, result, fraction)
        for result in results
        if result is not single
    }


def raw_speedup_from_results(results: Sequence[ExperimentResult],
                             single_node_system: str = "single-node"
                             ) -> Dict[str, float]:
    """Raw (epoch-time) speedups of every result against the single node."""
    single = _find_single(results, single_node_system)
    baseline = single.mean_epoch_time()
    return {
        result.system: raw_speedup(baseline, result.mean_epoch_time())
        for result in results
        if result is not single
    }


def _find_single(results: Iterable[ExperimentResult], system: str) -> ExperimentResult:
    for result in results:
        if result.system == system:
            return result
    raise ValueError(f"no result with system name {system!r} found")
