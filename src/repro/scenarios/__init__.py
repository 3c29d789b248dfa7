"""Dynamic-workload scenarios: time-varying perturbations for experiments.

The paper's premise is that parameter access is non-uniform; this package
makes the non-uniformity *time-varying*. A :class:`Scenario` composes
perturbations — hot-set drift, stragglers, worker churn, degrading networks —
onto any experiment via :class:`~repro.runner.config.ExperimentConfig`'s
``scenario`` field; the runner invokes the scenario at epoch and round
boundaries. See README.md ("Dynamic-workload scenarios") and TESTING.md.
"""

from repro.scenarios.base import Perturbation, Scenario, ScenarioRuntime
from repro.scenarios.perturbations import (
    HotSetDrift,
    NetworkDegradation,
    Stragglers,
    WorkerChurn,
)
from repro.scenarios.presets import (
    SCENARIO_NAMES,
    SCENARIO_PRESETS,
    autoscale_storm_scenario,
    churn_scenario,
    degrading_network_scenario,
    drift_scenario,
    make_scenario,
    scale_in_scenario,
    scale_out_scenario,
    split_brain_scenario,
    storm_scenario,
    straggler_scenario,
)
from repro.scenarios.remap import KeyRemapper, RemappedDistribution
from repro.scenarios.interposer import ScenarioParameterServer

__all__ = [
    "Scenario",
    "ScenarioRuntime",
    "Perturbation",
    "HotSetDrift",
    "Stragglers",
    "WorkerChurn",
    "NetworkDegradation",
    "KeyRemapper",
    "RemappedDistribution",
    "ScenarioParameterServer",
    "SCENARIO_NAMES",
    "SCENARIO_PRESETS",
    "make_scenario",
    "drift_scenario",
    "straggler_scenario",
    "churn_scenario",
    "degrading_network_scenario",
    "storm_scenario",
    "scale_out_scenario",
    "scale_in_scenario",
    "autoscale_storm_scenario",
    "split_brain_scenario",
]
