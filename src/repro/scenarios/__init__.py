"""Dynamic-workload scenarios: time-varying perturbations for experiments.

The paper's premise is that parameter access is non-uniform; this package
makes the non-uniformity *time-varying*. A :class:`Scenario` composes
perturbations, all in :mod:`repro.scenarios.perturbations` (drift,
stragglers, churn, a degrading network, crashes, scale-in, autoscaling
churn, partitions), onto any experiment via
:class:`~repro.runner.config.ExperimentConfig`'s ``scenario`` field; the
runner invokes the scenario at epoch and round boundaries, and
:class:`ScenarioRuntime` applies the victim rules once for all of them.
``make_scenario`` builds the nine named presets. See README.md
("Dynamic-workload scenarios") and TESTING.md.
"""

from repro.scenarios.base import Scenario, ScenarioRuntime
from repro.scenarios.perturbations import (
    AutoscaleStorm,
    HotSetDrift,
    NetworkDegradation,
    NetworkPartition,
    Perturbation,
    ScaleIn,
    ServerCrashes,
    Stragglers,
    WorkerChurn,
)
from repro.scenarios.presets import SCENARIO_NAMES, SCENARIO_PRESETS, make_scenario
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
    "ServerCrashes",
    "ScaleIn",
    "AutoscaleStorm",
    "NetworkPartition",
    "KeyRemapper",
    "RemappedDistribution",
    "ScenarioParameterServer",
    "SCENARIO_NAMES",
    "SCENARIO_PRESETS",
    "make_scenario",
]
