"""Named scenario presets: the entry point of benchmarks, examples and the CLI.

A preset is a scenario name, a description and its perturbations.
``make_scenario(name, **kwargs)`` builds a fresh
:class:`~repro.scenarios.base.Scenario`; the keywords of a one-perturbation
preset are its class's parameters, and ``storm`` takes ``oracle_remanage``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.scenarios.base import Scenario
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


def storm(oracle_remanage: bool = True) -> List[Perturbation]:
    """Drift, stragglers, churn and a degrading network at once."""
    return [
        HotSetDrift(oracle_remanage=oracle_remanage),
        Stragglers(severity=2.0),
        WorkerChurn(fraction=0.2),
        NetworkDegradation(steps=2),
    ]


#: Preset name -> (perturbation class, or builder of a perturbation list;
#: scenario name; description).
SCENARIO_PRESETS: Dict[str, Tuple[Callable, str, str]] = {
    "drift": (HotSetDrift, "hot-set-drift",
              "workload hot set rotates mid-run"),
    "stragglers": (Stragglers, "stragglers",
                   "heavy-tailed per-worker compute slowdowns"),
    "churn": (WorkerChurn, "worker-churn",
              "workers pause mid-epoch; their shards are redistributed"),
    "degrading-network": (NetworkDegradation, "degrading-network",
                          "interconnect latency grows and bandwidth shrinks "
                          "over time"),
    "storm": (storm, "storm", "all perturbations combined (stress scenario)"),
    "crash-storm": (ServerCrashes, "crash-storm",
                    "server nodes crash and rejoin repeatedly"),
    "scale-in": (ScaleIn, "scale-in",
                 "server nodes drain and leave; zero acknowledged updates "
                 "lost"),
    "autoscale-storm": (AutoscaleStorm, "autoscale-storm",
                        "nodes join and leave on a fixed cadence (churn "
                        "stress)"),
    "split-brain": (NetworkPartition, "split-brain",
                    "cluster splits into majority/minority; buffered "
                    "minority writes replay at heal"),
}

SCENARIO_NAMES = tuple(SCENARIO_PRESETS)


def make_scenario(name: str, **kwargs) -> Scenario:
    """Build a preset scenario by name."""
    try:
        build, scenario_name, description = SCENARIO_PRESETS[name]
    except KeyError:
        valid = ", ".join(SCENARIO_NAMES)
        raise ValueError(
            f"unknown scenario {name!r}; expected one of: {valid}"
        ) from None
    built = build(**kwargs)
    perturbations = [built] if isinstance(built, Perturbation) else built
    return Scenario(scenario_name, perturbations, description=description)
