"""Named scenario presets used by benchmarks, examples and tests.

Each preset builds a fresh :class:`~repro.scenarios.base.Scenario`; keyword
arguments tune the underlying perturbations. ``make_scenario`` resolves a
preset by name (the registry in :data:`SCENARIO_PRESETS`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.elastic.perturbations import (
    AutoscaleStorm,
    NetworkPartition,
    ScaleIn,
    ScaleOut,
)
from repro.faults.perturbations import LossyNetwork, ServerCrashes
from repro.scenarios.base import Scenario
from repro.scenarios.perturbations import (
    HotSetDrift,
    NetworkDegradation,
    Stragglers,
    WorkerChurn,
)
from repro.simulation.network import NetworkSchedule


def drift_scenario(at=((2, 0),), shift: float = 0.5,
                   oracle_remanage: bool = True) -> Scenario:
    """Hot-set drift: the Zipf permutation rotates at the given moments.

    The default fires once, mid-run, at the first round boundary of epoch 2 —
    late enough that every system has settled into its steady state, early
    enough that re-adaptation is observable in the remaining epochs.

    ``oracle_remanage=False`` withholds the drift's intent signal from
    re-management-capable servers: nobody re-derives their management plan
    for them, so the preset recovers only for systems that detect the new
    hot set online (``nups-adaptive``; see :mod:`repro.adaptive`).
    """
    return Scenario(
        "hot-set-drift",
        [HotSetDrift(at=at, shift=shift, oracle_remanage=oracle_remanage)],
        description="workload hot set rotates mid-run",
    )


def straggler_scenario(severity: float = 3.0, tail_index: float = 2.0,
                       redraw_each_epoch: bool = True) -> Scenario:
    """Heavy-tailed per-worker slowdowns, re-drawn every epoch."""
    return Scenario(
        "stragglers",
        [Stragglers(severity=severity, tail_index=tail_index,
                    redraw_each_epoch=redraw_each_epoch)],
        description="heavy-tailed per-worker compute slowdowns",
    )


def churn_scenario(fraction: float = 0.25, pause_at_round: int = 1,
                   resume_at_round: Optional[int] = None,
                   epochs: Optional[Sequence[int]] = None) -> Scenario:
    """Worker churn: workers pause mid-epoch, shards are redistributed."""
    return Scenario(
        "worker-churn",
        [WorkerChurn(fraction=fraction, pause_at_round=pause_at_round,
                     resume_at_round=resume_at_round, epochs=epochs)],
        description="workers pause mid-epoch; their shards are redistributed",
    )


def degrading_network_scenario(start_epoch: int = 1, latency_growth: float = 2.0,
                               bandwidth_decay: float = 0.5,
                               steps: int = 3) -> Scenario:
    """A steadily degrading interconnect (per-epoch latency/bandwidth stages)."""
    return Scenario(
        "degrading-network",
        [NetworkDegradation(NetworkSchedule.degrading(
            start_epoch=start_epoch, latency_growth=latency_growth,
            bandwidth_decay=bandwidth_decay, steps=steps,
        ))],
        description="interconnect latency grows and bandwidth shrinks over time",
    )


def storm_scenario(oracle_remanage: bool = True) -> Scenario:
    """Everything at once: drift + stragglers + churn + degrading network."""
    return Scenario(
        "storm",
        [
            HotSetDrift(at=((2, 0),), shift=0.5,
                        oracle_remanage=oracle_remanage),
            Stragglers(severity=2.0, redraw_each_epoch=True),
            WorkerChurn(fraction=0.2),
            NetworkDegradation(NetworkSchedule.degrading(steps=2)),
        ],
        description="all perturbations combined (stress scenario)",
    )


def crash_storm_scenario(crashes_per_epoch: int = 2, down_rounds: int = 2,
                         fault_config=None,
                         crash_round_range=(1, 5)) -> Scenario:
    """Repeated server crashes: several nodes die and rejoin every epoch.

    The stress test of the fault-tolerance subsystem — every architecture
    must complete training under it (recovering values from replicas or
    checkpoints, failing ownership over to the survivors) without deadlock.
    """
    return Scenario(
        "crash-storm",
        [ServerCrashes(crashes_per_epoch=crashes_per_epoch,
                       down_rounds=down_rounds, fault_config=fault_config,
                       crash_round_range=crash_round_range)],
        description="server nodes crash and rejoin repeatedly",
    )


def rolling_restart_scenario(down_rounds: int = 2,
                             fault_config=None) -> Scenario:
    """One node restarts per epoch, cycling through the cluster in order.

    Models a rolling maintenance restart: predictable, one-at-a-time
    failures rather than the crash-storm's random bursts.
    """
    return Scenario(
        "rolling-restart",
        [ServerCrashes(crashes_per_epoch=1, down_rounds=down_rounds,
                       fault_config=fault_config, rolling=True)],
        description="one server restarts per epoch, round-robin",
    )


def lossy_network_scenario(loss_rate: float = 0.05,
                           duplication_rate: float = 0.02,
                           timeout: float = 1e-3,
                           from_epoch: int = 0) -> Scenario:
    """A lossy interconnect: message loss, duplication, retransmit timeouts."""
    return Scenario(
        "lossy-network",
        [LossyNetwork(loss_rate=loss_rate, duplication_rate=duplication_rate,
                      timeout=timeout, from_epoch=from_epoch)],
        description="messages are lost and duplicated; senders retransmit",
    )


def scale_out_scenario(count: int = 1, at_epoch: int = 0,
                       at_round: int = 1) -> Scenario:
    """Live scale-out: fresh nodes join mid-run and take over key ranges."""
    return Scenario(
        "scale-out",
        [ScaleOut(count=count, at_epoch=at_epoch, at_round=at_round)],
        description="fresh server nodes join mid-run; keys rebalance onto them",
    )


def scale_in_scenario(count: int = 1, at_epoch: int = 0, at_round: int = 1,
                      seed: int = 0) -> Scenario:
    """Planned scale-in: nodes drain their state and leave mid-run."""
    return Scenario(
        "scale-in",
        [ScaleIn(count=count, at_epoch=at_epoch, at_round=at_round,
                 seed=seed)],
        description="server nodes drain and leave; zero acknowledged updates "
                    "lost",
    )


def autoscale_storm_scenario(period_rounds: int = 2,
                             max_changes: Optional[int] = None,
                             seed: int = 0) -> Scenario:
    """Sustained membership churn: alternating joins and planned removals."""
    return Scenario(
        "autoscale-storm",
        [AutoscaleStorm(period_rounds=period_rounds, max_changes=max_changes,
                        seed=seed)],
        description="nodes join and leave on a fixed cadence (churn stress)",
    )


def split_brain_scenario(minority_size: int = 1, at_epoch: int = 0,
                         at_round: int = 1, heal_after_rounds: int = 3,
                         seed: int = 0) -> Scenario:
    """A network partition splits the cluster; the minority degrades, heals."""
    return Scenario(
        "split-brain",
        [NetworkPartition(minority_size=minority_size, at_epoch=at_epoch,
                          at_round=at_round,
                          heal_after_rounds=heal_after_rounds, seed=seed)],
        description="cluster splits into majority/minority; buffered minority "
                    "writes replay at heal",
    )


SCENARIO_PRESETS: Dict[str, Callable[..., Scenario]] = {
    "drift": drift_scenario,
    "stragglers": straggler_scenario,
    "churn": churn_scenario,
    "degrading-network": degrading_network_scenario,
    "storm": storm_scenario,
    "crash-storm": crash_storm_scenario,
    "rolling-restart": rolling_restart_scenario,
    "lossy-network": lossy_network_scenario,
    "scale-out": scale_out_scenario,
    "scale-in": scale_in_scenario,
    "autoscale-storm": autoscale_storm_scenario,
    "split-brain": split_brain_scenario,
}

SCENARIO_NAMES = tuple(SCENARIO_PRESETS)


def make_scenario(name: str, **kwargs) -> Scenario:
    """Build a preset scenario by name."""
    try:
        factory = SCENARIO_PRESETS[name]
    except KeyError:
        valid = ", ".join(SCENARIO_NAMES)
        raise ValueError(
            f"unknown scenario {name!r}; expected one of: {valid}"
        ) from None
    return factory(**kwargs)
