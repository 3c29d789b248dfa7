"""Factories for every parameter-server configuration the paper evaluates.

The benchmark harness refers to systems by name. Each name maps to a builder
``(store, cluster, task, **overrides) -> ParameterServer``:

==========================  ====================================================
Name                        Paper system
==========================  ====================================================
``single-node``             shared-memory single node baseline
``classic``                 classic PS (Lapse with relocation disabled / PS-Lite)
``ssp``                     Petuum SSP (bounded staleness, lazy replicas)
``essp``                    Petuum ESSP (bounded staleness, eager replicas)
``lapse``                   relocation PS (Lapse)
``nups``                    NuPS, untuned configuration (hot-spot heuristic,
                            sample reuse U=16)
``nups-tuned``              NuPS, tuned configuration (task-specific replication
                            extent, local sampling)
``relocation+replication``  ablation: multi-technique management, no sampling
                            integration
``relocation+sampling``     ablation: relocation only, with sampling integration
``nups-adaptive``           NuPS + online adaptive management (hot-spot
                            heuristic re-derived from observed access skew)
``nups-adaptive-tuned``     NuPS tuned + online adaptive management (top-k
                            extent re-targeted from observed access skew)
==========================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.adaptive.controller import AdaptiveConfig, install_adaptive
from repro.core.management import DEFAULT_HOT_SPOT_FACTOR, ManagementPlan
from repro.core.nups import NuPS
from repro.core.replica_manager import DEFAULT_SYNC_INTERVAL
from repro.core.sampling.manager import SamplingConfig
from repro.core.sampling.schemes import SchemeConfig
from repro.ml.task import TrainingTask
from repro.ps.base import ParameterServer
from repro.ps.classic import ClassicPS
from repro.ps.local import SingleNodePS
from repro.ps.relocation import RelocationPS
from repro.ps.replication import ReplicationProtocol, ReplicationPS
from repro.ps.storage import ParameterStore
from repro.simulation.cluster import Cluster


#: Default Petuum staleness threshold used by the benchmarks. The paper found
#: ESSP with staleness 10 (clocking every ~10 data points) to perform best;
#: the scaled-down workloads here run far fewer clocks per epoch, so the
#: default staleness is scaled down accordingly to keep the replicas' staleness
#: a comparable fraction of an epoch.
DEFAULT_REPLICATION_STALENESS = 2

#: The tuned configuration replicates this many times more keys than the
#: untuned heuristic for the word vectors task (Section 5.1: 64x more keys).
TUNED_WV_REPLICATION_FACTOR = 64


def _untuned_plan(task: TrainingTask,
                  hot_spot_factor: float = DEFAULT_HOT_SPOT_FACTOR) -> ManagementPlan:
    return ManagementPlan.from_access_counts(task.access_counts(), hot_spot_factor)


def _tuned_plan(task: TrainingTask) -> ManagementPlan:
    """Tuned replication extent per task (Section 5.1).

    KGE and MF keep the untuned extent; WV replicates 64x more keys.
    """
    counts = task.access_counts()
    untuned = ManagementPlan.from_access_counts(counts, DEFAULT_HOT_SPOT_FACTOR)
    if task.name == "word_vectors":
        k = min(len(counts), untuned.num_replicated * TUNED_WV_REPLICATION_FACTOR)
        return ManagementPlan.top_k_by_count(counts, k)
    return untuned


def build_single_node(store: ParameterStore, cluster: Cluster,
                      task: TrainingTask, **overrides) -> ParameterServer:
    return SingleNodePS(store, cluster, seed=overrides.get("seed", 0))


def build_classic(store: ParameterStore, cluster: Cluster,
                  task: TrainingTask, **overrides) -> ParameterServer:
    return ClassicPS(store, cluster, seed=overrides.get("seed", 0))


def build_ssp(store: ParameterStore, cluster: Cluster,
              task: TrainingTask, **overrides) -> ParameterServer:
    return ReplicationPS(
        store, cluster,
        protocol=ReplicationProtocol.SSP,
        staleness=overrides.get("staleness", DEFAULT_REPLICATION_STALENESS),
        seed=overrides.get("seed", 0),
    )


def build_essp(store: ParameterStore, cluster: Cluster,
               task: TrainingTask, **overrides) -> ParameterServer:
    return ReplicationPS(
        store, cluster,
        protocol=ReplicationProtocol.ESSP,
        staleness=overrides.get("staleness", DEFAULT_REPLICATION_STALENESS),
        seed=overrides.get("seed", 0),
    )


def build_lapse(store: ParameterStore, cluster: Cluster,
                task: TrainingTask, **overrides) -> ParameterServer:
    return RelocationPS(store, cluster, seed=overrides.get("seed", 0))


def build_nups(store: ParameterStore, cluster: Cluster,
               task: TrainingTask, **overrides) -> ParameterServer:
    """NuPS untuned: hot-spot heuristic plus sample reuse (BOUNDED, U=16)."""
    plan = overrides.get("plan")
    if plan is None:
        plan = _untuned_plan(task, overrides.get("hot_spot_factor", DEFAULT_HOT_SPOT_FACTOR))
    sampling_config = overrides.get("sampling_config")
    if sampling_config is None:
        sampling_config = SamplingConfig(
            scheme_config=SchemeConfig(
                pool_size=overrides.get("pool_size", 250),
                use_frequency=overrides.get("use_frequency", 16),
            ),
            scheme_override=overrides.get("scheme_override"),
        )
    return NuPS(
        store, cluster,
        plan=plan,
        sampling_config=sampling_config,
        sync_interval=overrides.get("sync_interval", DEFAULT_SYNC_INTERVAL),
        integrate_sampling=overrides.get("integrate_sampling", True),
        seed=overrides.get("seed", 0),
    )


def build_nups_tuned(store: ParameterStore, cluster: Cluster,
                     task: TrainingTask, **overrides) -> ParameterServer:
    """NuPS tuned: task-specific replication extent plus local sampling."""
    overrides.setdefault("plan", _tuned_plan(task))
    overrides.setdefault("scheme_override", "local")
    return build_nups(store, cluster, task, **overrides)


def build_nups_adaptive(store: ParameterStore, cluster: Cluster,
                        task: TrainingTask, **overrides) -> ParameterServer:
    """NuPS + online adaptive management (no oracle re-management needed).

    Starts from the same dataset-statistics plan as ``nups`` and then lets
    an :class:`~repro.adaptive.controller.AdaptiveController` track observed
    access skew and re-manage hot spots during training. Pass an
    ``adaptive_config`` override to tune the controller.
    """
    adaptive_config = overrides.pop("adaptive_config", None) \
        or AdaptiveConfig(policy="hot-spot")
    ps = build_nups(store, cluster, task, **overrides)
    install_adaptive(ps, adaptive_config)
    return ps


def build_nups_adaptive_tuned(store: ParameterStore, cluster: Cluster,
                              task: TrainingTask, **overrides) -> ParameterServer:
    """NuPS tuned + online top-k re-targeting of the replication extent."""
    adaptive_config = overrides.pop("adaptive_config", None) \
        or AdaptiveConfig(policy="top-k")
    ps = build_nups_tuned(store, cluster, task, **overrides)
    install_adaptive(ps, adaptive_config)
    return ps


def build_relocation_replication(store: ParameterStore, cluster: Cluster,
                                 task: TrainingTask, **overrides) -> ParameterServer:
    """Ablation: multi-technique management without sampling integration."""
    overrides.setdefault("integrate_sampling", False)
    return build_nups(store, cluster, task, **overrides)


def build_relocation_sampling(store: ParameterStore, cluster: Cluster,
                              task: TrainingTask, **overrides) -> ParameterServer:
    """Ablation: relocation-only management with sampling integration."""
    overrides.setdefault("plan", ManagementPlan.relocate_all(store.num_keys))
    return build_nups(store, cluster, task, **overrides)


SYSTEM_BUILDERS: Dict[str, Callable[..., ParameterServer]] = {
    "single-node": build_single_node,
    "classic": build_classic,
    "ssp": build_ssp,
    "essp": build_essp,
    "lapse": build_lapse,
    "nups": build_nups,
    "nups-tuned": build_nups_tuned,
    "nups-adaptive": build_nups_adaptive,
    "nups-adaptive-tuned": build_nups_adaptive_tuned,
    "relocation+replication": build_relocation_replication,
    "relocation+sampling": build_relocation_sampling,
}

SYSTEM_NAMES = tuple(SYSTEM_BUILDERS)


def build_parameter_server(name: str, store: ParameterStore, cluster: Cluster,
                           task: TrainingTask, **overrides) -> ParameterServer:
    """Build the named system on the given store/cluster for the given task."""
    try:
        builder = SYSTEM_BUILDERS[name]
    except KeyError:
        valid = ", ".join(SYSTEM_NAMES)
        raise ValueError(f"unknown system {name!r}; expected one of: {valid}") from None
    return builder(store, cluster, task, **overrides)


def make_ps_factory(name: str, **overrides) -> Callable:
    """A ``(store, cluster, task) -> ParameterServer`` factory for ``name``.

    This is the factory shape :func:`repro.runner.experiment.run_experiment`
    expects. The store's backend is chosen by the ``storage`` field of
    :class:`~repro.runner.config.ExperimentConfig`, which converts the store
    before the factory runs.
    """
    if name not in SYSTEM_BUILDERS:
        valid = ", ".join(SYSTEM_NAMES)
        raise ValueError(f"unknown system {name!r}; expected one of: {valid}")

    def factory(store: ParameterStore, cluster: Cluster, task: TrainingTask) -> ParameterServer:
        return build_parameter_server(name, store, cluster, task, **overrides)

    return factory
