"""Factories for every parameter-server configuration the paper evaluates.

The benchmark harness refers to systems by name. Each name maps to a builder
``(store, cluster, task, **overrides) -> ParameterServer`` whose overrides
are keyword-only parameters: the NuPS family takes ``plan``, ``pool_size``,
``use_frequency``, ``scheme_override``, ``sync_interval`` and
``integrate_sampling`` (``nups-adaptive`` also ``adaptive_config``), the
other systems take none, and an unknown or inapplicable override raises
``TypeError`` when the PS is built:

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
==========================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

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
                      task: TrainingTask) -> ParameterServer:
    return SingleNodePS(store, cluster, seed=0)


def build_classic(store: ParameterStore, cluster: Cluster,
                  task: TrainingTask) -> ParameterServer:
    return ClassicPS(store, cluster, seed=0)


def build_ssp(store: ParameterStore, cluster: Cluster,
              task: TrainingTask) -> ParameterServer:
    return ReplicationPS(store, cluster, protocol=ReplicationProtocol.SSP,
                         staleness=DEFAULT_REPLICATION_STALENESS, seed=0)


def build_essp(store: ParameterStore, cluster: Cluster,
               task: TrainingTask) -> ParameterServer:
    return ReplicationPS(store, cluster, protocol=ReplicationProtocol.ESSP,
                         staleness=DEFAULT_REPLICATION_STALENESS, seed=0)


def build_lapse(store: ParameterStore, cluster: Cluster,
                task: TrainingTask) -> ParameterServer:
    return RelocationPS(store, cluster, seed=0)


def build_nups(store: ParameterStore, cluster: Cluster, task: TrainingTask, *,
               plan: Optional[ManagementPlan] = None, pool_size: int = 250,
               use_frequency: int = 16, scheme_override: Optional[str] = None,
               sync_interval: Optional[float] = DEFAULT_SYNC_INTERVAL,
               integrate_sampling: bool = True) -> ParameterServer:
    """NuPS untuned: hot-spot heuristic plus sample reuse (BOUNDED, U=16)."""
    if plan is None:
        plan = ManagementPlan.from_access_counts(task.access_counts(),
                                                 DEFAULT_HOT_SPOT_FACTOR)
    return NuPS(
        store, cluster,
        plan=plan,
        sampling_config=SamplingConfig(
            scheme_config=SchemeConfig(pool_size=pool_size,
                                       use_frequency=use_frequency),
            scheme_override=scheme_override,
        ),
        sync_interval=sync_interval,
        integrate_sampling=integrate_sampling,
        seed=0,
    )


def build_nups_tuned(store: ParameterStore, cluster: Cluster,
                     task: TrainingTask, *,
                     plan: Optional[ManagementPlan] = None,
                     scheme_override: Optional[str] = "local",
                     **nups) -> ParameterServer:
    """NuPS tuned: task-specific replication extent plus local sampling."""
    if plan is None:
        plan = _tuned_plan(task)
    return build_nups(store, cluster, task, plan=plan,
                      scheme_override=scheme_override, **nups)


def build_nups_adaptive(store: ParameterStore, cluster: Cluster,
                        task: TrainingTask, *,
                        adaptive_config: Optional[AdaptiveConfig] = None,
                        **nups) -> ParameterServer:
    """NuPS + online adaptive management (no oracle re-management needed).

    Starts from the same dataset-statistics plan as ``nups`` and then lets
    an :class:`~repro.adaptive.controller.AdaptiveController` track observed
    access skew and re-manage hot spots during training. Pass
    ``adaptive_config`` to tune the controller.
    """
    ps = build_nups(store, cluster, task, **nups)
    install_adaptive(ps, adaptive_config or AdaptiveConfig(policy="hot-spot"))
    return ps


def build_relocation_replication(store: ParameterStore, cluster: Cluster,
                                 task: TrainingTask, *,
                                 integrate_sampling: bool = False,
                                 **nups) -> ParameterServer:
    """Ablation: multi-technique management without sampling integration."""
    return build_nups(store, cluster, task,
                      integrate_sampling=integrate_sampling, **nups)


def build_relocation_sampling(store: ParameterStore, cluster: Cluster,
                              task: TrainingTask, *,
                              plan: Optional[ManagementPlan] = None,
                              **nups) -> ParameterServer:
    """Ablation: relocation-only management with sampling integration."""
    if plan is None:
        plan = ManagementPlan.relocate_all(store.num_keys)
    return build_nups(store, cluster, task, plan=plan, **nups)


SYSTEM_BUILDERS: Dict[str, Callable[..., ParameterServer]] = {
    "single-node": build_single_node,
    "classic": build_classic,
    "ssp": build_ssp,
    "essp": build_essp,
    "lapse": build_lapse,
    "nups": build_nups,
    "nups-tuned": build_nups_tuned,
    "nups-adaptive": build_nups_adaptive,
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
