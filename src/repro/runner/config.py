"""Experiment configuration (the knobs behind the paper's Section 5 setup).

:class:`ExperimentConfig` bundles everything one training experiment needs
beyond the task and the PS factory: the simulated cluster shape (the
paper's main setting is 8 nodes x 8 workers, Section 5.1), the epoch
count, the scheduling granularity, the seed, an optional dynamic-workload
scenario, the storage backend and telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.ps.chunks import StorageConfig
from repro.simulation.cluster import ClusterConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.obs import TelemetryConfig
    from repro.scenarios.base import Scenario


@dataclass
class ExperimentConfig:
    """Configuration of one training experiment.

    Parameters
    ----------
    cluster:
        The simulated cluster (number of nodes, workers per node, network
        cost model). The paper's main setting is 8 nodes x 8 workers.
    epochs:
        Number of epochs to train.
    chunk_size:
        Number of data points a worker processes per scheduling round. The
        runner interleaves chunks across all workers round-robin, which is
        how the simulation approximates parallel execution.
    seed:
        Random seed for sharding, model initialization and training; a
        non-negative integer.
    scenario:
        Optional dynamic-workload scenario (see :mod:`repro.scenarios`): a
        composition of time-varying perturbations — hot-set drift,
        stragglers, worker churn, degrading networks — that the runner
        invokes at epoch and round boundaries. ``None`` (the default) runs
        the static experiment, bit-identical to a runner without scenario
        support.
    storage:
        Optional :class:`~repro.ps.chunks.StorageConfig` selecting the
        parameter store's storage backend. ``None`` (the default) keeps
        whatever backend the task's store was created with (dense, for all
        built-in tasks). Passing ``StorageConfig(backend="sparse", ...)``
        converts the store to chunked sparse storage after task
        initialization — bit-identical training results, bounded resident
        memory (see :mod:`repro.ps.chunks`).
    telemetry:
        Optional :class:`~repro.obs.TelemetryConfig` enabling the
        observability layer (see :mod:`repro.obs`): a span/event tracer
        plus a periodic time-series sampler attached to the cluster, with
        the trace exposed on ``ExperimentResult.trace`` and optionally
        written as a JSONL log. ``None`` (the default) records nothing and
        is bit-identical to a runner without telemetry support; telemetry
        *on* is also bit-identical in simulated state (the tracer only
        reads clocks and counters) and costs bounded wall-clock overhead
        (``benchmarks/bench_obs.py``).
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    epochs: int = 3
    chunk_size: int = 16
    seed: int = 0
    scenario: Optional["Scenario"] = None
    storage: Optional[StorageConfig] = None
    telemetry: Optional["TelemetryConfig"] = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(
                f"epochs must be >= 1 (got {self.epochs}); an experiment "
                "trains at least one epoch"
            )
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1 (got {self.chunk_size}); it is the "
                "number of data points a worker processes per scheduling round"
            )
        if self.seed < 0:
            raise ValueError(
                f"seed must be >= 0 (got {self.seed}); NumPy seeds the run's "
                "random streams from it — pass a non-negative integer"
            )
        if isinstance(self.scenario, str):
            from repro.scenarios.presets import SCENARIO_NAMES

            raise TypeError(
                f"scenario must be a Scenario object, not the string "
                f"{self.scenario!r}; build it with "
                f"repro.scenarios.make_scenario({self.scenario!r}) — "
                f"known presets: {', '.join(SCENARIO_NAMES)}"
            )
        if self.scenario is not None and not hasattr(self.scenario, "bind"):
            raise TypeError(
                "scenario must be a repro.scenarios.Scenario (or expose a "
                f"compatible bind method), got {type(self.scenario).__name__}"
            )
        if isinstance(self.storage, str):
            raise TypeError(
                f"storage must be a StorageConfig object, not the string "
                f"{self.storage!r}; build it with "
                f"repro.ps.chunks.StorageConfig(backend={self.storage!r})"
            )
        if self.storage is not None and not isinstance(self.storage, StorageConfig):
            raise TypeError(
                "storage must be a repro.ps.chunks.StorageConfig, "
                f"got {type(self.storage).__name__}"
            )
        if isinstance(self.telemetry, (str, bool)):
            raise TypeError(
                f"telemetry must be a TelemetryConfig object, not "
                f"{self.telemetry!r}; build it with "
                "repro.obs.TelemetryConfig(path=...) — or leave it None "
                "to disable telemetry"
            )
        if self.telemetry is not None:
            from repro.obs import TelemetryConfig

            if not isinstance(self.telemetry, TelemetryConfig):
                raise TypeError(
                    "telemetry must be a repro.obs.TelemetryConfig, "
                    f"got {type(self.telemetry).__name__}"
                )
