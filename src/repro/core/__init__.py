"""The paper's primary contribution: NuPS and its building blocks."""

from repro.core.management import (
    DEFAULT_HOT_SPOT_FACTOR,
    ManagementPlan,
)
from repro.core.replica_manager import DEFAULT_SYNC_INTERVAL, ReplicaManager
from repro.core.nups import NuPS
from repro.core.sampling import (
    ConformityLevel,
    SamplingConfig,
    SamplingManager,
    SchemeConfig,
)

__all__ = [
    "NuPS",
    "ManagementPlan",
    "DEFAULT_HOT_SPOT_FACTOR",
    "ReplicaManager",
    "DEFAULT_SYNC_INTERVAL",
    "ConformityLevel",
    "SamplingConfig",
    "SamplingManager",
    "SchemeConfig",
]
