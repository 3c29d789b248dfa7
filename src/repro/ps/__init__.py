"""Parameter servers.

This package provides the parameter-server substrate of the reproduction:

* :class:`~repro.ps.storage.ParameterStore` — the key/value store that
  holds the model (dense, or chunked sparse for huge key spaces).
* :class:`~repro.ps.partition.OwnershipMap` — the key-to-node map: a range
  partition that crashes, restores and membership changes rewrite.
* :class:`~repro.ps.base.ParameterServer` — the common API (``pull``,
  ``push``, ``localize``, ``advance_clock``, sampling hooks).
* Baseline architectures from the paper's Section 3.1:
  :class:`~repro.ps.local.SingleNodePS` (shared memory),
  :class:`~repro.ps.classic.ClassicPS` (static allocation, PS-Lite-like),
  :class:`~repro.ps.replication.ReplicationPS` (Petuum-like SSP / ESSP), and
  :class:`~repro.ps.relocation.RelocationPS` (Lapse-like).

NuPS itself, the paper's contribution, lives in :mod:`repro.core`.
"""

from repro.ps.base import ParameterServer, PullResult
from repro.ps.storage import ParameterStore
from repro.ps.partition import OwnershipMap
from repro.ps.local import SingleNodePS
from repro.ps.classic import ClassicPS
from repro.ps.replication import ReplicationPS, ReplicationProtocol
from repro.ps.relocation import RelocationPS

__all__ = [
    "ParameterServer",
    "PullResult",
    "ParameterStore",
    "OwnershipMap",
    "SingleNodePS",
    "ClassicPS",
    "ReplicationPS",
    "ReplicationProtocol",
    "RelocationPS",
]
