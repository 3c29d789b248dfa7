"""Key-addressed access to a :class:`~repro.core.replica_manager.ReplicaManager`.

The parameter servers address replicas by slot (one ``slots`` lookup per
chunk); tests address them by key, and check that every replica agrees with
the store after a synchronization.
"""

from __future__ import annotations

import numpy as np


def read(manager, node_id: int, keys) -> np.ndarray:
    """The node's replica values of the replicated ``keys``."""
    return manager.read_slots(node_id, manager.slots(np.asarray(keys)))


def add(manager, node_id: int, keys, deltas) -> None:
    """Apply ``deltas`` to the node's replica of ``keys`` (buffered for sync)."""
    manager.add_slots(node_id, manager.slots(np.asarray(keys)),
                      np.asarray(deltas, dtype=np.float32))


def max_divergence(manager) -> float:
    """Largest absolute difference between any replica and the store."""
    if not manager.enabled:
        return 0.0
    reference = manager.store.get(manager.replicated_keys)
    return max(float(np.abs(replica - reference).max(initial=0.0))
               for replica in manager._replicas.values())
