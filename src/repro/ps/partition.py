"""The key-to-node ownership map of a parameter server.

Classic parameter servers allocate parameters to servers statically
(Section 3.1.1) by range-partitioning the key space. The same map doubles as
the *home node* map in a relocation PS: the home node always knows which node
currently owns a key, so a requester contacts the home node first (the first
of Lapse's three relocation messages).

Membership changes rewrite the map: a crash hands the victim's keys to the
survivors, a restore puts them back, a scale-out cedes a fair share to the
new node, a scale-in hands the leaving node's keys to its successors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Key spaces at or below this size serve :meth:`OwnershipMap.owners` from a
#: dense key -> owner table (one ``take`` per call) even before the first
#: membership change. Above it the table would dominate memory (8 GiB at
#: 10^9 keys), so lookups evaluate the range formula until a change forces
#: the table into existence.
DENSE_TABLE_MAX_KEYS = 1 << 22


class OwnershipMap:
    """Maps parameter keys to the node that owns (is home to) them.

    Until the first membership change every key ``k`` belongs to node
    ``k // ceil(num_keys / num_servers)``: contiguous, nearly equal ranges.
    From the first change on lookups answer from one dense key -> home table
    that :meth:`fail`, :meth:`restore`, :meth:`join` and :meth:`leave`
    rewrite. While a node is down the map also keeps the *planned* table —
    the placement without any failover — which joins and leaves update
    alongside the live one, so a restore returns each key to where the
    membership history, not the crash, put it.
    """

    def __init__(self, num_keys: int, num_servers: int) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if num_servers <= 0:
            raise ValueError("num_servers must be positive")
        self.num_keys = int(num_keys)
        self.num_servers = int(num_servers)
        self._range_size = -(-self.num_keys // self.num_servers)  # ceil division
        #: Dense key -> owner table: the live map after the first change,
        #: before it a cache of the range formula (small key spaces only).
        self._table: np.ndarray | None = None
        #: The planned table while any node is down, else None.
        self._planned: np.ndarray | None = None
        self._down: set[int] = set()

    # ---------------------------------------------------------------- lookups
    def owners(self, keys: np.ndarray) -> np.ndarray:
        """Node ids of ``keys``.

        Negative keys raise ``KeyError`` (an explicit once-per-batch check,
        not ``take``'s wrap-around); too-large keys raise ``IndexError`` from
        ``take``'s bounds check on the table path and ``KeyError`` on the
        formula path.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if not keys.size:
            return keys.copy()
        if int(keys.min()) < 0:
            raise KeyError(
                f"keys out of range [0, {self.num_keys}): min={int(keys.min())}"
            )
        table = self._table
        if table is None:
            if self.num_keys > DENSE_TABLE_MAX_KEYS:
                hi = int(keys.max())
                if hi >= self.num_keys:
                    raise KeyError(
                        f"keys out of range [0, {self.num_keys}): max={hi}"
                    )
                return keys // self._range_size
            table = self._table = self.range_owners(
                np.arange(self.num_keys, dtype=np.int64))
        return table.take(keys, mode="raise")

    def range_owners(self, keys: np.ndarray) -> np.ndarray:
        """The static range partition of (valid) ``keys``, whatever the
        membership history — the placement every node starts from."""
        return keys // self._range_size

    def keys_of(self, server: int) -> np.ndarray:
        """All keys ``server`` owns right now."""
        if not 0 <= server < self.num_servers:
            raise ValueError(f"server {server} out of range [0, {self.num_servers})")
        return np.flatnonzero(self._all_owners() == server)

    # ------------------------------------------------------------ transitions
    def fail(self, node_id: int, survivors: Sequence[int]) -> np.ndarray:
        """Hand ``node_id``'s keys round-robin to ``survivors``; return them.

        Failovers stack: a second crash while the first node is down moves
        the second node's keys, including those it took over from the first.
        """
        table = self._rewrite()
        planned = table.copy() if self._planned is None else self._planned
        moved = _hand_over(table, node_id, survivors)
        self._planned = planned
        self._down.add(int(node_id))
        return moved

    def restore(self, node_id: int, active_nodes: Sequence[int]) -> np.ndarray:
        """Undo ``node_id``'s failover; return the keys whose owner changed.

        The live table is rebuilt from the planned one, re-applying the
        failover of every node that is still down, in node order, over
        ``active_nodes`` (the membership after the restore).
        """
        if int(node_id) not in self._down:
            return np.empty(0, dtype=np.int64)
        self._down.discard(int(node_id))
        before = self._table
        table = self._planned.copy()
        for failed in sorted(self._down):
            _hand_over(table, failed, active_nodes)
        if not self._down:
            self._planned = None
        self._table = table
        return np.flatnonzero(before != table)

    def join(self, node_id: int, active_nodes: Sequence[int]) -> np.ndarray:
        """Cede each active owner's fair share to ``node_id``; return moved keys.

        ``active_nodes`` is the post-join active set (including
        ``node_id``). Each pre-existing owner gives ``count // n_active`` of
        its keys — the tail of its sorted key list, so range partitions stay
        mostly contiguous — which lands the new node within one key per donor
        of the ideal ``num_keys / n_active`` share. While a node is down the
        planned table cedes its own shares independently.
        """
        node_id = int(node_id)
        if node_id < 0:
            raise ValueError(f"new_node must be non-negative, got {node_id}")
        if len(active_nodes) < 2:
            raise ValueError("a join needs at least one donor node")
        self.num_servers = max(self.num_servers, node_id + 1)
        moved = _cede_shares(self._rewrite(), node_id, active_nodes)
        if self._planned is not None:
            _cede_shares(self._planned, node_id, active_nodes)
        return moved

    def leave(self, node_id: int, successors: Sequence[int]) -> np.ndarray:
        """Hand ``node_id``'s keys round-robin to ``successors`` for good
        (no later restore); return the live table's moved keys."""
        moved = _hand_over(self._rewrite(), node_id, successors)
        if self._planned is not None:
            _hand_over(self._planned, node_id, successors)
        return moved

    def _all_owners(self) -> np.ndarray:
        """The owner of every key (the live table itself once it exists)."""
        if self._table is not None:
            return self._table
        return self.range_owners(np.arange(self.num_keys, dtype=np.int64))

    def _rewrite(self) -> np.ndarray:
        """The live table, about to be rewritten by a transition."""
        if self._table is None:
            self._table = self.range_owners(
                np.arange(self.num_keys, dtype=np.int64))
        return self._table


def _hand_over(table: np.ndarray, node_id: int,
               receivers: Sequence[int]) -> np.ndarray:
    """Re-assign ``node_id``'s keys in ``table`` round-robin to ``receivers``."""
    receivers = np.asarray(list(receivers), dtype=np.int64)
    if len(receivers) == 0:
        raise ValueError("a hand-over needs at least one receiving node")
    if int(node_id) in receivers:
        raise ValueError(f"node {node_id} cannot take over its own keys")
    moved = np.flatnonzero(table == int(node_id))
    table[moved] = receivers[np.arange(len(moved)) % len(receivers)]
    return moved


def _cede_shares(table: np.ndarray, node_id: int,
                 active_nodes: Sequence[int]) -> np.ndarray:
    """Move each other active owner's tail share of ``table`` to ``node_id``."""
    n_active = len(active_nodes)
    moved_parts = []
    for owner in sorted(int(n) for n in active_nodes):
        if owner == node_id:
            continue
        owned = np.flatnonzero(table == owner)
        share = len(owned) // n_active
        if share:
            moved_parts.append(owned[-share:])
    moved = np.concatenate(moved_parts) if moved_parts else \
        np.empty(0, dtype=np.int64)
    table[moved] = node_id
    return moved
