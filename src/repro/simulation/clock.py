"""Simulated clocks.

Each worker (and each node-level background thread) owns a
:class:`SimulatedClock`. Parameter-server operations advance the clock of the
worker that issued them; background activities (replica synchronization, pool
preparation) advance the clock of the background thread that runs them. The
run time of an epoch is the maximum clock value across all workers, which
mirrors how wall-clock epoch time is determined on a real cluster.

The batch helpers (:meth:`SimulatedClock.advance_repeated` and
:func:`fold_costs`) replace a Python-level loop of ``advance`` calls with one
NumPy prefix sum. They are *bit-identical* to the loop they replace:
``np.add.accumulate`` performs the same left-to-right sequence of IEEE-754
additions that repeated ``advance`` calls would, so simulated epoch times do
not depend on how a parameter server groups its charges.
"""

from __future__ import annotations

import numpy as np


def fold_costs(start: float, costs: np.ndarray) -> float:
    """Left-fold ``start + c_0 + c_1 + ...`` exactly as a sequential loop.

    Equivalent (bit-for-bit) to ``for c in costs: start += c``.
    """
    n = len(costs)
    if n == 0:
        return float(start)
    acc = np.empty(n + 1, dtype=np.float64)
    acc[0] = start
    acc[1:] = costs
    np.add.accumulate(acc, out=acc)
    return float(acc[-1])


class SimulatedClock:
    """A monotonically increasing simulated clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Negative advances are rejected: simulated time never moves backwards.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it lies in the future.

        If ``timestamp`` is in the past the clock is left unchanged. Returns
        the (possibly unchanged) current time. This is used to model a worker
        that blocks until a background event (e.g. a relocation that is in
        flight) completes.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def advance_repeated(self, cost: float, count: int) -> float:
        """Advance by ``cost``, ``count`` times (bit-identical to the loop)."""
        if count <= 0:
            return self._now
        if cost < 0:
            raise ValueError(f"cannot advance clock by negative time: {cost}")
        if count <= 64:
            # NumPy dispatch costs more than a short Python fold.
            now = self._now
            for _ in range(count):
                now += cost
            self._now = now
        else:
            self._now = fold_costs(self._now, np.full(count, cost, dtype=np.float64))
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.6f})"
