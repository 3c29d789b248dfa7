"""Periodic background-event scheduling in simulated time.

NuPS runs replica synchronization on a background thread at a target
frequency (the time-based staleness bound), and the sample-reuse scheme
prepares pools in the background. In the simulation these activities are
driven by :class:`PeriodicSchedule`: the training driver advances simulated
time, and the schedule reports how many periods are due and how far behind
the background work has fallen (which reproduces the "actual synchronization
frequency" effect of Figure 11/12 when the work per period exceeds the
period).
"""

from __future__ import annotations


class PeriodicSchedule:
    """Tracks a periodic background task in simulated time.

    Parameters
    ----------
    interval:
        Target period in simulated seconds. ``float('inf')`` (what
        :meth:`disabled` builds) disables the schedule.
    start:
        Simulated time of the first possible firing.
    """

    def __init__(self, interval: float, start: float = 0.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive; use PeriodicSchedule.disabled()")
        self.interval = float(interval)
        self._next_due = float(start) + self.interval
        self._busy_until = float(start)
        self.fired = 0
        self.total_busy_time = 0.0

    # -------------------------------------------------------------- factories
    @classmethod
    def disabled(cls) -> "PeriodicSchedule":
        """A schedule that never fires."""
        return cls(float("inf"))

    @property
    def enabled(self) -> bool:
        return self.interval != float("inf")

    # ------------------------------------------------------------------ logic
    def due_count(self, now: float) -> int:
        """Number of periods that are due at simulated time ``now``.

        A period is due when its scheduled time has passed *and* the previous
        execution has finished (the background thread is not re-entrant).
        """
        if not self.enabled:
            return 0
        earliest = max(self._next_due, self._busy_until)
        if now < earliest:
            return 0
        return 1 + int((now - earliest) // self.interval)

    def fire(self, now: float, duration: float) -> float:
        """Record one execution of the background task at time ``now``.

        ``duration`` is the simulated cost of the task. Returns the time at
        which the task finishes. Subsequent firings cannot start before then,
        which models a background thread that falls behind its target
        frequency when the work per period exceeds the period.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(now, self._busy_until)
        finish = start + duration
        self._busy_until = finish
        self._next_due = max(self._next_due + self.interval, finish)
        self.fired += 1
        self.total_busy_time += duration
        return finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodicSchedule(interval={self.interval}, fired={self.fired}, "
            f"busy_until={self._busy_until:.4f})"
        )
