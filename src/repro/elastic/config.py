"""Tunables of planned membership transitions.

Planned scale-out and scale-in run on the membership controller
(:class:`~repro.faults.controller.MembershipController`), the same departure
and arrival steps as a crash and a restore; :class:`ElasticConfig` holds the
one input that is theirs alone, the coordination delay of a planned change.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ElasticConfig"]


@dataclass
class ElasticConfig:
    """Tunables of planned membership transitions.

    Parameters
    ----------
    join_delay:
        Coordination overhead of one membership change (join handshake or
        leave announcement): the epoch bump, ownership-map rewrite, and
        route refresh take this long before any state moves.
    """

    join_delay: float = 0.002

    def __post_init__(self) -> None:
        if self.join_delay < 0:
            raise ValueError("join_delay must be non-negative")
