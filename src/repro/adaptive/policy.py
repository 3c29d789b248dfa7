"""Management policies: observed access statistics -> desired plan.

A policy decides which keys *should* be managed by replication given the
statistics in :class:`~repro.adaptive.stats.AccessStats` and the currently
installed :class:`~repro.core.management.ManagementPlan`. Two policies mirror
the paper's two ways of choosing the replicated set (Section 5.1), computed
online instead of from dataset statistics:

* :class:`HotSpotPolicy` — the untuned heuristic: replicate keys whose
  observed frequency exceeds ``factor`` times the mean frequency.
* :class:`TopKPolicy` — the tuned configurations: replicate the ``k``
  hottest observed keys.

Both apply *hysteresis bands* so that keys hovering around the decision
boundary do not flip between replication and relocation on every adaptation
step (replica creation and teardown are not free): a key must clear the
entry condition to become replicated but only falls back to relocation once
it drops below a lower exit bound.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive.stats import AccessStats
from repro.core.management import DEFAULT_HOT_SPOT_FACTOR, ManagementPlan

__all__ = ["HotSpotPolicy", "ManagementPolicy", "TopKPolicy", "make_policy"]


class ManagementPolicy:
    """Base class: compute the desired replicated key set from statistics."""

    name = "abstract"

    def desired_replicated(self, stats: AccessStats,
                           current: ManagementPlan) -> np.ndarray:
        """The keys the policy wants replicated (sorted, unique)."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"policy": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _with_hysteresis(enter_keys: np.ndarray, retain_keys: np.ndarray,
                     current: ManagementPlan) -> np.ndarray:
    """Entering keys plus currently replicated keys that may be retained."""
    retained = np.intersect1d(current.replicated_keys, retain_keys,
                              assume_unique=False)
    return np.union1d(enter_keys, retained)


class HotSpotPolicy(ManagementPolicy):
    """The 100x-mean heuristic computed online, with a hysteresis band.

    A key *enters* the replicated set when its observed frequency exceeds
    ``factor * mean``; a replicated key *stays* until it falls below
    ``exit_fraction * factor * mean``. With ``exit_fraction=1.0`` the band
    collapses to the paper's plain threshold.
    """

    name = "hot-spot"

    def __init__(self, factor: float = DEFAULT_HOT_SPOT_FACTOR,
                 exit_fraction: float = 0.5) -> None:
        if factor <= 0:
            raise ValueError("factor must be positive")
        if not 0 < exit_fraction <= 1:
            raise ValueError("exit_fraction must be in (0, 1]")
        self.factor = float(factor)
        self.exit_fraction = float(exit_fraction)

    def desired_replicated(self, stats: AccessStats,
                           current: ManagementPlan) -> np.ndarray:
        keys, estimates = stats.hot_keys()
        enter_threshold = self.factor * stats.mean_frequency()
        exit_threshold = self.exit_fraction * enter_threshold
        enter = keys[estimates > enter_threshold]
        retain = keys[estimates > exit_threshold]
        return _with_hysteresis(enter, retain, current)

    def describe(self) -> dict:
        return {"policy": self.name, "factor": self.factor,
                "exit_fraction": self.exit_fraction}


class TopKPolicy(ManagementPolicy):
    """Replicate the ``k`` hottest observed keys, with a rank-slack band.

    A key *enters* the replicated set when it ranks in the observed top
    ``k``; a replicated key *stays* while it ranks within the top
    ``ceil(k * (1 + slack))``. The slack absorbs near-ties at rank ``k``
    that would otherwise swap two keys on every adaptation step.
    """

    name = "top-k"

    def __init__(self, k: int, slack: float = 0.25) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if slack < 0:
            raise ValueError("slack must be non-negative")
        self.k = int(k)
        self.slack = float(slack)

    def desired_replicated(self, stats: AccessStats,
                           current: ManagementPlan) -> np.ndarray:
        if self.k == 0:
            return np.empty(0, dtype=np.int64)
        keys, _ = stats.hot_keys()
        enter = keys[: self.k]
        retain_rank = int(np.ceil(self.k * (1.0 + self.slack)))
        retain = keys[:retain_rank]
        return _with_hysteresis(enter, retain, current)

    def describe(self) -> dict:
        return {"policy": self.name, "k": self.k, "slack": self.slack}


def make_policy(name: str, top_k: int = 0) -> ManagementPolicy:
    """Build a policy by name (``"hot-spot"`` or ``"top-k"``) with its
    default thresholds and bands."""
    if name == "hot-spot":
        return HotSpotPolicy()
    if name == "top-k":
        return TopKPolicy(k=top_k)
    raise ValueError(f"unknown policy {name!r}; expected 'hot-spot' or 'top-k'")
