"""The sampling manager (Section 4.4).

The sampling manager sits behind NuPS's sampling API. Applications register a
target distribution together with a required conformity level; the manager
transparently picks a sampling scheme that provides (at least) that level and
routes all ``prepare_sample`` / ``pull_sample`` calls for the distribution
through that scheme. The manager and its schemes choose keys only; NuPS
charges the accesses (``pull_sample`` and its point charger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import SamplingDistribution
from repro.core.sampling.schemes import (
    DEFAULT_SCHEME_FOR_LEVEL,
    SCHEMES_BY_NAME,
    SamplingScheme,
    SchemeConfig,
)
from repro.ps.base import SampleHandle
from repro.simulation.cluster import WorkerContext


@dataclass
class SamplingConfig:
    """Configuration of the sampling manager.

    ``scheme_override`` forces a specific scheme by name (e.g. ``"local"`` for
    the paper's tuned KGE/WV configurations, or ``"direct_access_repurposing"``
    for the DGL-KE-style scheme), regardless of the level-based default and
    even when it provides a weaker conformity level than the registered one
    (the tuned configurations deliberately drop to NON_CONFORM for speed).
    """

    scheme_config: SchemeConfig = field(default_factory=SchemeConfig)
    scheme_override: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scheme_override is not None and self.scheme_override not in SCHEMES_BY_NAME:
            valid = ", ".join(sorted(SCHEMES_BY_NAME))
            raise ValueError(
                f"unknown scheme override {self.scheme_override!r}; "
                f"expected one of: {valid}"
            )


class RegisteredDistribution:
    """A distribution registered with the sampling manager."""

    def __init__(self, distribution_id: int, distribution: SamplingDistribution,
                 level: ConformityLevel, scheme: SamplingScheme) -> None:
        self.distribution_id = distribution_id
        self.distribution = distribution
        self.level = level
        self.scheme = scheme


class SamplingManager:
    """Chooses and drives sampling schemes behind the sampling API.

    ``host`` is the parameter server the schemes choose keys against (NuPS;
    :mod:`repro.core.sampling.schemes` lists the methods they call).
    """

    def __init__(self, host, config: Optional[SamplingConfig] = None) -> None:
        self.host = host
        self.config = config or SamplingConfig()
        self._registered: Dict[int, RegisteredDistribution] = {}
        self._next_id = 0

    # -------------------------------------------------------------------- API
    def register(self, distribution: SamplingDistribution,
                 level: ConformityLevel = ConformityLevel.CONFORM) -> int:
        """Register ``distribution`` under ``level`` and return its id."""
        scheme = self._build_scheme(distribution, level)
        distribution_id = self._next_id
        self._next_id += 1
        self._registered[distribution_id] = RegisteredDistribution(
            distribution_id, distribution, level, scheme
        )
        return distribution_id

    def prepare_sample(self, worker: WorkerContext, distribution_id: int,
                       count: int) -> SampleHandle:
        if count < 0:
            raise ValueError("count must be non-negative")
        entry = self._entry(distribution_id)
        return entry.scheme.prepare(worker, count, distribution_id)

    def pull_sample(self, worker: WorkerContext, handle: SampleHandle,
                    count: Optional[int] = None) -> np.ndarray:
        """The keys of ``handle``'s next ``count`` samples (default: all
        remaining), chosen by the distribution's scheme and uncharged."""
        entry = self._entry(handle.distribution_id)
        count = handle.remaining if count is None else int(count)
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > handle.remaining:
            raise ValueError(
                f"requested {count} samples but only {handle.remaining} remain "
                f"in handle {handle.handle_id}"
            )
        return entry.scheme.select(worker, handle, count)

    def housekeeping(self, node_id: int, now: float) -> None:
        """Run background maintenance of all schemes for ``node_id``."""
        for entry in self._registered.values():
            entry.scheme.housekeeping(node_id, now)

    # -------------------------------------------------------------- inspection
    def scheme_for(self, distribution_id: int) -> SamplingScheme:
        return self._entry(distribution_id).scheme

    # --------------------------------------------------------------- internals
    def _entry(self, distribution_id: int) -> RegisteredDistribution:
        try:
            return self._registered[distribution_id]
        except KeyError:
            raise KeyError(
                f"unknown distribution id {distribution_id}; register it first"
            ) from None

    def _build_scheme(self, distribution: SamplingDistribution,
                      level: ConformityLevel) -> SamplingScheme:
        if self.config.scheme_override is not None:
            scheme_cls = SCHEMES_BY_NAME[self.config.scheme_override]
        else:
            scheme_cls = DEFAULT_SCHEME_FOR_LEVEL[level]
        return scheme_cls(self.host, distribution, self.config.scheme_config)
