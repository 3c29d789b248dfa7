"""Sampling scheme implementations (Sections 4.2 and 4.4).

Each scheme implements the two halves of the sampling API as key choice:
``prepare`` returns a handle, ``select`` the keys that the next ``count``
samples of a handle are. Neither reads a parameter value or charges an
access; the host (NuPS) charges the selected keys, on the per-call path
(``pull_sample``) and in its point charger's fold alike. The host methods
the schemes call:

* ``localize_async(node_id, keys)`` — relocate keys to the node in the
  background;
* ``key_is_local(node_id, key)`` and ``keys_are_local(node_id, keys)`` —
  whether keys are accessible at the node through shared memory now;
* ``local_support_keys(node_id, distribution)`` — the support's keys local
  to the node;
* ``recent_direct_access_keys(node_id)`` — the node's recent direct-access
  keys, for repurposing;
* ``sampling_rng(node_id)`` — the node's random generator.

Implemented schemes and the conformity level they provide (Table 1 / Fig. 5):

========================  =============  =========================================
Scheme                    Level          Idea
========================  =============  =========================================
IndependentSampling       CONFORM        iid samples, localize in ``prepare``
PoolSampleReuse           BOUNDED        reuse pools of iid samples U times
PostponingSampleReuse     LONG_TERM      like reuse, but postpone non-local samples
LocalSampling             NON_CONFORM    sample from the locally available part of π
DirectAccessRepurposing   NON_CONFORM    reuse recent direct-access keys as samples
========================  =============  =========================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.sampling.alias import AliasSampler
from repro.core.sampling.conformity import ConformityLevel
from repro.core.sampling.distributions import SamplingDistribution
from repro.ps.base import SampleHandle
from repro.simulation.cluster import WorkerContext


#: Samples a node's local sampler draws before it re-reads the local part of
#: the support (local sampling).
LOCAL_REFRESH_INTERVAL = 512
#: Recent direct-access keys a node keeps for direct-access repurposing.
REPURPOSE_BUFFER_SIZE = 1024


@dataclass
class SchemeConfig:
    """Tunable knobs shared by the schemes.

    Defaults follow the paper's untuned configuration: pool size 250 and use
    frequency 16 (Section 5.1).
    """

    pool_size: int = 250
    use_frequency: int = 16

    def __post_init__(self) -> None:
        if self.pool_size <= 0:
            raise ValueError("pool_size must be positive")
        if self.use_frequency <= 0:
            raise ValueError("use_frequency must be positive")


class SamplingScheme(ABC):
    """Base class: one scheme instance serves one registered distribution."""

    #: Conformity level this scheme provides (overridden by subclasses).
    level = ConformityLevel.NON_CONFORM
    #: Short identifier used in configuration and reports.
    scheme_name = "abstract"

    def __init__(self, host, distribution: SamplingDistribution,
                 config: Optional[SchemeConfig] = None) -> None:
        self.host = host
        self.distribution = distribution
        self.config = config or SchemeConfig()

    @abstractmethod
    def prepare(self, worker: WorkerContext, count: int,
                distribution_id: int) -> SampleHandle:
        """Prepare ``count`` samples; returns the handle for later pulls."""

    def select(self, worker: WorkerContext, handle: SampleHandle,
               count: int) -> np.ndarray:
        """The keys of ``handle``'s next ``count`` samples, counted delivered.

        The default takes the first ``count`` pending keys, which
        :meth:`prepare` fixed; postponing reorders them, local sampling and
        repurposing choose keys here.
        """
        handle.delivered += count
        return handle.take(count)

    def housekeeping(self, node_id: int, now: float) -> None:
        """Background maintenance hook (pool preparation etc.); default no-op."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(level={self.level})"


class IndependentSamplingScheme(SamplingScheme):
    """CONFORM: iid samples from π, localized ahead of the pull (Fig. 5)."""

    level = ConformityLevel.CONFORM
    scheme_name = "independent"

    def prepare(self, worker: WorkerContext, count: int,
                distribution_id: int) -> SampleHandle:
        rng = self.host.sampling_rng(worker.node_id)
        keys = self.distribution.sample(rng, count)
        # Localize asynchronously so the keys are (likely) local by pull time.
        self.host.localize_async(worker.node_id, keys)
        return SampleHandle(distribution_id, keys)


class _NodePoolState:
    """Prepared-sample stream of one node for the pool-reuse schemes: one
    key array and a cursor into it.

    ``take`` is a plain slice; ``extend`` builds one new array of the
    unconsumed tail and the appended keys.
    """

    def __init__(self) -> None:
        self.pending = np.empty(0, dtype=np.int64)
        self.offset = 0

    def __len__(self) -> int:
        return len(self.pending) - self.offset

    def extend(self, keys: np.ndarray) -> None:
        self.pending = np.concatenate((self.pending[self.offset:], keys))
        self.offset = 0

    def take(self, count: int) -> np.ndarray:
        """Remove and return the next ``count`` prepared keys, in order."""
        if count > len(self):
            raise ValueError(f"cannot take {count} of {len(self)} prepared samples")
        keys = self.pending[self.offset:self.offset + count]
        self.offset += count
        return keys


class PoolSampleReuseScheme(SamplingScheme):
    """BOUNDED: reuse pools of ``pool_size`` iid samples ``use_frequency`` times.

    A pool of ``G`` keys is drawn iid from π and localized; the prepared
    sample stream then contains ``U`` random-order traversals of the pool,
    which bounds inter-sample dependency by ``U * G`` while keeping
    first-order inclusion probabilities equal to π (Section 4.4).
    """

    level = ConformityLevel.BOUNDED
    scheme_name = "sample_reuse"

    def __init__(self, host, distribution: SamplingDistribution,
                 config: Optional[SchemeConfig] = None) -> None:
        super().__init__(host, distribution, config)
        self._node_state: Dict[int, _NodePoolState] = {}

    # ------------------------------------------------------------------- API
    def prepare(self, worker: WorkerContext, count: int,
                distribution_id: int) -> SampleHandle:
        state = self._state(worker.node_id)
        self._ensure_prepared(worker.node_id, state, count)
        keys = state.take(count)
        # Re-localize keys that have been relocated away since pool
        # preparation; ``localize_async`` leaves the local ones where they are.
        self.host.localize_async(worker.node_id, keys)
        return SampleHandle(distribution_id, keys)

    def housekeeping(self, node_id: int, now: float) -> None:
        state = self._state(node_id)
        self._ensure_prepared(node_id, state, 0)

    # --------------------------------------------------------------- internals
    def _state(self, node_id: int) -> _NodePoolState:
        if node_id not in self._node_state:
            self._node_state[node_id] = _NodePoolState()
        return self._node_state[node_id]

    def _ensure_prepared(self, node_id: int, state: _NodePoolState,
                         needed_now: int) -> None:
        """Keep the prepared stream at least one pool ahead of consumption.

        Mirrors the paper's background heuristic ("prepare another pool when
        the number of prepared, but unused samples falls below a threshold").
        The threshold is one pool's worth of samples plus whatever the current
        request needs immediately.
        """
        pool_samples = self.config.pool_size * self.config.use_frequency
        threshold = pool_samples + needed_now
        while len(state) < threshold:
            self._prepare_pool(node_id, state)

    def _prepare_pool(self, node_id: int, state: _NodePoolState) -> None:
        rng = self.host.sampling_rng(node_id)
        pool = self.distribution.sample(rng, self.config.pool_size)
        self.host.localize_async(node_id, pool)
        # ``use_frequency`` traversals of the pool, each in a fresh order.
        state.extend(pool[np.concatenate([
            rng.permutation(len(pool))
            for _ in range(self.config.use_frequency)])])


class PostponingSampleReuseScheme(PoolSampleReuseScheme):
    """LONG_TERM: pool reuse plus postponing of non-local samples.

    When a sample cannot be accessed locally at pull time, it is moved to the
    end of the handle, re-localized, and a later (local) sample is used
    instead. Each sample is postponed at most once; when a postponed sample
    comes up again it is accessed remotely if still non-local. Postponing only
    happens within one handle, which keeps the long-term inclusion frequencies
    equal to π (Section 4.4).
    """

    level = ConformityLevel.LONG_TERM
    scheme_name = "sample_reuse_postponing"

    def select(self, worker: WorkerContext, handle: SampleHandle,
               count: int) -> np.ndarray:
        if not hasattr(handle, "postponed_once"):
            handle.postponed_once = set()  # type: ignore[attr-defined]
        postponed_once = handle.postponed_once  # type: ignore[attr-defined]

        selected: List[int] = []
        while len(selected) < count:
            key = handle.pop_front()
            if key is None:
                break
            is_local = self.host.key_is_local(worker.node_id, key)
            if is_local or key in postponed_once:
                selected.append(key)
                continue
            # Postpone: push to the end of this handle's samples, re-localize,
            # and never postpone the same sample twice.
            postponed_once.add(key)
            handle.append_back(key)
            self.host.localize_async(
                worker.node_id, np.asarray([key], dtype=np.int64)
            )
        handle.delivered += len(selected)
        return np.asarray(selected, dtype=np.int64)


class _NodeLocalSamplerState:
    """Cached local-partition sampler of one node for local sampling."""

    def __init__(self) -> None:
        self.keys: np.ndarray = np.empty(0, dtype=np.int64)
        self.sampler: Optional[AliasSampler] = None
        self.samples_since_refresh = 0


class LocalSamplingScheme(SamplingScheme):
    """NON_CONFORM: sample from the locally available part of π (Fig. 5).

    No network communication is required for sampling accesses. The node's
    local candidate set (relocated keys it currently owns plus replicated
    keys) is cached and refreshed periodically — the paper's "fast sampling
    implementation that does not sample independently".
    """

    level = ConformityLevel.NON_CONFORM
    scheme_name = "local"

    def __init__(self, host, distribution: SamplingDistribution,
                 config: Optional[SchemeConfig] = None) -> None:
        super().__init__(host, distribution, config)
        self._node_state: Dict[int, _NodeLocalSamplerState] = {}

    def prepare(self, worker: WorkerContext, count: int,
                distribution_id: int) -> SampleHandle:
        # Keys are decided lazily at pull time from whatever is local then.
        return SampleHandle.placeholder(distribution_id, count)

    def select(self, worker: WorkerContext, handle: SampleHandle,
               count: int) -> np.ndarray:
        handle.delivered += count
        keys = self._sample_local(worker.node_id, count)
        # The cached alias table can serve keys that relocation has since
        # moved away; the real implementation samples from the partition the
        # node holds *right now* and never communicates. Re-check locality at
        # selection and redraw stale keys from the freshly rebuilt local
        # support (nothing relocates keys between a selection and the access
        # it selects for, so one redraw suffices). Only an empty local
        # support — the extreme corner case below — leaves remote accesses
        # behind.
        stale = ~self.host.keys_are_local(worker.node_id, keys)
        if stale.any():
            state = self._node_state.setdefault(worker.node_id,
                                                _NodeLocalSamplerState())
            self._refresh(worker.node_id, state)
            if state.sampler is not None and len(state.keys):
                rng = self.host.sampling_rng(worker.node_id)
                indices = state.sampler.sample(rng, int(stale.sum()))
                keys = np.array(keys, copy=True)
                keys[stale] = state.keys[indices]
        return keys

    # --------------------------------------------------------------- internals
    def _sample_local(self, node_id: int, count: int) -> np.ndarray:
        state = self._node_state.setdefault(node_id, _NodeLocalSamplerState())
        refresh_due = (
            state.sampler is None
            or state.samples_since_refresh >= LOCAL_REFRESH_INTERVAL
            # A (nearly) empty local candidate set forces expensive remote
            # fallbacks; re-check eagerly, because relocation changes the
            # local partition constantly and new candidates arrive quickly.
            or len(state.keys) < count
        )
        if refresh_due:
            self._refresh(node_id, state)
        state.samples_since_refresh += count
        rng = self.host.sampling_rng(node_id)
        if state.sampler is None or len(state.keys) == 0:
            # Nothing local in the support: fall back to iid sampling from π
            # (these accesses will be remote; an extreme corner case).
            return self.distribution.sample(rng, count)
        indices = state.sampler.sample(rng, count)
        return state.keys[indices]

    def _refresh(self, node_id: int, state: _NodeLocalSamplerState) -> None:
        keys = self.host.local_support_keys(node_id, self.distribution)
        state.keys = keys
        state.samples_since_refresh = 0
        if len(keys) == 0:
            state.sampler = None
            return
        probabilities = self.distribution.conditional_probabilities(keys)
        state.sampler = AliasSampler(probabilities)


class DirectAccessRepurposingScheme(SamplingScheme):
    """NON_CONFORM: reuse recent direct-access keys as negative samples.

    The relative frequency of a key in the samples then follows its frequency
    in the training data rather than π, which is why this scheme provides no
    conformity guarantee (Section 4.2). It requires no communication at all:
    the values of direct-access keys are transferred to the node anyway.
    """

    level = ConformityLevel.NON_CONFORM
    scheme_name = "direct_access_repurposing"

    def prepare(self, worker: WorkerContext, count: int,
                distribution_id: int) -> SampleHandle:
        return SampleHandle.placeholder(distribution_id, count)

    def select(self, worker: WorkerContext, handle: SampleHandle,
               count: int) -> np.ndarray:
        handle.delivered += count
        rng = self.host.sampling_rng(worker.node_id)
        recent = self.host.recent_direct_access_keys(worker.node_id)
        in_support = recent[self.distribution.in_support(recent)] if len(recent) else recent
        if len(in_support) == 0:
            # No direct access seen yet at this node: fall back to iid draws.
            return self.distribution.sample(rng, count)
        return in_support[rng.integers(0, len(in_support), size=count)]


#: Default scheme class for each requested conformity level (Section 4.4).
DEFAULT_SCHEME_FOR_LEVEL = {
    ConformityLevel.CONFORM: IndependentSamplingScheme,
    ConformityLevel.BOUNDED: PoolSampleReuseScheme,
    ConformityLevel.LONG_TERM: PostponingSampleReuseScheme,
    ConformityLevel.NON_CONFORM: LocalSamplingScheme,
}

#: All scheme classes by name, for explicit configuration.
SCHEMES_BY_NAME = {
    cls.scheme_name: cls
    for cls in (
        IndependentSamplingScheme,
        PoolSampleReuseScheme,
        PostponingSampleReuseScheme,
        LocalSamplingScheme,
        DirectAccessRepurposingScheme,
    )
}
