"""A statistics tap of a chosen size, for tests that need the sketch to evict.

:func:`repro.adaptive.controller.install_adaptive` sizes the tap's sketch with
the :class:`~repro.adaptive.stats.AccessStats` default. Tests that drive
eviction build the same controller from its components with a small sketch.
"""

from __future__ import annotations

from repro.adaptive import AccessStats, AdaptiveController, make_policy


def install_tap(ps, config, capacity: int) -> AdaptiveController:
    """``install_adaptive(ps, config)`` with a ``capacity``-slot sketch."""
    top_k = ps.plan.num_replicated if config.top_k is None else config.top_k
    stats = AccessStats(ps.store.num_keys, capacity=capacity,
                        half_life=config.half_life)
    controller = AdaptiveController(
        ps, stats, make_policy(config.policy, top_k=top_k), config)
    ps.attach_adaptive(controller)
    return controller
