"""The settings of an allocation service, with no solver imports.

:class:`ServiceConfig` declares the nine settings once.  This module
imports nothing but the standard library, so a command-line parser can
offer the settings as flags without loading the service, the batched
kernels or the solver; :meth:`ServiceConfig.build` imports the
components when a service is actually composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EVICTION_POLICIES", "ServiceConfig"]

#: Accepted ``SolutionCache(eviction=...)`` values.
EVICTION_POLICIES = ("lru", "cost")


@dataclass(frozen=True)
class ServiceConfig:
    """The nine settings of an :class:`~repro.service.AllocationService`,
    declared once.

    ``repro-fap serve`` and every ``net-serve`` worker build their service
    from one (it is picklable, so it crosses the fork) with :meth:`build`,
    the one place settings become components.
    """

    max_batch: int = 32  #: continuous-dispatch slot capacity (1: no grouping)
    cache_size: int = 256  #: solution-cache capacity (0: no caching)
    cache_ttl_s: Optional[float] = None  #: cache entry lifetime (``None``: no expiry)
    cache_eviction: str = "lru"  #: ``"lru"``, or ``"cost"`` (value-weighted)
    cache_max_bytes: Optional[int] = None  #: byte budget of the cache (``None``: none)
    drift_threshold: Optional[float] = None  #: drift that demotes a hit (``None``: off)
    drift_window: int = 16  #: EMA window of the drift tracker's estimate
    queue_depth: int = 1024  #: admission bound on pending requests
    default_timeout_s: Optional[float] = None  #: deadline of a request setting none

    def build(self, *, registry=None, lookaside=None):
        """An :class:`~repro.service.AllocationService` with these
        settings; its cache and drift tracker report to ``registry`` too."""
        from repro.service.admission import AdmissionController
        from repro.service.cache import SolutionCache
        from repro.service.drift import DriftTracker
        from repro.service.service import AllocationService

        drift = None
        if self.drift_threshold is not None:
            drift = DriftTracker(
                threshold=self.drift_threshold, window=self.drift_window, registry=registry
            )
        cache = SolutionCache(
            self.cache_size, ttl_s=self.cache_ttl_s, eviction=self.cache_eviction,
            max_bytes=self.cache_max_bytes, drift=drift, registry=registry,
        )
        admission = AdmissionController(
            max_queue_depth=self.queue_depth, default_timeout_s=self.default_timeout_s
        )
        return AllocationService(
            max_batch=self.max_batch, cache=cache, admission=admission,
            lookaside=lookaside, registry=registry,
        )
