"""The warm-start solution cache.

A content-addressed map from request fingerprints to finished solves,
with a structural side-index for continuation:

* an **exact hit** (same fingerprint — same problem bytes, same solver
  options) returns the cached allocation immediately; the determinism of
  every solver engine makes this sound, because re-running the solve
  could not produce anything else;
* a **warm near-miss** (same :func:`~repro.service.fingerprint.structural_key`,
  nearby parameters) returns the closest cached allocation as a
  *starting iterate*: the solver still runs, but — optima being
  continuous in the parameters — from a point already near its fixed
  point, which is the same continuation effect that makes warm-started
  sweeps ~30x cheaper (docs/PERFORMANCE.md);
* everything else is a **miss** and solves cold.

The cache is bounded and purely in-memory, with two eviction policies:

* ``eviction="lru"`` (default) — recency order over exact fingerprints,
  the classic bounded map;
* ``eviction="cost"`` — **value order**: each entry carries the solver
  iterations it has saved (exact hits × its own solve cost, plus warm
  starts × the iterations they skipped, credited back by the service),
  decayed with a half-life so yesterday's hero does not squat forever;
  eviction removes the minimum-value entry.  A hot, expensive solve
  survives a scan of one-off requests that would flush an LRU.

Both policies respect the same budgets: ``capacity`` bounds entries and
``max_bytes`` (optional) bounds the approximate retained bytes
(allocation + parameter vector + cost matrix per entry).

With ``ttl_s`` set, entries additionally expire by age: an expired entry
counts as a miss (evicted lazily on contact, donors included) and an
amortized **sweep** — every ``sweep_interval`` cache operations — walks
the whole store so a drifted working set cannot leak unbounded memory
behind keys nobody looks up again.  With a
:class:`~repro.service.drift.DriftTracker` attached, every entry is also
stamped with the **estimate epoch** it was solved under; an exact hit
from a stale epoch is *demoted* to a warm-start donor (stale-but-close)
instead of served verbatim.

Lookup dispositions are tallied on the registry as ``service.cache.hit``
/ ``.warm`` / ``.miss``, with ``service.cache.expired`` counting lazy
TTL evictions, ``service.cache.swept`` entries removed by the amortized
sweep, ``service.cache.evicted`` budget evictions,
``service.cache.demoted`` drift demotions, and the
``service.cache.size`` / ``service.cache.bytes`` gauges tracking the
footprint.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.service.fingerprint import RequestKey, relative_distances, request_key
from repro.service.settings import EVICTION_POLICIES
from repro.service.types import CacheLookup, SolveRequest

__all__ = ["CacheEntry", "SolutionCache"]


@dataclass
class CacheEntry:
    """One finished solve, addressable exactly and structurally."""

    fingerprint: str
    structure: str
    problem: FileAllocationProblem
    allocation: np.ndarray
    cost: float
    iterations: int
    converged: bool
    #: Cache clock reading at :meth:`SolutionCache.store` time (drives
    #: TTL expiry; 0.0 when the cache has no TTL).
    stored_at: float = field(default=0.0)
    #: Flat parameter vector (rates, service rates, k) — one row of the
    #: bucket matrix the vectorized donor search ranks.
    params: Optional[np.ndarray] = field(default=None, repr=False)
    #: Approximate retained bytes (allocation + params + cost matrix).
    nbytes: int = 0
    #: Estimate epoch the solve ran under (0 without a drift tracker).
    epoch: int = 0
    #: Exact hits served from this entry.
    hits: int = 0
    #: Warm starts this entry donated.
    warm_uses: int = 0
    #: Decayed solver-iterations-saved accumulator (cost-aware eviction
    #: ranks by this; seeded with the entry's own solve cost).
    value: float = 0.0
    #: Cache clock reading of the last decay fold.
    value_at: float = 0.0


class SolutionCache:
    """Content-addressed cache of converged allocations.

    Parameters
    ----------
    capacity:
        Maximum number of retained solves.  0 disables the cache
        entirely: every lookup is a miss and nothing is stored.
    max_warm_distance:
        Largest :func:`~repro.service.fingerprint.parameter_distance` at
        which a same-structure entry still counts as "near" — beyond it a
        donor's allocation is likely farther from the optimum than the
        cold start would be.
    ttl_s:
        Maximum entry age in clock seconds; ``None`` (default) disables
        expiry.  Expired entries count as misses — for exact lookups and
        as warm-start donors alike — and are evicted lazily on contact
        plus wholesale by the amortized sweep.
    eviction:
        ``"lru"`` (default) evicts the least-recently-used entry under
        budget pressure; ``"cost"`` evicts the entry whose decayed
        iterations-saved value is smallest (expired entries lose every
        value comparison outright).
    max_bytes:
        Optional bound on the approximate retained bytes across all
        entries; evicts (by the same policy) until under budget.
    value_halflife_s:
        Half-life of the cost policy's value decay, in clock seconds;
        ``None`` disables decay.  Ignored under ``"lru"``.
    sweep_interval:
        Cache operations (lookups + stores) between amortized TTL
        sweeps; ``None`` picks 256 when ``ttl_s`` is set and disables
        sweeping otherwise.
    drift:
        Optional :class:`~repro.service.drift.DriftTracker`.  When set,
        every lookup feeds the tracker one observation, entries are
        stamped with their structure's estimate epoch at store time, and
        stale-epoch exact hits are demoted to warm-start donors.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        hit/warm/miss counters and the size/bytes gauges.
    clock:
        Monotonic time source for TTL and decay bookkeeping (injectable
        so tests and replay tooling can drive expiry deterministically).
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        max_warm_distance: float = 1.0,
        ttl_s: Optional[float] = None,
        eviction: str = "lru",
        max_bytes: Optional[int] = None,
        value_halflife_s: Optional[float] = 3600.0,
        sweep_interval: Optional[int] = None,
        drift=None,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ):
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        if max_warm_distance <= 0:
            raise ConfigurationError("max_warm_distance must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigurationError("ttl_s must be positive (or None to disable)")
        if eviction not in EVICTION_POLICIES:
            raise ConfigurationError(
                f"unknown eviction policy {eviction!r} "
                f"(expected one of {EVICTION_POLICIES})"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive (or None)")
        if value_halflife_s is not None and value_halflife_s <= 0:
            raise ConfigurationError("value_halflife_s must be positive (or None)")
        if sweep_interval is not None and sweep_interval < 1:
            raise ConfigurationError("sweep_interval must be >= 1 (or None)")
        self.capacity = int(capacity)
        self.max_warm_distance = float(max_warm_distance)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.eviction = eviction
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.value_halflife_s = (
            None if value_halflife_s is None else float(value_halflife_s)
        )
        if sweep_interval is None and self.ttl_s is not None:
            sweep_interval = 256
        self.sweep_interval = sweep_interval
        self.drift = drift
        self.registry = registry
        self.clock = clock
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._buckets: Dict[str, "OrderedDict[str, CacheEntry]"] = {}
        #: Per-bucket vectorized view: (entries, params matrix, stored_at).
        self._bucket_view: Dict[str, Tuple[List[CacheEntry], np.ndarray, np.ndarray]] = {}
        self._bytes = 0
        self._ops = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        """Whether the exact index holds ``fingerprint`` (no side effects:
        no recency, credit, counter or expiry check — :meth:`lookup` is
        the probe)."""
        return fingerprint in self._entries

    @property
    def total_bytes(self) -> int:
        """Approximate retained bytes across all live entries."""
        return self._bytes

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, status: str) -> None:
        if self.registry is not None:
            self.registry.counter_inc(f"service.cache.{status}")
            self._gauges()

    def _gauges(self) -> None:
        if self.registry is not None:
            self.registry.gauge_set("service.cache.size", float(len(self._entries)))
            self.registry.gauge_set("service.cache.bytes", float(self._bytes))

    def _is_expired(self, entry: CacheEntry) -> bool:
        return self.ttl_s is not None and self.clock() - entry.stored_at > self.ttl_s

    def _remove(self, entry: CacheEntry, counter: Optional[str]) -> None:
        """Drop one entry from every index; ``counter`` names the
        ``service.cache.*`` series the removal tallies into."""
        self._entries.pop(entry.fingerprint, None)
        bucket = self._buckets.get(entry.structure)
        if bucket is not None:
            bucket.pop(entry.fingerprint, None)
            if not bucket:
                self._buckets.pop(entry.structure, None)
        self._bucket_view.pop(entry.structure, None)
        self._bytes -= entry.nbytes
        if counter is not None and self.registry is not None:
            self.registry.counter_inc(f"service.cache.{counter}")

    # -- value accounting (cost-aware eviction) --------------------------------

    def _decayed_value(self, entry: CacheEntry, now: float) -> float:
        """Fold decay into ``entry.value`` up to ``now``; returns it."""
        if self.value_halflife_s is not None and entry.value:
            dt = now - entry.value_at
            if dt > 0:
                entry.value *= 0.5 ** (dt / self.value_halflife_s)
        entry.value_at = now
        return entry.value

    def _credit(self, entry: CacheEntry, saved: float) -> None:
        if self.eviction != "cost":
            return
        now = self.clock()
        self._decayed_value(entry, now)
        entry.value += max(0.0, float(saved))

    def credit_warm(self, fingerprint: str, iterations_saved: float) -> None:
        """Credit a donor with the solver iterations its warm start
        skipped (the service calls this when the warm solve finishes —
        the donor's worth is only known after the fact)."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return
        entry.warm_uses += 1
        self._credit(entry, iterations_saved)

    # -- TTL sweeping ----------------------------------------------------------

    def sweep(self) -> int:
        """Evict every expired entry now; returns how many were removed.

        The amortized form runs automatically every ``sweep_interval``
        operations; this is the explicit handle for tests and operators.
        """
        if self.ttl_s is None or not self._entries:
            return 0
        cutoff = self.clock() - self.ttl_s
        stale = [e for e in self._entries.values() if e.stored_at < cutoff]
        for entry in stale:
            self._remove(entry, "swept")
        if stale:
            self._gauges()
        return len(stale)

    def _maybe_sweep(self) -> None:
        if self.sweep_interval is None:
            return
        self._ops += 1
        if self._ops >= self.sweep_interval:
            self._ops = 0
            self.sweep()

    # -- lookup ----------------------------------------------------------------

    def lookup(self, key: Optional[RequestKey]) -> CacheLookup:
        """Probe the cache for the request whose
        :class:`~repro.service.fingerprint.RequestKey` is ``key``
        (:func:`~repro.service.fingerprint.request_key`; ``None``, an
        uncacheable request, is a miss); never runs a solver."""
        if self.capacity == 0 or key is None:
            self._count("miss")
            return CacheLookup(status="miss")
        fp = key.fingerprint
        self._maybe_sweep()
        epoch = (
            self.drift.observe(key.structure, key.params) if self.drift is not None else 0
        )
        entry = self._entries.get(fp)
        if entry is not None:
            if self._is_expired(entry):
                self._remove(entry, "expired")
            elif self.drift is not None and entry.epoch != epoch:
                # The estimate this entry was solved under has drifted:
                # serve it as a warm-start donor, not verbatim.  The
                # entry leaves the exact index — its answer is no longer
                # current — and the re-solve is stored under the
                # donor-started request by the service.
                self._remove(entry, "demoted")
                self._count("warm")
                return CacheLookup(
                    status="warm", entry=entry, distance=0.0, demoted=True
                )
            else:
                self._entries.move_to_end(fp)
                entry.hits += 1
                self._credit(entry, entry.iterations)
                self._count("hit")
                return CacheLookup(status="hit", entry=entry, distance=0.0)
        donor = self._nearest(key)
        if donor is not None:
            entry, distance = donor
            self._count("warm")
            return CacheLookup(status="warm", entry=entry, distance=distance)
        self._count("miss")
        return CacheLookup(status="miss")

    # -- the donor search ------------------------------------------------------

    def _bucket_arrays(self, structure: str):
        """The bucket's entries with their parameter matrix and store
        times as flat arrays, cached until membership changes."""
        view = self._bucket_view.get(structure)
        if view is not None:
            return view
        bucket = self._buckets.get(structure)
        if not bucket:
            return None
        entries = [e for e in bucket.values() if e.params is not None]
        if not entries:
            return None
        matrix = np.stack([e.params for e in entries])
        stored = np.array([e.stored_at for e in entries])
        view = (entries, matrix, stored)
        self._bucket_view[structure] = view
        return view

    def _nearest(self, key: RequestKey):
        """The closest same-structure donor within ``max_warm_distance``
        for the request whose key is ``key``.

        One vectorized pass over the bucket's precomputed parameter
        matrix — no per-entry array rebuilding, and shape-incompatible
        entries never enter the candidate set (the structural bucket is
        the index).  Ties keep the latest-stored candidate, matching the
        sequential ``<=`` scan this replaced bit for bit.
        """
        structure = key.structure
        view = self._bucket_arrays(structure)
        if view is None:
            return None
        entries, matrix, stored = view
        if self.ttl_s is not None:
            live = stored >= self.clock() - self.ttl_s
            if not live.all():
                for entry in [e for e, ok in zip(entries, live) if not ok]:
                    self._remove(entry, "expired")
                view = self._bucket_arrays(structure)
                if view is None:
                    return None
                entries, matrix, stored = view
        query = key.params
        if matrix.shape[1] != query.shape[0]:
            return None
        distances = relative_distances(matrix, query)
        best = float(distances.min())
        if best > self.max_warm_distance:
            return None
        # Last index achieving the minimum — the `<=` update rule of the
        # sequential scan kept the latest equal-distance entry.
        idx = len(distances) - 1 - int(np.argmin(distances[::-1]))
        return entries[idx], best

    # -- store -----------------------------------------------------------------

    def store(
        self, request: SolveRequest, result, key: Optional[RequestKey] = None
    ) -> Optional[CacheEntry]:
        """Record a finished solve (an ``AllocationResult``-shaped object)
        of ``request``, whose :class:`~repro.service.fingerprint.RequestKey`
        is ``key`` when the caller has it already (computed here
        otherwise).

        Only converged solves are stored — a budget-capped iterate is not
        a solution and must not warm-start (let alone answer) anything.
        Returns the entry, or ``None`` when the solve was uncacheable.
        """
        if self.capacity == 0 or not result.converged:
            return None
        if key is None:
            key = request_key(request)
        if key is None:
            return None
        fp, structure, params = key.fingerprint, key.structure, key.params
        self._maybe_sweep()
        allocation = np.array(result.allocation, dtype=float, copy=True)
        now = self.clock()
        entry = CacheEntry(
            fingerprint=fp,
            structure=structure,
            problem=request.problem,
            allocation=allocation,
            cost=float(result.cost),
            iterations=int(result.iterations),
            converged=True,
            stored_at=now if self.ttl_s is not None else 0.0,
            params=params,
            nbytes=int(
                allocation.nbytes
                + params.nbytes
                + request.problem.cost_matrix.nbytes
            ),
            epoch=self.drift.epoch_of(structure) if self.drift is not None else 0,
            # Seed the value with the entry's own solve cost: what its
            # first exact hit would save.  Costlier solves are worth
            # more shelf space from the moment they land.
            value=float(result.iterations),
            value_at=now,
        )
        old = self._entries.get(fp)
        if old is not None:
            self._remove(old, None)
        self._entries[fp] = entry
        self._buckets.setdefault(entry.structure, OrderedDict())[fp] = entry
        self._bucket_view.pop(entry.structure, None)
        self._bytes += entry.nbytes
        self._evict_to_budget()
        self._gauges()
        return entry

    def _over_budget(self) -> bool:
        if len(self._entries) > self.capacity:
            return True
        return self.max_bytes is not None and self._bytes > self.max_bytes

    def _evict_to_budget(self) -> None:
        while self._entries and self._over_budget():
            self._remove(self._victim(), "evicted")

    def _victim(self) -> CacheEntry:
        """The entry the active policy gives up first."""
        if self.eviction == "lru":
            return next(iter(self._entries.values()))
        now = self.clock()
        cutoff = None if self.ttl_s is None else now - self.ttl_s
        victim, victim_value = None, np.inf
        for entry in self._entries.values():
            if cutoff is not None and entry.stored_at < cutoff:
                # An expired entry never wins a value comparison.
                return entry
            value = self._decayed_value(entry, now)
            if value < victim_value:
                victim, victim_value = entry, value
        return victim

    def clear(self) -> None:
        self._entries.clear()
        self._buckets.clear()
        self._bucket_view.clear()
        self._bytes = 0
        self._ops = 0

    def __repr__(self) -> str:
        return (
            f"SolutionCache(size={len(self._entries)}/{self.capacity}, "
            f"buckets={len(self._buckets)}, eviction={self.eviction!r}, "
            f"bytes={self._bytes})"
        )
