"""The cross-shard lookaside donor tier.

Affinity routing makes shards cache-*disjoint* by design: a structural
fingerprint always lands on the same shard, so each worker's
:class:`~repro.service.SolutionCache` only ever sees its own slice of
the keyspace.  That is exactly right until fingerprints *drift* — a cost
matrix perturbed by re-measured link weights hashes to a new structural
key, routes to a different shard, and solves cold there even though
another worker holds a converged solution a few iterations away.

:class:`LookasideTier` is the read-mostly donor store that closes that
gap.  It lives in the server process (one per :class:`~repro.net.NetServer`)
and holds compact **donor records** — parameter vector, converged
allocation, solve cost — published by every worker's converged solves.
Donor records are indexed by problem *size* (not structural key: crossing
structure boundaries is the point) and matched by the same relative
parameter distance the local cache uses.  On dispatch the server attaches
the best donor as a **hint** to each payload; the worker consults hints
only for requests its *local* cache missed, via the service's
``lookaside`` hook, so the tier never shadows a local hit or a closer
local donor.  A hint that is used warm-starts the solve exactly like a
local near-miss — the effective request is identical, which is what makes
lookaside answers bit-for-bit the same as local warm starts from the same
donor — and the response reports ``cache="lookaside"``.

Since the tier's records also travel *between* servers (the
:mod:`repro.net.gossip` mesh), every record carries convergence metadata:

* an **origin** server id and a per-key **epoch** — a local republish
  bumps the epoch past whatever it replaces, and :meth:`merge` accepts a
  remote record only when its ``(epoch, origin)`` pair is strictly newer,
  so two servers folding each other's records always settle on the same
  winner (newest epoch wins; equal epochs break deterministically on the
  origin id);
* an optional **TTL** (``ttl_s``, against an injectable ``clock``):
  expired records are swept lazily and are never handed out, never
  digested, and never gossiped (``net.lookaside.expired`` counts them);
  a record crossing to another server carries its *remaining* ttl, so a
  donor never outlives its original lease by more than transit time;
* a monotonic **sequence number** per accepted record, which is what
  lets a gossip agent push "everything since seq S" as rumor batches
  (:meth:`records_since`), and per-size-bucket **digests** with epoch
  vectors (:meth:`digest` / :meth:`epoch_vectors` /
  :meth:`records_missing_from`) for anti-entropy repair.

The tier also works purely in-process: attach one instance as the
``lookaside`` hook of several :class:`~repro.service.AllocationService`
instances and they share donors directly (:meth:`get` / :meth:`publish`
are the hook interface; the wire-record form is what crosses worker
pipes and the gossip mesh).

Capacity is a bounded FIFO over publish order with replace-on-republish
(records are keyed by *problem* fingerprint, so re-solving the same
problem from a different start refreshes its record instead of
duplicating it).  Metrics: ``net.lookaside.published`` counts accepted
local records, ``net.lookaside.hits`` donors handed out,
``net.lookaside.expired`` records that aged out, and the
``net.lookaside.size`` gauge tracks occupancy.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.net.binary import decode_forwarded
from repro.obs.registry import MetricsRegistry
from repro.service.codec import read_problem
from repro.service.fingerprint import (
    parameter_vector,
    problem_fingerprint,
    relative_distances,
)

__all__ = ["LookasideTier", "donor_record", "params_from_payload", "wire_record"]

#: Fixed per-record overhead assumed by the byte-budget estimators
#: (struct front + key/origin strings on the packed gossip wire).
_RECORD_OVERHEAD_BYTES = 128


def donor_record(request, result) -> Optional[Dict]:
    """The compact, picklable wire form of one converged solve.

    ``None`` for problems without a parameter vector (non-M/M/1) — they
    cannot be distance-matched, so they cannot donate.
    """
    params = parameter_vector(request.problem)
    if params is None:
        return None
    return {
        "key": problem_fingerprint(request.problem),
        "n": int(request.problem.n),
        "params": params,
        "allocation": np.array(result.allocation, dtype=float, copy=True),
        "iterations": int(result.iterations),
    }


def wire_record(record: Dict, now: float) -> Dict:
    """The gossip-wire form of one tier record: origin/epoch carried
    verbatim, absolute expiry rewritten as *remaining* ttl so the
    receiver can re-anchor it on its own clock."""
    expires_at = record.get("expires_at")
    return {
        "key": record["key"],
        "n": int(record["n"]),
        "params": record["params"],
        "allocation": record["allocation"],
        "iterations": int(record["iterations"]),
        "origin": str(record.get("origin", "")),
        "epoch": int(record.get("epoch", 0)),
        "ttl_s": None if expires_at is None else max(0.0, expires_at - now),
    }


def _can_donate(record: Dict) -> bool:
    """Whether a wire record is a usable donor: ``2n+1`` finite params and
    a finite, non-negative length-``n`` allocation summing to 1 (within
    :meth:`~repro.core.model.FileAllocationProblem.check_feasible`'s
    tolerance)."""
    try:
        n = int(record["n"])
        params = np.asarray(record["params"], dtype=float)
        allocation = np.asarray(record["allocation"], dtype=float)
    except (KeyError, TypeError, ValueError):
        return False
    return (
        params.shape == (2 * n + 1,)
        and allocation.shape == (n,)
        and bool(np.isfinite(params).all() and np.isfinite(allocation).all())
        and not (allocation < -1e-8).any()
        and abs(allocation.sum() - 1.0) <= 1e-8
    )


def _record_bytes(record: Dict) -> int:
    """Wire-size estimate of one record (budget accounting)."""
    params = record["params"]
    allocation = record["allocation"]
    return (
        _RECORD_OVERHEAD_BYTES
        + len(record["key"])
        + len(str(record.get("origin", "")))
        + 8 * (int(np.size(params)) + int(np.size(allocation)))
    )


def params_from_payload(payload: Dict) -> Optional[np.ndarray]:
    """The parameter vector of a raw wire payload, without building a
    :class:`~repro.core.model.FileAllocationProblem`.

    Byte-compatible with :func:`~repro.service.fingerprint.parameter_vector`
    on the parsed problem (the codec's :func:`~repro.service.codec.read_problem`
    reads the arrays), which is what lets the server rank donors for a
    binary-codec payload it never parses; a forwarded packed body is
    read as its decoded payload.  ``None`` when the payload is a topology
    shorthand or malformed — those simply get no hint.
    """
    arrays = read_problem(decode_forwarded(payload).get("problem"))
    if arrays is None:
        return None
    return np.concatenate([arrays.rates, arrays.mu, [arrays.k]])


class LookasideTier:
    """Bounded cross-shard donor store (see module docstring).

    Parameters
    ----------
    capacity:
        Maximum retained donor records (FIFO over publish order, with
        replace-on-republish).
    max_distance:
        Largest relative parameter distance at which a record still
        donates — the same eligibility radius as the local cache's
        ``max_warm_distance``.
    ttl_s:
        Optional record lifetime.  Expired records are swept lazily (on
        the first operation past their expiry) and are never handed out,
        digested, or gossiped.  ``None`` (default) keeps records until
        capacity evicts them.
    origin:
        This tier's server id, stamped onto locally published records so
        the gossip mesh can attribute and tie-break them.  A
        :class:`~repro.net.NetServer` sets it to its own id.
    clock:
        Injectable monotonic clock (``time.monotonic`` by default);
        drives TTL expiry deterministically in tests.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        ``net.lookaside.*`` family.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        max_distance: float = 1.0,
        ttl_s: Optional[float] = None,
        origin: str = "",
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if max_distance <= 0:
            raise ConfigurationError("max_distance must be positive")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigurationError("ttl_s must be positive (or None)")
        self.capacity = int(capacity)
        self.max_distance = float(max_distance)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.origin = str(origin)
        self.clock = clock if clock is not None else time.monotonic
        self.registry = registry
        self._records: "OrderedDict[str, Dict]" = OrderedDict()
        self._by_n: Dict[int, "OrderedDict[str, Dict]"] = {}
        #: Per-size vectorized view: (records, params matrix).
        self._views: Dict[int, Tuple[List[Dict], np.ndarray]] = {}
        self._seq = 0
        #: Earliest expiry among live records (lazy-sweep trigger).
        self._next_expiry: Optional[float] = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            self._sweep_locked(self.clock())
            return len(self._records)

    # -- expiry ----------------------------------------------------------------

    def _sweep_locked(self, now: float) -> None:
        """Drop every expired record.  O(1) when nothing is due: the
        earliest expiry is cached and checked first."""
        if self._next_expiry is None or now < self._next_expiry:
            return
        expired = [
            key for key, record in self._records.items()
            if record["expires_at"] is not None and record["expires_at"] <= now
        ]
        for key in expired:
            self._drop_locked(self._records.pop(key))
        self._next_expiry = min(
            (
                r["expires_at"]
                for r in self._records.values()
                if r["expires_at"] is not None
            ),
            default=None,
        )
        if expired and self.registry is not None:
            self.registry.counter_inc("net.lookaside.expired", len(expired))
            self.registry.gauge_set("net.lookaside.size", float(len(self._records)))

    def _drop_locked(self, record: Dict) -> None:
        n = int(record["n"])
        bucket = self._by_n.get(n)
        if bucket is not None:
            bucket.pop(record["key"], None)
            if not bucket:
                self._by_n.pop(n, None)
        self._views.pop(n, None)

    def _note_expiry_locked(self, expires_at: Optional[float]) -> None:
        if expires_at is not None and (
            self._next_expiry is None or expires_at < self._next_expiry
        ):
            self._next_expiry = expires_at

    # -- publishing ------------------------------------------------------------

    def _store_locked(self, key: str, record: Dict) -> None:
        """Replace-on-republish insert plus FIFO capacity eviction; the
        record must already carry origin/epoch/seq/expires_at."""
        old = self._records.pop(key, None)
        if old is not None:
            self._drop_locked(old)
        self._records[key] = record
        self._by_n.setdefault(int(record["n"]), OrderedDict())[key] = record
        self._views.pop(int(record["n"]), None)
        self._note_expiry_locked(record["expires_at"])
        while len(self._records) > self.capacity:
            _, evicted = self._records.popitem(last=False)
            self._drop_locked(evicted)

    def insert(self, record: Dict) -> None:
        """Fold one locally published donor record into the tier.

        Local publishes own the conflict resolution: the stored record is
        stamped with this tier's ``origin`` and an epoch one past whatever
        it replaces, so a republished solution wins mesh-wide over every
        copy of its predecessor.
        """
        key = record.get("key")
        params = record.get("params")
        if key is None or params is None:
            return
        now = self.clock()
        with self._lock:
            self._sweep_locked(now)
            old = self._records.get(key)
            stored = {
                "key": key,
                "n": int(record["n"]),
                "params": params,
                "allocation": record["allocation"],
                "iterations": int(record["iterations"]),
                "origin": self.origin,
                "epoch": (int(old["epoch"]) + 1) if old is not None else 0,
                "expires_at": None if self.ttl_s is None else now + self.ttl_s,
            }
            self._seq += 1
            stored["seq"] = self._seq
            self._store_locked(key, stored)
            size = len(self._records)
        if self.registry is not None:
            self.registry.counter_inc("net.lookaside.published")
            self.registry.gauge_set("net.lookaside.size", float(size))

    def publish(self, request, result) -> None:
        """Service-hook form of :meth:`insert` (in-process sharing)."""
        record = donor_record(request, result)
        if record is not None:
            self.insert(record)

    def merge(self, records: List[Dict]) -> int:
        """Fold gossiped wire records in; returns how many were accepted.

        A remote record wins only when its ``(epoch, origin)`` pair is
        strictly greater than the stored one's — newest epoch first,
        origin id as the deterministic tie-break — so concurrent
        republishes converge to the same winner on every server.  Records
        arriving already expired (``ttl_s <= 0``) are ignored, and so are
        records that could not donate (see :func:`_can_donate`): a
        malformed allocation would otherwise be handed out as a warm
        start.
        """
        now = self.clock()
        merged = 0
        with self._lock:
            self._sweep_locked(now)
            for record in records:
                key = record.get("key")
                if key is None or not _can_donate(record):
                    continue
                ttl = record.get("ttl_s")
                if ttl is not None and ttl <= 0:
                    continue
                epoch = int(record.get("epoch", 0))
                origin = str(record.get("origin", ""))
                old = self._records.get(key)
                if old is not None and (epoch, origin) <= (
                    int(old["epoch"]), str(old["origin"])
                ):
                    continue
                stored = {
                    "key": key,
                    "n": int(record["n"]),
                    "params": np.asarray(record["params"], dtype=float),
                    "allocation": np.asarray(record["allocation"], dtype=float),
                    "iterations": int(record["iterations"]),
                    "origin": origin,
                    "epoch": epoch,
                    "expires_at": None if ttl is None else now + float(ttl),
                }
                self._seq += 1
                stored["seq"] = self._seq
                self._store_locked(key, stored)
                merged += 1
            size = len(self._records)
        if merged and self.registry is not None:
            self.registry.gauge_set("net.lookaside.size", float(size))
        return merged

    # -- gossip views ----------------------------------------------------------

    def records_since(
        self, seq: int, *, max_bytes: Optional[int] = None
    ) -> Tuple[List[Dict], int]:
        """Wire records accepted after sequence number ``seq``, oldest
        first, cut off at ``max_bytes`` — the rumor-push feed.  Returns
        ``(records, last_seq)`` where ``last_seq`` acknowledges exactly
        the records included (pass it back next time)."""
        now = self.clock()
        out: List[Dict] = []
        last = seq
        budget = max_bytes if max_bytes is not None else float("inf")
        with self._lock:
            self._sweep_locked(now)
            fresh = sorted(
                (r for r in self._records.values() if r["seq"] > seq),
                key=lambda r: r["seq"],
            )
            truncated = False
            for record in fresh:
                cost = _record_bytes(record)
                if cost > budget:
                    truncated = True
                    break  # over budget: the rest waits for the next round
                out.append(wire_record(record, now))
                last = record["seq"]
                budget -= cost
            if not truncated:
                # Everything live shipped; jump the cursor over the seqs
                # of records that expired or were replaced meanwhile, so
                # a quiet feed cannot look perpetually behind.
                last = self._seq
        return out, last

    @property
    def seq(self) -> int:
        """Sequence number of the most recently accepted record."""
        with self._lock:
            return self._seq

    def digest(self) -> Dict[str, str]:
        """Per-size-bucket fingerprints over live ``(key, epoch, origin)``
        triples — the compact anti-entropy summary.  Two tiers with equal
        digests hold identical donor sets."""
        now = self.clock()
        with self._lock:
            self._sweep_locked(now)
            out = {}
            for n, bucket in self._by_n.items():
                h = hashlib.blake2b(digest_size=8)
                for key in sorted(bucket):
                    record = bucket[key]
                    h.update(
                        f"{key}:{record['epoch']}:{record['origin']};".encode()
                    )
                out[str(n)] = h.hexdigest()
            return out

    def epoch_vectors(self, sizes: List[str]) -> Dict[str, Dict[str, List]]:
        """``{n: {key: [epoch, origin]}}`` for the requested buckets —
        what a peer needs to compute exactly which records we lack.
        Buckets we do not hold come back as empty maps (send everything)."""
        now = self.clock()
        out: Dict[str, Dict[str, List]] = {}
        with self._lock:
            self._sweep_locked(now)
            for size in sizes:
                bucket = self._by_n.get(int(size), {})
                out[str(size)] = {
                    key: [int(r["epoch"]), str(r["origin"])]
                    for key, r in bucket.items()
                }
        return out

    def records_missing_from(
        self,
        vectors: Dict[str, Dict[str, List]],
        *,
        max_bytes: Optional[int] = None,
    ) -> List[Dict]:
        """Wire records the peer described by ``vectors`` lacks or holds
        older: its pull is answered with exactly these, oldest-seq first,
        bounded by ``max_bytes``."""
        now = self.clock()
        out: List[Dict] = []
        budget = max_bytes if max_bytes is not None else float("inf")
        with self._lock:
            self._sweep_locked(now)
            candidates: List[Dict] = []
            for size, theirs in vectors.items():
                bucket = self._by_n.get(int(size))
                if not bucket:
                    continue
                for key, record in bucket.items():
                    have = theirs.get(key)
                    if have is None or (int(record["epoch"]), str(record["origin"])) > (
                        int(have[0]), str(have[1])
                    ):
                        candidates.append(record)
            candidates.sort(key=lambda r: r["seq"])
            for record in candidates:
                cost = _record_bytes(record)
                if cost > budget:
                    break
                out.append(wire_record(record, now))
                budget -= cost
        return out

    # -- donor search ----------------------------------------------------------

    def donor_for_params(
        self, n: int, params: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """The closest donor allocation for an ``n``-node problem with
        parameter vector ``params``, or ``None`` outside ``max_distance``."""
        if params is None:
            return None
        with self._lock:
            self._sweep_locked(self.clock())
            view = self._views.get(n)
            if view is None:
                bucket = self._by_n.get(n)
                if not bucket:
                    return None
                records = list(bucket.values())
                view = (records, np.stack([r["params"] for r in records]))
                self._views[n] = view
            records, matrix = view
            if matrix.shape[1] != params.shape[0]:
                return None
            distances = relative_distances(matrix, params)
            best = int(np.argmin(distances))
            if float(distances[best]) > self.max_distance:
                return None
            donor = records[best]["allocation"]
        if self.registry is not None:
            self.registry.counter_inc("net.lookaside.hits")
        return np.array(donor, dtype=float, copy=True)

    def donor_for_payload(self, payload: Dict) -> Optional[np.ndarray]:
        """Donor lookup straight from a wire payload (server dispatch
        path; no problem construction)."""
        params = params_from_payload(payload)
        if params is None:
            return None
        # params = rates ++ mu ++ [k]: n is (len - 1) / 2.
        return self.donor_for_params((params.shape[0] - 1) // 2, params)

    def get(self, request) -> Optional[np.ndarray]:
        """Service-hook form of :meth:`donor_for_params` — consulted by
        :class:`~repro.service.AllocationService` on local cache misses."""
        return self.donor_for_params(
            request.problem.n, parameter_vector(request.problem)
        )

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._by_n.clear()
            self._views.clear()
            self._next_expiry = None

    def __repr__(self) -> str:
        with self._lock:
            size, buckets = len(self._records), len(self._by_n)
        return (
            f"LookasideTier(size={size}/{self.capacity}, sizes={buckets}, "
            f"max_distance={self.max_distance:g}, ttl_s={self.ttl_s}, "
            f"origin={self.origin!r})"
        )
