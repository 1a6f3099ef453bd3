"""Shard routing: which worker answers which request, read off the frame.

The solution cache and the micro-batcher both get their leverage from
*locality*: exact repeats only hit if they reach the cache that stored
them, and requests only batch with requests sitting in the same queue.
So every request for one network routes to one shard.  The access cost
``c_ij`` depends on the network alone, so :func:`routing_key` reads the
network's identity off the decoded payload without building the problem
(the worker does the real parse and validation):

* a cost matrix keys on its structural key — a packed ``ndarray`` and a
  JSON list give the same float64 bytes, and both equal
  :func:`~repro.service.fingerprint.structural_key` of the built problem.
  A solve the event loop forwarded packed keys on its body's cost-matrix
  slice (:func:`~repro.net.binary.forwarded_cost`), the same bytes;
* a named topology keys on ``(topology, nodes)`` only, so its rate,
  ``mu`` and ``k`` variants share a shard;
* anything else has no key and goes to shard 0, where the worker's
  in-band parse error answers it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.net.binary import forwarded_cost
from repro.service.codec import WIRE_DEFAULTS
from repro.service.fingerprint import structural_key_from_matrix

__all__ = ["routing_key", "shard_for", "shard_of_key"]


def routing_key(payload: Dict) -> Optional[str]:
    """The hex digest a solve payload routes on, or ``None`` when it
    names no network."""
    cost = forwarded_cost(payload)
    if cost is not None:
        return structural_key_from_matrix(cost)
    spec = payload.get("problem")
    if not isinstance(spec, dict):
        return None
    if "cost_matrix" in spec or "access_rates" in spec:  # the codec's raw spec
        try:
            return structural_key_from_matrix(spec["cost_matrix"])
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
    # The same defaults the codec applies to a named topology.
    named = repr((
        spec.get("topology", WIRE_DEFAULTS["topology"]),
        spec.get("nodes", WIRE_DEFAULTS["nodes"]),
    ))
    return hashlib.sha256(b"repro.fap.topology.v1:" + named.encode()).hexdigest()


def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic shard index for one routing-key hex digest."""
    return int(key[:16], 16) % num_shards


def shard_for(payload: Dict, num_shards: int) -> int:
    """:func:`shard_of_key` of the payload's :func:`routing_key`, or
    shard 0 when it has none."""
    key = routing_key(payload)
    return 0 if key is None else shard_of_key(key, num_shards)
