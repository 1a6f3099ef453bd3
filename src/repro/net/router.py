"""Shard routing: which worker answers which request.

The solution cache and the micro-batcher both get their leverage from
*locality*: exact repeats only hit if they reach the cache that stored
them, and requests only batch with requests sitting in the same queue.
A multi-worker server therefore cannot route uniformly at random without
giving most of that leverage away — each worker would see ``1/W`` of the
repeats of any given problem.

:class:`ShardRouter` partitions requests by the problem's
**structural fingerprint** (:func:`repro.service.fingerprint.structural_key`
— node count plus cost matrix).  Everything about one network topology
lands on one shard: exact repeats hit that shard's cache, near-misses
find their warm-start donors there, and same-shape requests batch
together.  Different topologies spread across shards, which is where the
multi-core win comes from.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.service.fingerprint import structural_key
from repro.service.types import SolveRequest

__all__ = ["ShardRouter", "shard_of_key"]


def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic shard index for one structural-key hex digest."""
    return int(key[:16], 16) % num_shards


class ShardRouter:
    """Maps a :class:`~repro.service.types.SolveRequest` to a shard index
    by structural fingerprint, so repeats and same-shape requests share
    a shard.

    Parameters
    ----------
    num_shards:
        How many partitions to route across (>= 1).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        #: Requests routed per shard (mirrors ``net.shard.<i>.routed``).
        self.route_counts = [0] * self.num_shards

    def shard_for(self, request: SolveRequest) -> int:
        """The shard that should own ``request``."""
        return self.shard_for_key(self.routing_key(request))

    def shard_for_key(self, key: str) -> int:
        """The shard owning one structural-key digest.

        Packed solve bodies route on a key computed straight from the
        cost-matrix bytes
        (:func:`~repro.service.fingerprint.structural_key_from_matrix`)
        without building the problem; JSON-bodied requests go through
        :meth:`shard_for` after parsing.  Both end up here, so the two
        body forms route one problem to the same shard.
        """
        shard = shard_of_key(key, self.num_shards)
        self.route_counts[shard] += 1
        return shard

    def routing_key(self, request: SolveRequest) -> str:
        """The structural key routing is based on."""
        return structural_key(request.problem)

    def __repr__(self) -> str:
        return (
            f"ShardRouter(num_shards={self.num_shards}, "
            f"routed={sum(self.route_counts)})"
        )
