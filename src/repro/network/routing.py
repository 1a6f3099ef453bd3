"""Next-hop routing tables over a topology.

The analytical model only needs the end-to-end cost matrix, but the
discrete-event runtime forwards messages hop by hop (store-and-forward, as
the paper's §4 describes), which needs a next-hop table.  Ties are broken
toward the smaller node id so routing is deterministic and reproducible.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import TopologyError
from repro.network.shortest_paths import _adjacency, _search
from repro.network.topology import Topology


class RoutingTable:
    """Least-cost next-hop routing for every ordered node pair.

    Parameters
    ----------
    topology:
        The network to route over.  Must be connected.
    """

    def __init__(self, topology: Topology):
        self._topology = topology
        n = topology.n
        self._next_hop: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        self._distance = np.zeros((n, n))
        adj = _adjacency(topology)
        for source in range(n):
            dist, pred = _search(adj, source)
            if not np.all(np.isfinite(dist)):
                raise TopologyError(
                    f"cannot build routing table: node {source} cannot reach every node"
                )
            self._distance[source] = dist
            # A node's first hop is its predecessor's: walk back to the
            # source or to a labelled node, then label the walk (O(n)).
            hops = self._next_hop[source]
            for target in range(n):
                chain = []
                node = target
                while node != source and hops[node] is None:
                    chain.append(node)
                    node = pred[node]
                if chain:
                    first = chain[-1] if node == source else hops[node]
                    for node in chain:
                        hops[node] = first

    @property
    def topology(self) -> Topology:
        return self._topology

    def _check_pair(self, source: int, target: int) -> None:
        self._topology._check_node(source)
        self._topology._check_node(target)

    def next_hop(self, source: int, target: int) -> int:
        """First node on the least-cost path ``source -> target``."""
        self._check_pair(source, target)
        if source == target:
            raise TopologyError("no next hop from a node to itself")
        hop = self._next_hop[source][target]
        assert hop is not None
        return hop

    def cost(self, source: int, target: int) -> float:
        """End-to-end least path cost (0 for source == target)."""
        self._check_pair(source, target)
        return float(self._distance[source, target])

    def cost_matrix(self) -> np.ndarray:
        """Copy of the all-pairs least-cost matrix."""
        return self._distance.copy()

    def route(self, source: int, target: int) -> List[int]:
        """Full hop sequence from ``source`` to ``target`` inclusive."""
        self._check_pair(source, target)
        path = [source]
        while path[-1] != target:
            path.append(self.next_hop(path[-1], target))
            if len(path) > self._topology.n:
                raise TopologyError("routing loop detected")  # pragma: no cover
        return path

    def hop_count(self, source: int, target: int) -> int:
        """Number of links traversed on the least-cost route."""
        return len(self.route(source, target)) - 1
