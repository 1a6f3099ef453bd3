"""Least-cost path computation.

The model's pairwise access cost ``c_ij`` is the least-cost route between
``i`` and ``j`` ("the routing of the access requests between any two given
nodes was taken to be along the shortest (least expensive) path", §6).

``FileAllocationProblem.from_topology`` needs one search per node, so the
search reads the topology once: :func:`_adjacency` turns the link-cost
matrix into per-node ascending ``(neighbour, cost)`` lists of plain Python
ints and floats, and :func:`_search` runs binary-heap Dijkstra on them.
:func:`all_pairs_shortest_paths` and
:class:`~repro.network.routing.RoutingTable` build the lists once for all
sources, and the topology keeps the all-pairs matrix until its links
change, so problems built on one network share one search.  The lists
change no arithmetic: the heap sees the pushes and
pops, and each ``d + w`` adds the two floats, that a search through
``Topology.neighbors`` and ``Topology.edge_cost`` would, so every distance
and predecessor is bit for bit that search's (the test suite keeps it as
the oracle).

:func:`floyd_warshall` is the second, independent implementation, kept as
the test suite's oracle.  It is not the production path: it sums a path in
a different order than Dijkstra, so its matrix can differ from Dijkstra's
in the last bit on weighted graphs, and every problem fingerprint and
answer built on ``c_ij`` would move with it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import TopologyError
from repro.network.topology import Topology

Adjacency = List[List[Tuple[int, float]]]


def _adjacency(topology: Topology) -> Adjacency:
    """Per-node ``(neighbour, cost)`` lists in ascending neighbour order."""
    cost = topology.link_cost_matrix()
    np.fill_diagonal(cost, np.inf)
    us, vs = np.nonzero(np.isfinite(cost))
    adj: Adjacency = [[] for _ in range(topology.n)]
    for u, v, w in zip(us.tolist(), vs.tolist(), cost[us, vs].tolist()):
        adj[u].append((v, w))
    return adj


def _search(adj: Adjacency, source: int) -> Tuple[List[float], List[Optional[int]]]:
    """Binary-heap Dijkstra from ``source`` over :func:`_adjacency` lists."""
    n = len(adj)
    dist = [np.inf] * n
    pred: List[Optional[int]] = [None] * n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def dijkstra(topology: Topology, source: int) -> Tuple[np.ndarray, List[Optional[int]]]:
    """Single-source least-cost distances and predecessor links.

    Returns ``(dist, pred)`` where ``dist[v]`` is the least path cost from
    ``source`` to ``v`` (``inf`` if unreachable) and ``pred[v]`` is the node
    preceding ``v`` on one such path (``None`` for the source and
    unreachable nodes).  Raises :class:`~repro.exceptions.TopologyError`
    for a ``source`` outside ``0 .. n-1``.
    """
    topology._check_node(source)
    dist, pred = _search(_adjacency(topology), int(source))
    return np.array(dist), pred


def floyd_warshall(topology: Topology) -> np.ndarray:
    """All-pairs least-cost matrix via dynamic programming.

    O(n^3); used as an independent oracle against Dijkstra in tests and for
    small experiment networks.
    """
    dist = topology.link_cost_matrix()
    n = topology.n
    for k in range(n):
        # Vectorized relaxation over the k-th intermediate node.
        via_k = dist[:, k][:, None] + dist[k, :][None, :]
        np.minimum(dist, via_k, out=dist)
    return dist


def all_pairs_shortest_paths(topology: Topology, *, require_connected: bool = True) -> np.ndarray:
    """All-pairs least-cost matrix (Dijkstra from every source).

    This is the ``c_ij`` matrix of the paper's model.  Raises
    :class:`~repro.exceptions.TopologyError` when the graph is disconnected
    and ``require_connected`` is set, because an unreachable node would give
    an infinite access cost.

    The search runs once per set of links: ``topology`` keeps the matrix
    until ``add_edge`` or ``remove_edge`` changes a link cost.  Each call
    returns its own copy, so a caller that writes into it changes no other
    caller's matrix.
    """
    out = topology._least_costs
    if out is None:
        adj = _adjacency(topology)
        out = topology._least_costs = np.array([_search(adj, s)[0] for s in range(topology.n)])
    if require_connected and not np.all(np.isfinite(out)):
        raise TopologyError(
            f"topology {topology.name!r} is disconnected; access costs would be infinite"
        )
    return out.copy()


def shortest_path(topology: Topology, source: int, target: int) -> List[int]:
    """The node sequence of one least-cost path from ``source`` to ``target``."""
    dist, pred = dijkstra(topology, source)
    topology._check_node(target)
    if not np.isfinite(dist[target]):
        raise TopologyError(f"no path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        prev = pred[path[-1]]
        assert prev is not None
        path.append(prev)
    path.reverse()
    return path


def path_cost(topology: Topology, path: List[int]) -> float:
    """Total link cost along an explicit node sequence."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        cost = topology.edge_cost(u, v)
        if not np.isfinite(cost):
            raise TopologyError(f"path uses missing edge {u}--{v}")
        total += cost
    return total


def eccentricity(topology: Topology, node: int) -> float:
    """Largest least-cost distance from ``node`` to any other node."""
    dist, _ = dijkstra(topology, node)
    return float(np.max(dist[np.isfinite(dist)]))


def diameter(topology: Topology) -> float:
    """Largest least-cost distance between any node pair."""
    matrix = all_pairs_shortest_paths(topology)
    return float(matrix.max())
