"""Weighted undirected network topologies.

A :class:`Topology` stores node count and a symmetric link-cost matrix with
``inf`` marking absent links.  It is deliberately minimal — the file
allocation model only needs pairwise least-cost access costs — but exposes
enough structure (edges, neighbors, connectivity) for the routing layer and
the discrete-event simulator to work hop by hop.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import TopologyError

Edge = Tuple[int, int, float]


class Topology:
    """An undirected, link-weighted network of ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes, labeled ``0 .. n-1``.
    edges:
        Iterable of ``(u, v, cost)`` triples.  Costs must be positive;
        parallel edges keep the cheaper cost.
    name:
        Optional human-readable name (used in experiment reports).
    """

    def __init__(self, n: int, edges: Iterable[Edge] = (), *, name: str = ""):
        if n <= 0:
            raise TopologyError(f"topology needs at least one node, got n={n}")
        self._n = int(n)
        self.name = name or f"topology-{n}"
        self._cost = np.full((n, n), np.inf)
        np.fill_diagonal(self._cost, 0.0)
        for u, v, cost in edges:
            self.add_edge(u, v, cost)

    # -- construction -----------------------------------------------------

    def add_edge(self, u: int, v: int, cost: float) -> None:
        """Add (or cheapen) the undirected edge ``u -- v``."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        cost = float(cost)
        if not np.isfinite(cost) or cost <= 0:
            raise TopologyError(f"edge cost must be positive and finite, got {cost!r}")
        if cost < self._cost[u, v]:
            self._cost[u, v] = cost
            self._cost[v, u] = cost

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge ``u -- v`` (error if absent)."""
        if not self.has_edge(u, v):
            raise TopologyError(f"no edge between {u} and {v}")
        self._cost[u, v] = np.inf
        self._cost[v, u] = np.inf

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    def nodes(self) -> range:
        """Iterate node ids ``0 .. n-1``."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return u != v and np.isfinite(self._cost[u, v])

    def edge_cost(self, u: int, v: int) -> float:
        """Cost of the direct link ``u -- v`` (``inf`` if absent)."""
        self._check_node(u)
        self._check_node(v)
        return float(self._cost[u, v])

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge once as ``(u, v, cost)`` with u < v,
        in ascending ``(u, v)`` order."""
        us, vs = np.nonzero(np.triu(np.isfinite(self._cost), k=1))
        yield from zip(us.tolist(), vs.tolist(), self._cost[us, vs].tolist())

    def neighbors(self, u: int) -> List[int]:
        """Nodes directly linked to ``u``, in ascending order."""
        self._check_node(u)
        linked = np.isfinite(self._cost[u])
        linked[u] = False
        return np.flatnonzero(linked).tolist()

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def link_cost_matrix(self) -> np.ndarray:
        """Copy of the raw link-cost matrix (``inf`` = no link)."""
        return self._cost.copy()

    def is_connected(self) -> bool:
        """True if every node can reach every other node."""
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self._n

    def without_node(self, dead: int) -> "Topology":
        """A copy of this topology with ``dead``'s links removed.

        The node id remains (so allocation vectors keep their indexing) but
        it becomes unreachable — used by the failure-injection experiments.
        """
        self._check_node(dead)
        survivor = Topology(self._n, name=f"{self.name}-minus-{dead}")
        for u, v, c in self.edges():
            if dead not in (u, v):
                survivor.add_edge(u, v, c)
        return survivor

    def scaled(self, factor: float) -> "Topology":
        """A copy with every link cost multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise TopologyError(f"scale factor must be positive, got {factor}")
        clone = Topology(self._n, name=f"{self.name}-x{factor:g}")
        for u, v, c in self.edges():
            clone.add_edge(u, v, c * factor)
        return clone

    # -- misc ---------------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self._n):
            raise TopologyError(f"node id {u!r} out of range [0, {self._n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._n == other._n and bool(
            np.array_equal(self._cost, other._cost)
        )

    def __hash__(self):  # pragma: no cover - topologies are mutable
        return NotImplemented

    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, n={self._n}, edges={self.edge_count()})"


def topology_from_cost_matrix(matrix: Sequence[Sequence[float]], *, name: str = "") -> Topology:
    """Build a topology from a full symmetric link-cost matrix.

    Entries that are ``inf`` (or ``<= 0`` off-diagonal) are treated as
    missing links.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise TopologyError(f"cost matrix must be square, got shape {arr.shape}")
    if not np.allclose(arr, arr.T, equal_nan=True):
        raise TopologyError("cost matrix must be symmetric for an undirected topology")
    n = arr.shape[0]
    topo = Topology(n, name=name)
    for u in range(n):
        for v in range(u + 1, n):
            if np.isfinite(arr[u, v]) and arr[u, v] > 0:
                topo.add_edge(u, v, arr[u, v])
    return topo
