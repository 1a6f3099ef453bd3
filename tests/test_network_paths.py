"""Tests for shortest paths, routing tables and the virtual ring."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError
from repro.network import builders
from repro.network.builders import line_graph, random_graph, ring_graph, star_graph
from repro.network.routing import RoutingTable
from repro.network.shortest_paths import (
    all_pairs_shortest_paths,
    diameter,
    dijkstra,
    eccentricity,
    floyd_warshall,
    path_cost,
    shortest_path,
)
from repro.network.topology import Topology
from repro.network.virtual_ring import VirtualRing


class TestDijkstra:
    def test_unit_ring_distances(self):
        dist, _ = dijkstra(ring_graph(4), 0)
        np.testing.assert_allclose(dist, [0, 1, 2, 1])

    def test_prefers_cheap_detour(self):
        topo = Topology(3, [(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)])
        dist, pred = dijkstra(topo, 0)
        assert dist[1] == 2.0
        assert pred[1] == 2

    def test_unreachable_is_inf(self):
        topo = Topology(3, [(0, 1, 1.0)])
        dist, _ = dijkstra(topo, 0)
        assert np.isinf(dist[2])


def _reference_dijkstra(topology, source):
    """Dijkstra asking the topology for one neighbour list and one link
    cost at a time: the oracle the list-based search reproduces bit for
    bit."""
    n = topology.n
    dist = np.full(n, np.inf)
    pred = [None] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in topology.neighbors(u):
            nd = d + topology.edge_cost(u, v)
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _reference_neighbors(topology, u):
    """``Topology.neighbors`` as a per-element scan."""
    row = topology.link_cost_matrix()[u]
    return [v for v in range(topology.n) if v != u and np.isfinite(row[v])]


def _reference_edges(topology):
    """``Topology.edges`` as a per-element scan."""
    cost = topology.link_cost_matrix()
    return [
        (u, v, float(cost[u, v]))
        for u in range(topology.n)
        for v in range(u + 1, topology.n)
        if np.isfinite(cost[u, v])
    ]


def _reference_next_hop(pred, source, target):
    hop = target
    while pred[hop] is not None and pred[hop] != source:
        hop = pred[hop]
    return hop


@st.composite
def _weighted_graphs(draw, connected=True):
    """Graphs on 2-40 nodes with non-integer link costs: either spread
    out (distinct path sums) or drawn from {0.1, 0.2, 0.3}, where equal
    paths tie and ``0.1 + 0.2 != 0.3``.  A connected graph starts from a
    random spanning tree; a disconnected one only links nodes of the same
    random component label, and nodes 0 and 1 get different labels."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    if draw(st.booleans()):
        cost = lambda: float(rng.uniform(0.1, 10.0))  # noqa: E731
    else:
        cost = lambda: float(rng.choice([0.1, 0.2, 0.3]))  # noqa: E731
    topo = Topology(n)
    if connected:
        labels = np.zeros(n, dtype=int)
        order = rng.permutation(n)
        for i in range(1, n):
            topo.add_edge(int(order[i]), int(order[rng.integers(0, i)]), cost())
    else:
        labels = rng.integers(0, draw(st.integers(2, 4)), size=n)
        labels[0], labels[1] = 0, 1
    for u in range(n):
        for v in range(u + 1, n):
            if labels[u] == labels[v] and rng.random() < density:
                topo.add_edge(u, v, cost())
    return topo


def _assert_matches_reference(topo, sources=None):
    """Rows ``sources`` (default all) of the all-pairs matrix, the routing
    table's costs and next hops, and each source's predecessors equal the
    oracle's, bit for bit."""
    n = topo.n
    sources = list(range(n)) if sources is None else sources
    reference = {s: _reference_dijkstra(topo, s) for s in sources}
    want = np.array([reference[s][0] for s in sources])
    got = all_pairs_shortest_paths(topo, require_connected=False)
    assert got[sources].tobytes() == want.tobytes()
    for s, (dist, pred) in reference.items():
        got_dist, got_pred = dijkstra(topo, s)
        assert got_dist.tobytes() == dist.tobytes()
        assert got_pred == pred
    neighbors = [topo.neighbors(u) for u in range(n)]
    assert neighbors == [_reference_neighbors(topo, u) for u in range(n)]
    assert all(type(v) is int for row in neighbors for v in row)
    edges = list(topo.edges())
    assert edges == _reference_edges(topo)
    assert all(tuple(map(type, edge)) == (int, int, float) for edge in edges)
    if np.isfinite(got).all():
        table = RoutingTable(topo)
        assert table.cost_matrix()[sources].tobytes() == want.tobytes()
        for s, (_, pred) in reference.items():
            for t in range(n):
                if t != s:
                    assert table.next_hop(s, t) == _reference_next_hop(pred, s, t)


class TestReferenceParity:
    """The list-based search reproduces the per-element one bit for bit:
    every distance, predecessor and next hop."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(topo=_weighted_graphs())
    def test_connected_graphs(self, topo):
        _assert_matches_reference(topo)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(topo=_weighted_graphs(connected=False))
    def test_disconnected_graphs(self, topo):
        assert not topo.is_connected()
        _assert_matches_reference(topo)

    @pytest.mark.parametrize("n", [8, 24, 150])
    @pytest.mark.parametrize("family", ["ring", "line", "star", "complete"])
    def test_builder_families(self, family, n):
        """At n = 150 the oracle (seconds per complete graph) checks the
        ends, the hub and the middle of the node range."""
        sources = None if n < 100 else [0, 1, n // 2, n - 1]
        _assert_matches_reference(getattr(builders, f"{family}_graph")(n), sources)

    def test_floyd_warshall_is_told_apart(self):
        """On weighted graphs Floyd–Warshall sums paths in another order,
        so the data above can tell it from Dijkstra in the last bit."""
        differs = 0
        for seed in range(10):
            topo = random_graph(24, 0.3, cost_range=(0.1, 10.0), seed=seed)
            want = np.array([_reference_dijkstra(topo, s)[0] for s in range(topo.n)])
            assert all_pairs_shortest_paths(topo).tobytes() == want.tobytes()
            np.testing.assert_allclose(floyd_warshall(topo), want, rtol=1e-12)
            differs += floyd_warshall(topo).tobytes() != want.tobytes()
        assert differs > 0


class TestNodeIds:
    """Every path query names an out-of-range node id instead of reading
    it through Python's negative indexing or failing on an IndexError."""

    BAD_PAIRS = [(0, -1), (0, 4), (0, 7), (-1, 0), (7, 0)]

    @pytest.mark.parametrize("source", [-1, 4, 7])
    def test_dijkstra_source(self, source):
        with pytest.raises(TopologyError, match=f"node id {source} out of range"):
            dijkstra(line_graph(4), source)

    @pytest.mark.parametrize("source, target", BAD_PAIRS)
    def test_shortest_path(self, source, target):
        bad = target if source == 0 else source
        with pytest.raises(TopologyError, match=f"node id {bad} out of range"):
            shortest_path(line_graph(4), source, target)

    @pytest.mark.parametrize("method", ["next_hop", "cost", "route", "hop_count"])
    @pytest.mark.parametrize("source, target", BAD_PAIRS)
    def test_routing_table(self, method, source, target):
        bad = target if source == 0 else source
        table = RoutingTable(line_graph(4))
        with pytest.raises(TopologyError, match=f"node id {bad} out of range"):
            getattr(table, method)(source, target)

    def test_numpy_ids_accepted(self):
        topo = line_graph(4)
        assert shortest_path(topo, np.int64(0), np.int64(3)) == [0, 1, 2, 3]
        assert RoutingTable(topo).cost(np.int64(3), np.int64(0)) == 3.0


class TestFloydWarshallAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_dijkstra_on_random_graphs(self, seed):
        topo = random_graph(10, 0.3, cost_range=(0.5, 4.0), seed=seed)
        via_dijkstra = all_pairs_shortest_paths(topo)
        via_fw = floyd_warshall(topo)
        np.testing.assert_allclose(via_dijkstra, via_fw, atol=1e-9)

    def test_triangle_inequality_holds(self):
        topo = random_graph(8, 0.4, cost_range=(1.0, 5.0), seed=11)
        d = all_pairs_shortest_paths(topo)
        n = topo.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestAllPairs:
    def test_symmetric_for_undirected(self):
        d = all_pairs_shortest_paths(ring_graph(5, [1, 2, 3, 4, 5]))
        np.testing.assert_allclose(d, d.T)

    def test_disconnected_raises(self):
        topo = Topology(3, [(0, 1, 1.0)])
        with pytest.raises(TopologyError, match="disconnected"):
            all_pairs_shortest_paths(topo)

    def test_disconnected_allowed_when_requested(self):
        topo = Topology(3, [(0, 1, 1.0)])
        d = all_pairs_shortest_paths(topo, require_connected=False)
        assert np.isinf(d[0, 2])


class TestExplicitPaths:
    def test_path_endpoints_and_cost(self):
        topo = line_graph(5, 2.0)
        path = shortest_path(topo, 0, 4)
        assert path == [0, 1, 2, 3, 4]
        assert path_cost(topo, path) == 8.0

    def test_no_path_raises(self):
        topo = Topology(2)
        with pytest.raises(TopologyError):
            shortest_path(topo, 0, 1)

    def test_path_cost_rejects_missing_edge(self):
        with pytest.raises(TopologyError):
            path_cost(line_graph(3), [0, 2])

    def test_diameter_and_eccentricity(self):
        topo = line_graph(4)
        assert diameter(topo) == 3.0
        assert eccentricity(topo, 1) == 2.0


class TestRoutingTable:
    def test_next_hops_follow_shortest_paths(self):
        topo = ring_graph(6)
        table = RoutingTable(topo)
        # From 0 to 2 the short way is via 1.
        assert table.next_hop(0, 2) == 1
        assert table.route(0, 3) in ([0, 1, 2, 3], [0, 5, 4, 3])
        assert table.hop_count(0, 3) == 3

    def test_cost_matrix_matches_all_pairs(self):
        topo = random_graph(9, 0.35, cost_range=(1.0, 3.0), seed=5)
        table = RoutingTable(topo)
        np.testing.assert_allclose(table.cost_matrix(), all_pairs_shortest_paths(topo))

    def test_route_cost_equals_table_cost(self):
        topo = random_graph(9, 0.3, cost_range=(0.5, 2.0), seed=9)
        table = RoutingTable(topo)
        for s in range(topo.n):
            for t in range(topo.n):
                if s != t:
                    assert path_cost(topo, table.route(s, t)) == pytest.approx(
                        table.cost(s, t)
                    )

    def test_self_hop_rejected(self):
        with pytest.raises(TopologyError):
            RoutingTable(ring_graph(3)).next_hop(1, 1)

    def test_disconnected_rejected(self):
        topo = Topology(3, [(0, 1, 1.0)])
        with pytest.raises(TopologyError):
            RoutingTable(topo)


class TestVirtualRing:
    def test_forward_distances(self):
        ring = VirtualRing([1.0, 2.0, 3.0, 4.0])
        assert ring.forward_distance(0, 1) == 1.0
        assert ring.forward_distance(0, 3) == 6.0
        assert ring.forward_distance(3, 0) == 4.0  # wraps
        assert ring.forward_distance(2, 1) == 3.0 + 4.0 + 1.0
        assert ring.circumference() == 10.0

    def test_successor_predecessor(self):
        ring = VirtualRing([1, 1, 1], order=[2, 0, 1])
        assert ring.successor(2) == 0
        assert ring.successor(1) == 2
        assert ring.predecessor(0) == 2

    def test_forward_sequence(self):
        ring = VirtualRing([1, 1, 1, 1])
        assert ring.forward_sequence(2) == [2, 3, 0, 1]

    def test_custom_order(self):
        ring = VirtualRing([1, 1, 1], order=[1, 2, 0])
        assert ring.forward_sequence(1) == [1, 2, 0]

    def test_distance_matrix_diagonal_zero(self):
        ring = VirtualRing([2, 3, 4])
        d = ring.distance_matrix()
        assert np.all(np.diag(d) == 0)
        # Row sums: each row covers distances to all others.
        assert d[0, 1] + d[1, 0] == ring.circumference()

    def test_from_topology_uses_shortest_paths(self):
        # Virtual ring over a star: consecutive nodes route via the hub.
        topo = star_graph(4, link_cost=1.0, center=0)
        ring = VirtualRing.from_topology(topo, order=[1, 2, 3, 0])
        # 1 -> 2 goes through hub 0: cost 2.
        assert ring.forward_distance(1, 2) == 2.0
        assert ring.forward_distance(3, 0) == 1.0

    def test_rejects_bad_order(self):
        with pytest.raises(TopologyError):
            VirtualRing([1, 1, 1], order=[0, 0, 1])

    def test_rejects_too_small(self):
        with pytest.raises(TopologyError):
            VirtualRing([1, 1])

    def test_unknown_node(self):
        with pytest.raises(TopologyError):
            VirtualRing([1, 1, 1]).position(5)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_forward_distances_sum_to_circumference(self, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.5, 3.0, size=5)
        ring = VirtualRing(costs)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert ring.forward_distance(i, j) + ring.forward_distance(
                        j, i
                    ) == pytest.approx(ring.circumference())
