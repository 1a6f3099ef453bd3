"""Network substrate: topologies, shortest paths, routing, virtual rings.

The paper's model assumes a logically fully connected network in which
``c_ij`` is the cost of sending an access from ``i`` to ``j`` and carrying
the response back, with routing along the least-cost path (§6).  This
package provides:

* :class:`~repro.network.topology.Topology` — weighted undirected graphs
  with the standard generators (ring, line, star, tree, grid, complete,
  random) in :mod:`repro.network.builders`;
* binary-heap Dijkstra all-pairs least-cost computation, with
  Floyd–Warshall as its independent test oracle, in
  :mod:`repro.network.shortest_paths`;
* next-hop routing tables in :mod:`repro.network.routing` (used by the
  discrete-event runtime to charge hop-by-hop communication);
* the §7.2 *virtual ring* embedding in :mod:`repro.network.virtual_ring`.
"""

from repro.network.builders import (
    complete_graph,
    grid_graph,
    line_graph,
    random_geometric_graph,
    random_graph,
    ring_graph,
    star_graph,
    tree_graph,
)
from repro.network.routing import RoutingTable
from repro.network.shortest_paths import all_pairs_shortest_paths, dijkstra, floyd_warshall
from repro.network.topology import Topology
from repro.network.virtual_ring import VirtualRing
from repro.network.visualize import adjacency_art, topology_summary

__all__ = [
    "RoutingTable",
    "Topology",
    "VirtualRing",
    "adjacency_art",
    "all_pairs_shortest_paths",
    "complete_graph",
    "dijkstra",
    "floyd_warshall",
    "grid_graph",
    "line_graph",
    "random_geometric_graph",
    "random_graph",
    "ring_graph",
    "star_graph",
    "topology_summary",
    "tree_graph",
]
