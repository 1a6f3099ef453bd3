"""Seeded inputs for the two workloads.

The program under test sees only what these functions build: wire
payloads (dicts of float64 arrays, the binary codec's packed form) for
burst-hot, and ``FileAllocationProblem`` grids for the sweep.  The same
seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

# -- burst-hot ----------------------------------------------------------------

#: Working-set shape (after ``benchmarks/bench_net.py``): tiers of
#: distinct structures with short, medium and long reuse distances,
#: sized against a per-worker cache of ``HOT_CACHE_SIZE`` entries.  The
#: hot and warm tiers fit in the two workers' caches; the cold tier,
#: one of ``COLD_SLICES`` slices per round, overflows them, so its
#: requests miss.  ``REESTIMATES`` requests per round are rate-perturbed
#: re-estimates of hot structures (``VARIANTS`` of each, sent in turn),
#: which the cache answers with a warm start from the nearest donor and
#: then stores (a write).  The service stores a warm solve under its
#: donor-started request, which no later request repeats, so a
#: re-estimate never hits, and the entry it leaves is never hit either;
#: keeping them few keeps those entries from crowding the hot and warm
#: tiers out.  Five in six answers are hits.
HOT_NODES = 6
HOT_EPSILON = 1e-4
HOT_CACHE_SIZE = 32
HOT, WARM, COLD = 8, 16, 48
HOT_REPEATS = 3
COLD_SLICES = 8
REESTIMATES = 2
VARIANTS = 3
#: Requests per burst; a round (HOT_REPEATS * HOT + WARM + COLD /
#: COLD_SLICES + REESTIMATES = 48) is three bursts.
BURST = 16


def _structure(rng: np.random.Generator, ident: str) -> Dict:
    n = HOT_NODES
    cost = rng.uniform(0.5, 2.0, size=(n, n))
    cost = (cost + cost.T) / 2.0
    np.fill_diagonal(cost, 0.0)
    rates = rng.uniform(0.3, 0.8, size=n)
    rates *= 0.9 / rates.sum()
    return {
        "id": ident,
        "problem": {"cost_matrix": cost, "access_rates": rates, "mu": 1.5, "k": 1.0},
        "alpha": 0.3,
        "epsilon": HOT_EPSILON,
        "max_iterations": 5_000,
        "start": rng.dirichlet(np.ones(n)),
    }


def _perturbed(rng: np.random.Generator, base: Dict, ident: str) -> Dict:
    rates = base["problem"]["access_rates"] * rng.uniform(0.95, 1.05, size=HOT_NODES)
    rates *= 0.9 / rates.sum()
    return {**base, "id": ident, "problem": {**base["problem"], "access_rates": rates}}


@dataclass
class WorkingSet:
    """The burst-hot request population: base structures per tier, and
    the re-estimates in the order they are sent."""

    hot: List[Dict]
    warm: List[Dict]
    cold: List[Dict]
    reestimates: List[Dict]

    def round(self, r: int, rng: np.random.Generator) -> List[Dict]:
        """Round ``r`` of the stream, shuffled: hot ``HOT_REPEATS`` times,
        warm once, one slice of the cold tier and, from the second round
        on (once every hot structure has an entry of its own), the next
        ``REESTIMATES`` re-estimates."""
        size = len(self.cold) // COLD_SLICES
        cold = self.cold[(r % COLD_SLICES) * size:][:size]
        estimates = [self.reestimates[(REESTIMATES * r + j) % len(self.reestimates)]
                     for j in range(REESTIMATES if r else 0)]
        mix = self.hot * HOT_REPEATS + self.warm + cold + estimates
        return [mix[i] for i in rng.permutation(len(mix))]


def working_set(rng: np.random.Generator) -> WorkingSet:
    hot = [_structure(rng, f"h{i}") for i in range(HOT)]
    warm = [_structure(rng, f"w{i}") for i in range(WARM)]
    cold = [_structure(rng, f"k{i}") for i in range(COLD)]
    reestimates = [_perturbed(rng, h, f"{h['id']}v{j}") for j in range(VARIANTS) for h in hot]
    return WorkingSet(hot, warm, cold, reestimates)


# -- sweep-grid ---------------------------------------------------------------

#: Two lockstep k-grids at different node counts (``sweep --engine
#: batched``) and one warm-started chained k-grid (``sweep --engine
#: batched --warm-start --chains``), each over all four topology
#: families, so every seed sweeps the same mix of easy and hard networks;
#: the seed draws the access rates and where each k-grid starts.
SWEEP_POINTS = 16
SWEEP_NODES = (8, 24)
CHAIN_NODES = 12
CHAINS = 4
SWEEP_ALPHA = 0.3
SWEEP_EPSILON = 1e-3
SWEEP_MAX_ITERATIONS = 10_000
SWEEP_FAMILIES = ("ring", "line", "star", "complete")


@dataclass
class Grid:
    """One sweep call: a k-grid over one network."""

    kind: str  # "batched" or "chains"
    nodes: int
    family: str
    mu: float
    rates: np.ndarray
    ks: List[float]

    def problems(self):
        from repro.core.model import FileAllocationProblem
        from repro.network import builders

        topology = getattr(builders, f"{self.family}_graph")(self.nodes)
        return [
            FileAllocationProblem.from_topology(topology, self.rates, k=k, mu=self.mu)
            for k in self.ks
        ]


def sweep_grids(rng: np.random.Generator) -> List[Grid]:
    grids = []
    for family in SWEEP_FAMILIES:
        for kind, nodes in [("batched", SWEEP_NODES[0]), ("batched", SWEEP_NODES[1]),
                            ("chains", CHAIN_NODES)]:
            rates = rng.uniform(0.3, 0.8, size=nodes)
            rates *= 0.9 / rates.sum()
            lo = float(rng.uniform(0.4, 0.6))
            ks = [float(k) for k in np.linspace(lo, lo + 2.0, SWEEP_POINTS)]
            grids.append(Grid(kind, nodes, family, 1.5, rates, ks))
    return grids
