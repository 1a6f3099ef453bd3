"""Microeconomic resource-allocation framework (§2 of the paper).

Mathematical economics offers two broad families of decentralized
allocation mechanisms for pure exchange economies:

* **resource-directed** (Heal [15], [18]; Ho–Servi–Suri [20]): agents
  report marginal utilities, and the allocation itself moves toward agents
  with above-average marginals.  Feasible at every step, monotone in social
  utility — this is the family the paper's FAP algorithm belongs to and
  :class:`~repro.economics.resource_directed.ResourceDirectedPlanner` is
  the generic engine;
* **price-directed** (Walrasian tâtonnement [3], [22]): a price adjusts
  until demand equals supply.  Feasible *only at convergence* and not
  monotone — implemented in
  :class:`~repro.economics.price_directed.PriceDirectedPlanner` as the
  §2 comparison baseline.

The generic planners work over :class:`~repro.economics.agents.Agent`
objects with scalar concave utilities; the FAP core in :mod:`repro.core`
is an independent vectorized implementation, and the test suite verifies
the two produce identical allocations on the paper's model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "agents": ["Agent", "CallableAgent", "QuadraticAgent"],
    "lemma": ["heal_lemma_identity", "heal_lemma_lhs"],
    "pareto": ["is_pareto_optimal"],
    "price_directed": ["PriceDirectedPlanner", "TatonnementResult"],
    "production": ["CobbDouglasSector", "ProductionPlanResult", "ProductionPlanner", "Sector"],
    "resource_directed": ["PlannerResult", "ResourceDirectedPlanner"],
})
