"""Discrete-event distributed runtime.

The algorithm of §5 is *decentralized*: each iteration is a local marginal
computation followed by a communication round among the file's users.  This
package executes exactly that protocol over a simulated store-and-forward
network, instead of just evaluating the mathematics centrally:

* :mod:`simulator` — the event-calendar engine;
* :mod:`messages` — the wire types (marginal reports, averages, accesses);
* :mod:`node` — node processes computing marginals from local state only;
* :mod:`protocols` — the §5.1 coordination alternatives: all-to-all
  broadcast vs a designated central agent, with message/hop accounting;
* :mod:`runtime` — drives full runs and is verified to produce *bit-equal*
  allocations to the centralized math engine;
* :mod:`access_traffic` — Poisson file accesses against a live allocation,
  measuring empirical delay and communication cost (validates the cost
  model the optimizer trusts);
* :mod:`failures` — node-failure injection for the §4 graceful-degradation
  claim.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "access_traffic": ["TrafficStats", "simulate_access_traffic"],
    "failover": ["FailoverRunResult", "degraded_subproblem", "run_with_failure"],
    "failures": ["FailureImpact", "failure_impact"],
    "messages": [
        "AccessRequest",
        "AccessResponse",
        "AverageAnnouncement",
        "MarginalReport",
        "Message",
    ],
    "metrics": ["MessageStats"],
    "multicopy_runtime": ["MultiCopyDistributedResult", "MultiCopyDistributedRuntime"],
    "protocols": ["BroadcastProtocol", "CentralCoordinatorProtocol", "FloodingProtocol"],
    "runtime": ["DistributedFapRuntime", "DistributedRunResult"],
    "simulator": ["Simulator"],
})
