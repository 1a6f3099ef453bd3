"""Queueing substrate: analytic delay models and a validating simulator.

The paper's delay term is the M/M/1 expected sojourn time
``T_i = 1/(mu - lambda x_i)`` at each node (§4), and §5.4 notes that
"alternate queueing models (e.g. M/G/1 queues) can be directly used ...
without affecting the feasibility or monotonicity properties".  This
package provides those models with analytic first and second derivatives
(the algorithm consumes marginals, and Theorem 2's bound consumes second
derivatives), overload-region approximations in the spirit of
Kurose–Singh [26], and an event-driven single-queue simulator used by the
test suite to validate every closed form.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "approximations": ["QuadraticOverloadDelay"],
    "littles_law": ["littles_law_lq", "littles_law_wq"],
    "md1": ["MD1Delay"],
    "mg1": ["MG1Delay"],
    "mm1": ["MM1Delay"],
    "mmc": ["MMcDelay", "erlang_c"],
    "service": [
        "DeterministicService",
        "ErlangService",
        "ExponentialService",
        "HyperexponentialService",
        "ServiceDistribution",
    ],
    "simulation": ["QueueSimulationResult", "simulate_multiserver_queue", "simulate_queue"],
})
