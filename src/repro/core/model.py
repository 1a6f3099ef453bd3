"""The single-copy file allocation model (§4).

A network of ``N`` nodes shares one copy of a divisible file.  Node ``i``
holds the fraction ``x_i`` (``sum x = 1``); because record access is
uniform, ``x_i`` is also the probability an access lands on node ``i``.
Node ``j`` generates Poisson accesses at rate ``lambda_j``; the system-wide
rate is ``lambda = sum_j lambda_j``.  The expected cost of the allocation is

    C(x) = sum_i (C_i + k * T_i(lambda * x_i)) * x_i

where ``C_i = sum_j (lambda_j / lambda) c_ji`` is the traffic-weighted
communication cost of reaching node ``i``, and ``T_i`` is the expected
sojourn time of node ``i``'s access queue (M/M/1 in the paper:
``T_i = 1/(mu - lambda x_i)``).  The utility is ``U = -C``.

:class:`FileAllocationProblem` evaluates ``C``, its gradient and its
(diagonal) Hessian for any delay model from :mod:`repro.queueing`, with
optional per-node service rates (§5.4 notes both generalizations are
direct).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    InfeasibleAllocationError,
    StabilityError,
)
from repro.network.shortest_paths import all_pairs_shortest_paths
from repro.network.topology import Topology
from repro.queueing.mm1 import MM1Delay
from repro.utils.validation import check_positive, check_square_matrix

DelayModelLike = object  # duck-typed: sojourn_time / d_sojourn / d2_sojourn / mu


class FileAllocationProblem:
    """One divisible file over ``N`` nodes: costs, gradients, Hessians.

    Parameters
    ----------
    cost_matrix:
        ``c[j, i]`` = communication cost of node ``j`` making one access to
        node ``i`` (request plus response); the diagonal must be zero.
        For a routed network, build with :meth:`from_topology`.
    access_rates:
        Per-node Poisson access generation rates ``lambda_i`` (>= 0, with a
        positive total).
    k:
        The §4 scaling factor trading delay against communication cost.
    mu:
        Service rate — a scalar (the paper's homogeneous case) or one value
        per node.  Ignored when ``delay_models`` is given.
    delay_models:
        Optional explicit per-node delay models (any objects exposing
        ``sojourn_time`` / ``d_sojourn`` / ``d2_sojourn`` and
        ``max_stable_arrival``); defaults to :class:`MM1Delay` at ``mu``.
    name:
        Optional label used in experiment reports.
    """

    def __init__(
        self,
        cost_matrix: Sequence[Sequence[float]],
        access_rates: Sequence[float],
        *,
        k: float = 1.0,
        mu: Union[float, Sequence[float], None] = None,
        delay_models: Optional[Sequence[DelayModelLike]] = None,
        name: str = "",
    ):
        rates = np.asarray(access_rates, dtype=float)
        if rates.ndim != 1 or rates.size < 2:
            raise ConfigurationError("need access rates for at least two nodes")
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ConfigurationError("access rates must be finite and non-negative")
        n = rates.size
        costs = check_square_matrix(cost_matrix, "cost_matrix", size=n)
        if np.any(np.diag(costs) != 0):
            raise ConfigurationError("cost_matrix diagonal (local access) must be zero")
        if np.any(costs < 0):
            raise ConfigurationError("communication costs must be non-negative")

        self.n = n
        self.name = name or f"fap-{n}"
        self.access_rates = rates
        self.total_rate = float(rates.sum())
        if self.total_rate <= 0:
            raise ConfigurationError("total access rate must be positive")
        self.k = check_positive(k, "k")
        self.cost_matrix = costs
        #: C_i = sum_j (lambda_j / lambda) c_ji  (traffic-weighted access cost).
        self.access_cost = (rates / self.total_rate) @ costs

        if delay_models is not None:
            models = list(delay_models)
            if len(models) != n:
                raise ConfigurationError(
                    f"need {n} delay models, got {len(models)}"
                )
        else:
            if mu is None:
                raise ConfigurationError("provide either mu or delay_models")
            mus = np.asarray(mu, dtype=float)
            if mus.ndim > 1 or mus.size not in (1, n):
                raise ConfigurationError(
                    f"mu must be one number or {n} per-node rates, "
                    f"got shape {mus.shape}"
                )
            mus = np.broadcast_to(mus, (n,))
            for i, m in enumerate(mus):
                check_positive(float(m), f"mu[{i}]")
            models = [MM1Delay(float(m)) for m in mus]
        self.delay_models: List[DelayModelLike] = models
        # Vectorized fast route: when every node runs the plain analytic
        # M/M/1 model (homogeneous or per-node mu), `evaluate` computes
        # T = 1/(mu - a) and its derivatives as closed-form array
        # expressions instead of N Python method calls per pass.  Exotic
        # or subclassed delay models fall back to the object loop.
        if all(type(m) is MM1Delay for m in models):
            self._mm1_mu: Optional[np.ndarray] = np.array(
                [m.mu for m in models], dtype=float
            )
        else:
            self._mm1_mu = None

        # The paper assumes mu > lambda so the whole file can sit anywhere
        # with finite delay.  With an overload-capable model (infinite
        # max_stable_arrival) the restriction is unnecessary.
        for i, model in enumerate(models):
            if self.total_rate >= getattr(model, "max_stable_arrival", np.inf):
                raise ConfigurationError(
                    f"node {i}: total access rate {self.total_rate:g} >= service "
                    f"rate {getattr(model, 'mu', float('nan')):g}; the model requires "
                    "mu > lambda (or use an overload approximation delay model)"
                )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        access_rates: Sequence[float],
        *,
        k: float = 1.0,
        mu: Union[float, Sequence[float], None] = None,
        delay_models: Optional[Sequence[DelayModelLike]] = None,
        name: str = "",
    ) -> "FileAllocationProblem":
        """Build the model with ``c_ij`` = least-cost routed path costs (§6)."""
        problem = cls(
            all_pairs_shortest_paths(topology),
            access_rates,
            k=k,
            mu=mu,
            delay_models=delay_models,
            name=name or topology.name,
        )
        problem.topology = topology
        return problem

    @classmethod
    def paper_network(
        cls,
        *,
        mu: float = 1.5,
        k: float = 1.0,
        total_rate: float = 1.0,
        n: int = 4,
    ) -> "FileAllocationProblem":
        """The §6 experimental setup: an ``n``-node unit-cost ring with equal
        per-node access rates summing to ``total_rate``, mu = 1.5, k = 1."""
        from repro.network.builders import ring_graph

        rates = np.full(n, total_rate / n)
        return cls.from_topology(
            ring_graph(n), rates, k=k, mu=mu, name=f"paper-ring-{n}"
        )

    #: The topology this problem was derived from (None when built from a
    #: raw cost matrix); the distributed runtime uses it for hop-by-hop
    #: message routing.
    topology: Optional[Topology] = None

    # -- feasibility -----------------------------------------------------------

    def check_feasible(self, x: Sequence[float], *, atol: float = 1e-8) -> np.ndarray:
        """Validate ``sum x == 1`` and finite ``x >= 0``; returns the vector."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise InfeasibleAllocationError(
                f"allocation has shape {arr.shape}, expected ({self.n},)"
            )
        low, total = arr.min(), arr.sum()
        # Stated as what must hold, so a NaN (which fails every
        # comparison) is refused rather than let through.
        if low >= -atol and abs(total - 1.0) <= atol:
            return arr
        if not np.isfinite(arr).all():
            raise InfeasibleAllocationError(f"non-finite allocation entries: {arr}")
        if low < -atol:
            raise InfeasibleAllocationError(f"negative allocation entries: min={low}")
        raise InfeasibleAllocationError(f"allocation sums to {total!r}, expected 1")

    # -- evaluation -------------------------------------------------------------

    def node_arrival_rates(self, x: Sequence[float]) -> np.ndarray:
        """``lambda * x_i`` — the access traffic hitting each node."""
        return self.total_rate * np.asarray(x, dtype=float)

    def delays(self, x: Sequence[float]) -> np.ndarray:
        """Expected sojourn time ``T_i`` at each node under allocation ``x``."""
        arrivals = self.node_arrival_rates(x)
        return np.array(
            [m.sojourn_time(float(a)) for m, a in zip(self.delay_models, arrivals)]
        )

    def cost(self, x: Sequence[float]) -> float:
        """System-wide expected access cost ``C(x)`` (eq. 1)."""
        arr = np.asarray(x, dtype=float)
        return float(np.sum((self.access_cost + self.k * self.delays(arr)) * arr))

    def utility(self, x: Sequence[float]) -> float:
        """``U(x) = -C(x)`` (eq. 2)."""
        return -self.cost(x)

    def cost_gradient(self, x: Sequence[float]) -> np.ndarray:
        """``dC/dx_i = C_i + k (T_i + x_i lambda T_i')``.

        For M/M/1 this is the paper's ``C_i + k mu / (mu - lambda x_i)^2``.
        """
        arr = np.asarray(x, dtype=float)
        arrivals = self.total_rate * arr
        t = np.array([m.sojourn_time(float(a)) for m, a in zip(self.delay_models, arrivals)])
        dt = np.array([m.d_sojourn(float(a)) for m, a in zip(self.delay_models, arrivals)])
        return self.access_cost + self.k * (t + arr * self.total_rate * dt)

    def utility_gradient(self, x: Sequence[float]) -> np.ndarray:
        """``dU/dx = -dC/dx`` — the marginal utilities the nodes exchange."""
        return -self.cost_gradient(x)

    def cost_hessian_diag(self, x: Sequence[float]) -> np.ndarray:
        """``d2C/dx_i^2 = k (2 lambda T_i' + x_i lambda^2 T_i'')``.

        Cross-partials are identically zero (each term of ``C`` depends on
        a single ``x_i``), the fact Theorems 2-3 rely on.  For M/M/1 this
        is ``2 k lambda mu / (mu - lambda x_i)^3 >= 0`` — the cost is convex
        on the feasible set.
        """
        arr = np.asarray(x, dtype=float)
        arrivals = self.total_rate * arr
        dt = np.array([m.d_sojourn(float(a)) for m, a in zip(self.delay_models, arrivals)])
        d2t = np.array([m.d2_sojourn(float(a)) for m, a in zip(self.delay_models, arrivals)])
        lam = self.total_rate
        return self.k * (2.0 * lam * dt + arr * lam * lam * d2t)

    # -- fused evaluation (the second-order solver's hot path) -------------------

    @property
    def has_vectorized_evaluate(self) -> bool:
        """Whether :meth:`evaluate` runs the closed-form M/M/1 array route
        (every node is a plain :class:`~repro.queueing.mm1.MM1Delay`)."""
        return self._mm1_mu is not None

    def evaluate(self, x: Sequence[float], *, need_hessian: bool = False):
        """Fused one-pass evaluation: ``(cost, cost_gradient[, hessian_diag])``.

        Computes everything :meth:`cost`, :meth:`cost_gradient` (and, with
        ``need_hessian=True``, :meth:`cost_hessian_diag`) would return, but
        in a single pass sharing the ``1/(mu - lambda x)`` reciprocals —
        the per-iteration hot path of the second-order solver.  On the
        vectorized M/M/1 route there are no per-node Python calls at all;
        other delay models use one object loop instead of the two or three
        the separate methods would make.

        Every returned value is **bit-for-bit identical** to the separate
        methods' results (the parity the §8.2 second-order allocator
        relies on).
        """
        arr = np.asarray(x, dtype=float)
        if self._mm1_mu is not None:
            return self._evaluate_mm1(arr, need_hessian)
        arrivals = self.total_rate * arr
        models = self.delay_models
        t = np.array([m.sojourn_time(float(a)) for m, a in zip(models, arrivals)])
        dt = np.array([m.d_sojourn(float(a)) for m, a in zip(models, arrivals)])
        cost = float(np.sum((self.access_cost + self.k * t) * arr))
        gradient = self.access_cost + self.k * (t + arr * self.total_rate * dt)
        if not need_hessian:
            return cost, gradient
        d2t = np.array([m.d2_sojourn(float(a)) for m, a in zip(models, arrivals)])
        lam = self.total_rate
        hessian = self.k * (2.0 * lam * dt + arr * lam * lam * d2t)
        return cost, gradient, hessian

    def _evaluate_mm1(self, arr: np.ndarray, need_hessian: bool):
        """Closed-form array evaluation for plain M/M/1 nodes.

        Derivative powers are spelled as explicit products so every element
        matches the scalar :class:`~repro.queueing.mm1.MM1Delay` bits (see
        its :meth:`~repro.queueing.mm1.MM1Delay.d_sojourn` note)."""
        arrivals = self.total_rate * arr
        if not np.all(np.isfinite(arrivals)):
            raise StabilityError("arrival rates must be finite")
        gap = self._mm1_mu - arrivals
        if np.any(gap <= 0):
            i = int(np.argmax(gap <= 0))
            raise StabilityError(
                f"M/M/1 unstable: arrival rate {arrivals[i]:g} >= "
                f"service rate {self._mm1_mu[i]:g}"
            )
        t = 1.0 / gap
        dt = 1.0 / (gap * gap)
        cost = float(np.sum((self.access_cost + self.k * t) * arr))
        gradient = self.access_cost + self.k * (t + arr * self.total_rate * dt)
        if not need_hessian:
            return cost, gradient
        lam = self.total_rate
        d2t = 2.0 / (gap * gap * gap)
        hessian = self.k * (2.0 * lam * dt + arr * lam * lam * d2t)
        return cost, gradient, hessian

    # -- batched view (lockstep evaluation over many instances) ------------------

    def mm1_service_rates(self) -> np.ndarray:
        """Per-node service rates when every delay model is the plain
        analytic :class:`~repro.queueing.mm1.MM1Delay` — the contract the
        batched ``(B, N)`` kernel in :mod:`repro.parallel` relies on.

        The batched path evaluates ``T = 1/(mu - a)`` and its derivatives
        as closed-form array expressions, so it is only exact for the
        unmodified M/M/1 model; any other (or subclassed) delay model must
        go through the serial per-model dispatch.  Raises
        :class:`~repro.exceptions.ConfigurationError` otherwise.
        """
        for i, model in enumerate(self.delay_models):
            if type(model) is not MM1Delay:
                raise ConfigurationError(
                    f"node {i} uses {type(model).__name__}; batched evaluation "
                    "requires plain MM1Delay at every node (use the serial "
                    "DecentralizedAllocator for other delay models)"
                )
        return np.array([m.mu for m in self.delay_models], dtype=float)

    # -- per-node view (what a *node* can compute locally) ----------------------

    def node_marginal_utility(self, node: int, x_i: float) -> float:
        """Marginal utility as node ``node`` computes it from purely local
        state (its ``C_i``, ``k``, ``lambda`` and its own ``x_i``) — the
        algorithm's informational decentralization in one method."""
        model = self.delay_models[node]
        a = self.total_rate * float(x_i)
        t = model.sojourn_time(a)
        dt = model.d_sojourn(a)
        return -(self.access_cost[node] + self.k * (t + float(x_i) * self.total_rate * dt))

    def __repr__(self) -> str:
        return (
            f"FileAllocationProblem(name={self.name!r}, n={self.n}, "
            f"lambda={self.total_rate:g}, k={self.k:g})"
        )
