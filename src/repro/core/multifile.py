"""Multiple distinct files (§5.4).

With ``M`` files, ``x[f, i]`` is the fraction of file ``f`` held at node
``i`` (each file sums to one copy), ``lambda^f`` is file ``f``'s network
access rate, and the cost couples the files through queueing contention at
shared nodes:

    C = sum_i [ sum_f C_i^f x[f,i]  +  k * T_i(a_i) * s_i ],
    a_i = sum_f lambda^f x[f,i]   (total access traffic hitting node i),
    s_i = sum_f x[f,i]            (total file mass at node i)

— the paper's extended utility, which "includes the effects of simultaneous
accesses to different files stored at the same location, a real-world
resource contention phenomenon typically not considered in most FAP
formulations".

The algorithm runs the §5.2 update *per file* (each file's deviations from
its own average sum to zero, so per-file feasibility is an invariant).
Unlike the single-file case the objective is not jointly convex in the full
``(M, N)`` variable (the contention term ``s_i T(a_i)`` has an indefinite
Hessian block), and simultaneous cross-file steps are not covered by
Theorem 2; :class:`MultiFileAllocator` therefore carries an optional
cost-decrease safeguard (on by default) that halves the step when a joint
move would increase the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.active_set import ScaledStep
from repro.exceptions import ConfigurationError, ConvergenceError, InfeasibleAllocationError
from repro.obs.registry import MetricsRegistry, maybe_timer
from repro.queueing.mm1 import MM1Delay
from repro.utils.numeric import spread
from repro.utils.validation import check_positive, check_square_matrix


class MultiFileProblem:
    """``M`` files over ``N`` nodes with shared queueing contention.

    Parameters
    ----------
    cost_matrix:
        ``c[j, i]`` pairwise access costs, shared by all files.
    access_rates:
        ``(M, N)`` array; ``access_rates[f, j]`` is node ``j``'s Poisson
        access rate to file ``f``.
    k:
        Delay/communication trade-off factor.
    mu:
        Scalar or per-node service rates (each node serves accesses to
        every file it holds from one queue — that is the contention).
    delay_models:
        Optional explicit per-node delay models, as in the single-file model.
    """

    def __init__(
        self,
        cost_matrix: Sequence[Sequence[float]],
        access_rates: Sequence[Sequence[float]],
        *,
        k: float = 1.0,
        mu: Union[float, Sequence[float], None] = None,
        delay_models: Optional[Sequence[object]] = None,
        name: str = "",
    ):
        rates = np.asarray(access_rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] < 2:
            raise ConfigurationError(
                f"access_rates must be (M >= 1, N >= 2), got shape {rates.shape}"
            )
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ConfigurationError("access rates must be finite and non-negative")
        self.m, self.n = rates.shape
        self.name = name or f"multifap-{self.m}x{self.n}"
        costs = check_square_matrix(cost_matrix, "cost_matrix", size=self.n)
        if np.any(np.diag(costs) != 0) or np.any(costs < 0):
            raise ConfigurationError(
                "cost_matrix needs a zero diagonal and non-negative entries"
            )
        self.cost_matrix = costs
        self.access_rates = rates
        #: lambda^f — network-wide access rate per file.
        self.file_rates = rates.sum(axis=1)
        if np.any(self.file_rates <= 0):
            raise ConfigurationError("every file needs a positive total access rate")
        self.k = check_positive(k, "k")
        #: C^f_i = sum_j (rates[f, j] / lambda^f) c_ji — per-file weighted
        #: access cost of reaching node i.
        self.access_cost = (rates / self.file_rates[:, None]) @ costs

        if delay_models is not None:
            models = list(delay_models)
            if len(models) != self.n:
                raise ConfigurationError(f"need {self.n} delay models, got {len(models)}")
        else:
            if mu is None:
                raise ConfigurationError("provide either mu or delay_models")
            mus = np.broadcast_to(np.asarray(mu, dtype=float), (self.n,)).copy()
            for i, m_i in enumerate(mus):
                check_positive(float(m_i), f"mu[{i}]")
            models = [MM1Delay(float(m_i)) for m_i in mus]
        self.delay_models: List[object] = models

    # -- feasibility -----------------------------------------------------------

    def check_feasible(self, x, *, atol: float = 1e-8) -> np.ndarray:
        """Each file's shares are finite, non-negative and sum to one."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.m, self.n):
            raise InfeasibleAllocationError(
                f"allocation has shape {arr.shape}, expected ({self.m}, {self.n})"
            )
        low, sums = arr.min(), arr.sum(axis=1)
        # Stated as what must hold, so a NaN (which fails every
        # comparison) is refused rather than let through.
        if low >= -atol and np.all(np.abs(sums - 1.0) <= atol):
            return arr
        if not np.isfinite(arr).all():
            raise InfeasibleAllocationError(f"non-finite shares: {arr}")
        if low < -atol:
            raise InfeasibleAllocationError(f"negative shares: min={low}")
        raise InfeasibleAllocationError(f"per-file sums are {sums}, expected all 1")

    # -- evaluation --------------------------------------------------------------

    def node_arrivals(self, x) -> np.ndarray:
        """``a_i = sum_f lambda^f x[f, i]``."""
        arr = np.asarray(x, dtype=float)
        return self.file_rates @ arr

    def cost(self, x) -> float:
        arr = np.asarray(x, dtype=float)
        a = self.node_arrivals(arr)
        s = arr.sum(axis=0)
        t = np.array([m.sojourn_time(float(ai)) for m, ai in zip(self.delay_models, a)])
        comm = float(np.sum(self.access_cost * arr))
        return comm + self.k * float(np.sum(t * s))

    def utility(self, x) -> float:
        return -self.cost(x)

    def cost_gradient(self, x) -> np.ndarray:
        """``dC/dx[f, i] = C^f_i + k (T(a_i) + lambda^f T'(a_i) s_i)``."""
        arr = np.asarray(x, dtype=float)
        a = self.node_arrivals(arr)
        s = arr.sum(axis=0)
        t = np.array([m.sojourn_time(float(ai)) for m, ai in zip(self.delay_models, a)])
        dt = np.array([m.d_sojourn(float(ai)) for m, ai in zip(self.delay_models, a)])
        return self.access_cost + self.k * (
            t[None, :] + self.file_rates[:, None] * dt[None, :] * s[None, :]
        )

    def utility_gradient(self, x) -> np.ndarray:
        return -self.cost_gradient(x)

    def single_file_view(self, f: int) -> "MultiFileProblem":
        """A one-file sub-problem for file ``f`` (no contention coupling) —
        useful for sanity checks against the single-file model."""
        if not 0 <= f < self.m:
            raise ConfigurationError(f"file index {f} out of range")
        return MultiFileProblem(
            self.cost_matrix,
            self.access_rates[f : f + 1],
            k=self.k,
            delay_models=self.delay_models,
            name=f"{self.name}[file {f}]",
        )

    def __repr__(self) -> str:
        return f"MultiFileProblem(name={self.name!r}, files={self.m}, nodes={self.n})"


@dataclass
class MultiFileResult:
    """Outcome of a multi-file allocation run."""

    allocation: np.ndarray
    cost: float
    iterations: int
    converged: bool
    cost_history: List[float] = field(default_factory=list)
    spread_history: List[float] = field(default_factory=list)


class MultiFileAllocator:
    """Per-file §5.2 updates with a joint cost-decrease safeguard.

    Parameters
    ----------
    problem:
        The :class:`MultiFileProblem`.
    alpha:
        Fixed stepsize applied to every file's update.
    epsilon:
        Stop when every file's marginal-utility spread falls below this.
    safeguard:
        When True (default), a joint step that would *increase* the cost is
        halved (up to ``max_halvings`` times) before being applied —
        restoring in practice the monotonicity that Theorem 2 only
        guarantees file-by-file.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        attached the run tallies iterations, safeguard α-halvings, and
        per-file spread progress.  Observational only.
    """

    def __init__(
        self,
        problem: MultiFileProblem,
        *,
        alpha: float = 0.1,
        epsilon: float = 1e-3,
        safeguard: bool = True,
        max_halvings: int = 30,
        max_iterations: int = 100_000,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.problem = problem
        self.alpha = check_positive(alpha, "alpha")
        self.epsilon = check_positive(epsilon, "epsilon")
        self.safeguard = safeguard
        self.max_halvings = int(max_halvings)
        self.max_iterations = int(max_iterations)
        self.registry = registry
        self._policy = ScaledStep()

    def _raw_step(self, x: np.ndarray, alpha: float) -> np.ndarray:
        g = self.problem.utility_gradient(x)
        dx = np.zeros_like(x)
        for f in range(self.problem.m):
            dx[f], _ = self._policy.apply(x[f], g[f], alpha)
        return dx

    def spreads(self, x: np.ndarray) -> np.ndarray:
        """Per-file marginal-utility spread over each file's *active set*.

        As in the single-file algorithm, the convergence statistic ignores
        boundary nodes pinned at zero whose marginal utility is below the
        active average — KKT allows them to stay worse (§5.3).
        """
        g = self.problem.utility_gradient(x)
        out = np.empty(self.problem.m)
        for f in range(self.problem.m):
            _, mask = self._policy.apply(x[f], g[f], self.alpha)
            out[f] = spread(g[f][mask])
        return out

    def run(
        self,
        initial_allocation,
        *,
        raise_on_failure: bool = False,
    ) -> MultiFileResult:
        """Iterate from a feasible ``(M, N)`` start until every file's
        marginals agree within epsilon."""
        x = self.problem.check_feasible(initial_allocation).copy()
        reg = self.registry
        cost = self.problem.cost(x)
        cost_history = [cost]
        spread_history = [float(self.spreads(x).max())]
        iteration = 0
        with maybe_timer(reg, "multifile.run_seconds"):
            while spread_history[-1] >= self.epsilon and iteration < self.max_iterations:
                iteration += 1
                alpha = self.alpha
                dx = self._raw_step(x, alpha)
                if self.safeguard:
                    for _ in range(self.max_halvings):
                        trial_cost = self.problem.cost(np.maximum(x + dx, 0.0))
                        if trial_cost <= cost:
                            break
                        alpha *= 0.5
                        dx = self._raw_step(x, alpha)
                        if reg is not None:
                            reg.counter_inc("multifile.alpha_halvings")
                x = np.maximum(x + dx, 0.0)
                cost = self.problem.cost(x)
                cost_history.append(cost)
                spread_history.append(float(self.spreads(x).max()))
                if reg is not None:
                    reg.counter_inc("multifile.iterations")
                    reg.observe("multifile.alpha", alpha)
                    reg.event(
                        "multifile_iteration",
                        i=iteration,
                        cost=cost,
                        spread=spread_history[-1],
                        alpha=alpha,
                    )
        converged = spread_history[-1] < self.epsilon
        if reg is not None:
            reg.gauge_set("multifile.final_cost", cost)
            reg.gauge_set("multifile.converged", float(converged))
            reg.gauge_set("multifile.files", self.problem.m)
            per_file = self.spreads(x)
            for f in range(self.problem.m):
                reg.gauge_set(f"multifile.spread.file_{f}", float(per_file[f]))
        if not converged and raise_on_failure:
            raise ConvergenceError(
                f"multi-file allocator: no convergence in {self.max_iterations} iterations",
                iterations=iteration,
            )
        return MultiFileResult(
            allocation=x,
            cost=cost,
            iterations=iteration,
            converged=converged,
            cost_history=cost_history,
            spread_history=spread_history,
        )

    def __repr__(self) -> str:
        return f"MultiFileAllocator(problem={self.problem.name!r}, alpha={self.alpha:g})"
