"""The vectorized batched kernel: B independent FAPs solved in lockstep.

The Kurose–Simha iteration ``dx_i = alpha (dU/dx_i - avg_A)`` couples the
nodes of one problem but never couples two *problems* — a parameter sweep
is B completely independent trajectories.  :class:`BatchedAllocator`
exploits that: it stores the whole batch as ``(B, N)`` arrays and performs
every step of the §5.2 algorithm — gradient, active-set masking, stepsize
bounding, termination — as row-wise array operations.  Converged rows
freeze while the batch runs until every row has converged or the iteration
budget is spent.

**One row-step.**  Both drivers (the lockstep :class:`BatchedAllocator`
and :class:`~repro.parallel.continuous.ContinuousBatcher`) advance a row
the same way: one ``mu - lambda x`` per row, checked for stability once;
the gradient (and the cost, when it is read) derived from it; the
active-set pin loop run only for rows that pin a node; and ``x + dx``
formed once and kept as the next iterate.  The lockstep driver keeps its
live rows packed and copies only when a row freezes.

**Bit-for-bit parity.**  The kernel is written so each row reproduces the
serial :class:`~repro.core.algorithm.DecentralizedAllocator` exactly —
same iterates, same active sets, same iteration counts — not merely to
tolerance.  Three details make that work:

* every per-row expression keeps the serial code's operation order
  (IEEE-754 arithmetic is commutative but not associative);
* row reductions (``np.add.reduce`` along ``axis=1`` of a C-contiguous
  block) use NumPy's pairwise summation over the same element count as
  the serial 1-D reductions, so the summation trees coincide;
* masked means over a *partial* active set are taken on the compacted
  ``g[mask]`` entries — exactly what the serial policy does — because
  summing a zero-padded row would change the pairwise grouping.  Rows
  with the same active count ``m`` are reduced together as one
  ``(rows, m)`` block.  Partial masks are common: they appear whenever a
  boundary node is pinned, which on warm-started and skewed-start sweeps
  is most steps.

``tests/test_parallel.py`` asserts the parity property on seeded random
problems, including active-set-shrinking trajectories and batches whose
pin rounds hold rows of several active counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.algorithm import AllocationResult
from repro.core.model import FileAllocationProblem
from repro.core.stepsize import DynamicStep
from repro.core.trace import IterationRecord, Trace
from repro.exceptions import ConfigurationError, StabilityError
from repro.obs.registry import MetricsRegistry, maybe_timer
from repro.utils.validation import check_positive

#: The serial ScaledStep's boundary tolerance, mirrored exactly.
_ZERO_TOL = 1e-12


class BatchedProblem:
    """B equal-size M/M/1 FAP instances stacked into ``(B, N)`` arrays.

    Build with :meth:`from_problems` (heterogeneous instances of one size)
    or :meth:`replicate` (one instance repeated B times, e.g. to sweep the
    stepsize).  Only the plain analytic M/M/1 delay model is supported —
    the vectorized kernel evaluates ``T = 1/(mu - a)`` in closed form (see
    :meth:`~repro.core.model.FileAllocationProblem.mm1_service_rates`).

    Every evaluation method takes an ``(R, N)`` allocation block and a
    matching ``rows`` selector (bool mask or index array over the batch),
    so a caller can evaluate only some rows; row ``r`` of the output is
    bit-identical to ``problems[r]``'s serial evaluation.  The drivers
    step through :meth:`_rows`, which packs the selected rows' constants
    once and derives gradient and cost from a single ``mu - lambda x``.
    """

    def __init__(self, problems: Sequence[FileAllocationProblem]):
        problems = list(problems)
        if not problems:
            raise ConfigurationError("need at least one problem to batch")
        n = problems[0].n
        for p in problems:
            if p.n != n:
                raise ConfigurationError(
                    f"all problems in a batch must have equal size; "
                    f"got n={n} and n={p.n}"
                )
        self.problems: List[FileAllocationProblem] = problems
        self.batch_size = len(problems)
        self.n = n
        #: ``(B, N)`` traffic-weighted access costs C_i per row.
        self.access_cost = np.stack([p.access_cost for p in problems])
        #: ``(B, N)`` per-node M/M/1 service rates.
        self.mu = np.stack([p.mm1_service_rates() for p in problems])
        #: ``(B, 1)`` delay/communication trade-off k per row.
        self.k = np.array([[p.k] for p in problems], dtype=float)
        #: ``(B, 1)`` total access rate lambda per row.
        self.total_rate = np.array([[p.total_rate] for p in problems], dtype=float)

    @classmethod
    def from_problems(cls, problems: Sequence[FileAllocationProblem]) -> "BatchedProblem":
        """Stack heterogeneous equal-size problems into one batch."""
        return cls(problems)

    @classmethod
    def replicate(cls, problem: FileAllocationProblem, batch_size: int) -> "BatchedProblem":
        """One problem repeated ``batch_size`` times (per-row alpha sweeps)."""
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        return cls([problem] * batch_size)

    def set_row(self, r: int, problem: FileAllocationProblem) -> None:
        """Replace slot ``r``'s problem in place.

        The continuous batcher retires converged rows and admits new
        problems into the freed slots mid-flight; this writes one row of
        every stacked array without touching the others (whose in-flight
        iterates must stay bit-identical).
        """
        if problem.n != self.n:
            raise ConfigurationError(
                f"slot problems must have n={self.n}, got n={problem.n}"
            )
        mu = problem.mm1_service_rates()
        self.problems[r] = problem
        self.access_cost[r] = problem.access_cost
        self.mu[r] = mu
        self.k[r, 0] = problem.k
        self.total_rate[r, 0] = problem.total_rate

    def _rows(self, sel=slice(None)) -> "_Rows":
        """The per-row constants of the selected rows, packed (views for a
        slice, copies for an index array or mask)."""
        return _Rows(self.access_cost[sel], self.k[sel], self.mu[sel], self.total_rate[sel])

    # -- batched evaluation ----------------------------------------------------

    def _checked(self, x: np.ndarray, rows):
        """The selected rows' constants with their ``(lambda x, mu -
        lambda x)``; raises the serial engine's StabilityError instead of
        returning an unstable evaluation."""
        constants = self._rows(rows)
        arrivals, gap = constants.gaps(x)
        if not _stable(gap):
            raise _instability(arrivals, gap)
        return constants, arrivals, gap

    def cost(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``(R,)`` expected access costs — eq. 1 per selected row."""
        constants, _, gap = self._checked(x, rows)
        return constants.cost(x, 1.0 / gap)

    def utility_gradient(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``(R, N)`` marginal utilities ``dU/dx`` per selected row."""
        constants, arrivals, gap = self._checked(x, rows)
        return constants.gradient(arrivals, gap)[0]

    def cost_hessian_diag(self, x: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``(R, N)`` diagonal Hessians ``d2C/dx_i^2`` per selected row."""
        constants, arrivals, gap = self._checked(x, rows)
        return constants.hessian_diag(arrivals, gap)

    def __repr__(self) -> str:
        return f"BatchedProblem(batch_size={self.batch_size}, n={self.n})"


class _Rows:
    """The per-row constants of some batch rows, packed: everything one
    row-step reads besides the iterate.

    Every method works from one ``(lambda x, mu - lambda x)`` pair per
    row-step (:meth:`gaps`), so a step evaluates the gap once and derives
    the gradient, the stability verdict and, where it is read, the cost
    from it.
    """

    __slots__ = ("access_cost", "k", "mu", "total_rate")

    def __init__(self, access_cost, k, mu, total_rate):
        self.access_cost = access_cost  #: ``(R, N)`` C_i.
        self.k = k  #: ``(R, 1)``.
        self.mu = mu  #: ``(R, N)`` service rates.
        self.total_rate = total_rate  #: ``(R, 1)`` lambda.

    def take(self, keep) -> "_Rows":
        """The rows selected by ``keep`` (index array or bool mask)."""
        return _Rows(self.access_cost[keep], self.k[keep], self.mu[keep], self.total_rate[keep])

    def gaps(self, x: np.ndarray):
        """``(lambda x, mu - lambda x)``, unchecked (see :func:`_stable`)."""
        arrivals = self.total_rate * x
        return arrivals, self.mu - arrivals

    def gradient(self, arrivals: np.ndarray, gap: np.ndarray):
        """``(dU/dx, T)`` with ``T = 1/(mu - lambda x)``, the sojourn times
        :meth:`cost` reads.  ``lambda x`` stands in for the serial
        ``x * lambda`` (multiplication commutes bit for bit)."""
        t = 1.0 / gap
        dt = 1.0 / (gap * gap)
        return -(self.access_cost + self.k * (t + arrivals * dt)), t

    def cost(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``(R,)`` eq. 1 costs from the sojourn times ``t``."""
        return np.add.reduce((self.access_cost + self.k * t) * x, axis=1)

    def hessian_diag(self, arrivals: np.ndarray, gap: np.ndarray) -> np.ndarray:
        # Product form, not ``gap**p``: numpy's pow and the scalar MM1Delay
        # derivatives can disagree by one ulp, which would break the
        # bit-for-bit serial parity contract (see MM1Delay.d_sojourn).
        dt = 1.0 / (gap * gap)
        d2t = 2.0 / (gap * gap * gap)
        lam = self.total_rate
        return self.k * (2.0 * lam * dt + arrivals * lam * d2t)


def _stable(gap: np.ndarray) -> bool:
    """Whether every ``mu - lambda x`` is finite and positive — the serial
    check (finite arrival rates, positive gaps), since ``mu`` is finite."""
    return bool(gap.min() > 0 and gap.max() < np.inf)


def _stable_rows(gap: np.ndarray) -> np.ndarray:
    """Per-row :func:`_stable`: the continuous batcher's fault mask."""
    return ((gap > 0) & (gap < np.inf)).all(axis=1)


def _instability(arrivals: np.ndarray, gap: np.ndarray, row_ids=None) -> StabilityError:
    """The serial engine's error for an evaluation :func:`_stable` rejects;
    ``row_ids`` maps packed rows back to batch rows."""
    if not np.all(np.isfinite(arrivals)):
        return StabilityError("arrival rates must be finite")
    row, node = np.argwhere(~(gap > 0))[0]
    if row_ids is not None:
        row = row_ids[row]
    return StabilityError(
        f"M/M/1 unstable in batch (row {row}, node {node}): "
        "arrival rate >= service rate"
    )


def _masked_means(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row mean of ``g`` over ``mask``, bit for bit ``g[r, mask[r]].mean()``.

    ``g[mask]`` compacts the active entries row after row.  Rows with the
    same active count ``m`` (grouped by one stable sort when they are not
    already in order) then form one contiguous ``(rows, m)`` block, whose
    row reduction builds the same pairwise summation tree as the 1-D
    mean of each row.  Rows with no active entry get 0.
    """
    counts = np.add.reduce(mask, axis=1).tolist()
    order = None
    if counts != sorted(counts):
        order = sorted(range(len(counts)), key=counts.__getitem__)
        g, mask = g[order], mask[order]
        counts.sort()
    values = g[mask]
    blocks = []
    start = 0
    for m, run in groupby(counts):
        rows = len(list(run))
        stop = start + rows * m
        # An empty (rows, 0) block sums to 0; dividing by 1 keeps it 0.
        blocks.append(np.add.reduce(values[start:stop].reshape(rows, m), axis=1) / max(m, 1))
        start = stop
    means = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if order is None:
        return means
    out = np.empty_like(means)
    out[order] = means
    return out


def _scaled_step(x: np.ndarray, g: np.ndarray, a: np.ndarray):
    """The :class:`~repro.core.active_set.ScaledStep` policy over a batch.

    ``a`` is the ``(R, 1)`` stepsize column.  Returns ``(dx, x + dx,
    mask)``; ``mask`` is ``None`` when no node was pinned (every row
    fully active).  Row ``r`` of ``dx`` is bit-for-bit what
    ``ScaledStep().apply(x[r], g[r], a[r, 0])`` returns.
    """
    n = g.shape[1]
    dx = a * (g - (np.add.reduce(g, axis=1) / n)[:, None])
    mask = None
    # Pin boundary nodes that want to shrink further (the serial pin loop).
    # A row that pins nothing keeps its step, so from the second round on
    # only the rows that pinned a node in the round before are rerun.
    # (An inactive node's step is exactly 0, so ``step < 0`` already
    # implies it is active.)
    boundary = x <= _ZERO_TOL
    if boundary.any():
        pinned = boundary & (dx < 0)
        hit = pinned.any(axis=1)
        if np.count_nonzero(hit):
            mask = np.ones(g.shape, dtype=bool)
            rows = hit.nonzero()[0]
            gr, br, ar = g[rows], boundary[rows], a[rows]
            pinned = pinned[rows]
            active = np.ones(pinned.shape, dtype=bool)
            for _ in range(n):
                active[pinned] = False
                step = np.where(
                    active, ar * (gr - _masked_means(gr, active)[:, None]), 0.0
                )
                dx[rows] = step
                mask[rows] = active
                pinned = br & (step < 0)
                hit = pinned.any(axis=1)
                still = np.count_nonzero(hit)
                if not still:
                    break
                if still < len(rows):
                    rows, gr, br, ar = rows[hit], gr[hit], br[hit], ar[hit]
                    active, pinned = active[hit], pinned[hit]
    # Uniformly shrink violating rows so the worst donor lands exactly at 0,
    # then absorb any -1e-18 round-off residue into the largest gainer.
    # (np.fmin skips NaN, so one row's NaN cannot hide another's violation.)
    x_next = x + dx
    if np.fmin.reduce(x_next, axis=None) < 0:
        rows = np.flatnonzero((x_next < 0).any(axis=1))
        xr, dr = x[rows], dx[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = np.where(dr < 0, xr / np.maximum(-dr, 1e-300), np.inf)
        dr = dr * np.minimum(1.0, factors.min(axis=1))[:, None]
        xr_next = xr + dr
        overshoot = np.minimum(xr_next, 0.0)
        for i in np.flatnonzero((overshoot < 0).any(axis=1)):
            dr[i] = dr[i] - overshoot[i]
            dr[i, int(np.argmax(dr[i]))] += overshoot[i].sum()
            xr_next[i] = xr[i] + dr[i]
        dx[rows] = dr
        x_next[rows] = xr_next
    return dx, x_next, mask


def batched_scaled_step(
    x: np.ndarray, utility_gradient: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The :class:`~repro.core.active_set.ScaledStep` policy over a batch.

    Returns ``(dx, active_mask)`` of shape ``(R, N)``; row ``r`` is
    bit-for-bit what ``ScaledStep().apply(x[r], g[r], alpha[r])`` returns.
    """
    a = np.asarray(alpha, dtype=float)[:, None]
    dx, _, mask = _scaled_step(x, utility_gradient, a)
    if mask is None:
        mask = np.ones(x.shape, dtype=bool)
    return dx, mask


def _checked_update(
    x: np.ndarray,
    new_x: np.ndarray,
    *,
    validate: bool,
    registry: Optional[MetricsRegistry],
) -> np.ndarray:
    """:func:`batched_apply` on an update already formed as ``new_x``
    (which it may edit in place and returns)."""
    if not validate:
        return new_x
    # NaN-skipping reductions (np.fmax, np.fmin): one row's NaN must not
    # hide another row's violation.  The min gates the negativity checks.
    drift = np.abs(np.add.reduce(new_x, axis=1) - np.add.reduce(x, axis=1))
    if np.fmax.reduce(drift) > 1e-9:
        r = int(np.argmax(drift))
        raise AssertionError(
            f"feasibility broken in batch row {r}: sum moved from "
            f"{x[r].sum()!r} to {new_x[r].sum()!r}"
        )
    if not np.fmin.reduce(new_x, axis=None) < 0.0:
        return new_x
    if np.any(new_x < -1e-9):
        r = int(np.argwhere(new_x < -1e-9)[0, 0])
        raise AssertionError(
            f"negative allocation in batch row {r}: min={new_x[r].min()!r}"
        )
    for r in np.flatnonzero((new_x < 0.0).any(axis=1)):
        row = new_x[r]
        negative = row < 0.0
        target_sum = float(row.sum())
        clamped = float(-row[negative].sum())
        row[negative] = 0.0
        positive = row > 0.0
        total = float(row[positive].sum())
        if total > 0.0:
            row[positive] -= clamped * (row[positive] / total)
            row[int(np.argmax(row))] -= row.sum() - target_sum
        if registry is not None:
            registry.counter_inc("batched.clamp_events")
            registry.counter_inc("batched.clamped_mass", clamped)
    return new_x


def batched_apply(
    x: np.ndarray,
    dx: np.ndarray,
    *,
    validate: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> np.ndarray:
    """Row-wise mirror of the serial ``DecentralizedAllocator._apply``:
    Theorem-1 feasibility asserts plus pro-rata clamp redistribution of
    sub-1e-9 round-off residue (rare; handled per affected row with the
    serial scalar arithmetic).  Shared by the lockstep and continuous
    drivers so both apply exactly the serial update."""
    return _checked_update(x, x + dx, validate=validate, registry=registry)


def _masked_spread(g: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Per-row ``max - min`` of ``g`` over ``mask`` (0 for empty rows;
    ``mask=None`` means every node is active)."""
    if mask is None:
        return np.maximum.reduce(g, axis=1) - np.minimum.reduce(g, axis=1)
    hi = np.where(mask, g, -np.inf).max(axis=1)
    lo = np.where(mask, g, np.inf).min(axis=1)
    out = hi - lo
    out[~mask.any(axis=1)] = 0.0
    return out


@dataclass
class BatchedResult:
    """Outcome of a :class:`BatchedAllocator` run: per-row final state plus
    (when ``keep_history=True``) the full per-iteration history needed to
    reconstruct serial-equivalent traces."""

    allocations: np.ndarray  #: ``(B, N)`` final allocations.
    costs: np.ndarray  #: ``(B,)`` final costs.
    iterations: np.ndarray  #: ``(B,)`` steps applied per row.
    converged: np.ndarray  #: ``(B,)`` bool.
    #: ``(B,)`` active-set sizes at the final iterates.
    active_counts: np.ndarray
    #: ``(B,)`` gradient spreads over the final active sets.
    spreads: np.ndarray
    #: Per-iteration history (present only with ``keep_history=True``).
    #: ``history_allocations[t][r]`` is row ``r``'s allocation after ``t``
    #: steps; once a row freezes, later entries repeat its final state.
    history_allocations: Optional[List[np.ndarray]] = None
    history_masks: Optional[List[np.ndarray]] = None
    history_costs: Optional[List[np.ndarray]] = None
    history_spreads: Optional[List[np.ndarray]] = None
    history_alphas: Optional[List[np.ndarray]] = None

    @property
    def batch_size(self) -> int:
        return self.allocations.shape[0]

    def row(self, r: int) -> AllocationResult:
        """Row ``r`` as a serial-shaped :class:`AllocationResult`.

        With history retained the trace contains one record per iteration
        the row was live — exactly the serial allocator's trace; without
        it the trace holds only the final record (its ``alpha`` is NaN:
        stepsizes are kept only with history).
        """
        trace = Trace()
        its = int(self.iterations[r])
        if self.history_allocations is not None:
            for t in range(its + 1):
                trace.append(
                    IterationRecord(
                        iteration=t,
                        allocation=self.history_allocations[t][r].copy(),
                        cost=float(self.history_costs[t][r]),
                        utility=-float(self.history_costs[t][r]),
                        gradient_spread=float(self.history_spreads[t][r]),
                        alpha=float(self.history_alphas[t][r]),
                        active_count=int(self.history_masks[t][r].sum()),
                    )
                )
        else:
            trace.append(
                IterationRecord(
                    iteration=its,
                    allocation=self.allocations[r].copy(),
                    cost=float(self.costs[r]),
                    utility=-float(self.costs[r]),
                    gradient_spread=float(self.spreads[r]),
                    alpha=float("nan"),
                    active_count=int(self.active_counts[r]),
                )
            )
        return AllocationResult(
            allocation=self.allocations[r].copy(),
            cost=float(self.costs[r]),
            utility=-float(self.costs[r]),
            iterations=its,
            converged=bool(self.converged[r]),
            trace=trace,
        )

    def results(self) -> List[AllocationResult]:
        """Every row as an :class:`AllocationResult`."""
        return [self.row(r) for r in range(self.batch_size)]

    def __repr__(self) -> str:
        done = int(self.converged.sum())
        return (
            f"BatchedResult({done}/{self.batch_size} converged, "
            f"max_iterations={int(self.iterations.max())})"
        )


class _History:
    """Per-evaluation ``(B, ...)`` snapshots for ``keep_history=True``.

    The driver's packed live rows are written into batch-shaped state, so
    a frozen row repeats its final values in every later snapshot.
    """

    def __init__(self, x: np.ndarray, n: int):
        b = x.shape[0]
        self._x = x.copy()
        self._mask = np.ones((b, n), dtype=bool)
        self._cost = np.zeros(b)
        self._spread = np.zeros(b)
        self._alpha = np.full(b, np.nan)
        self.allocations: List[np.ndarray] = []
        self.masks: List[np.ndarray] = []
        self.costs: List[np.ndarray] = []
        self.spreads: List[np.ndarray] = []
        self.alphas: List[np.ndarray] = []

    def record(self, live, x, mask, cost, spread, alpha) -> None:
        # The stepsize applied to reach this iterate is the one computed
        # at the previous evaluation (NaN before the first step).
        self.alphas.append(self._alpha.copy())
        self._x[live] = x
        self._mask[live] = True if mask is None else mask
        self._cost[live] = cost
        self._spread[live] = spread
        self._alpha[live] = alpha[:, 0]
        self.allocations.append(self._x.copy())
        self.masks.append(self._mask.copy())
        self.costs.append(self._cost.copy())
        self.spreads.append(self._spread.copy())


class BatchedAllocator:
    """§5.2 in lockstep over a batch of independent problem instances.

    Parameters
    ----------
    problem:
        A :class:`BatchedProblem`, or a sequence of equal-size
        :class:`~repro.core.model.FileAllocationProblem` (stacked for you).
    alpha:
        Fixed stepsize — a scalar (shared) or one value per row — or a
        :class:`~repro.core.stepsize.DynamicStep` instance for the
        appendix's per-iteration bound, evaluated batched.
    epsilon:
        Convergence tolerance of the per-row gradient-spread rule (the
        only termination criterion the batched kernel supports; it is the
        serial allocator's default).
    max_iterations:
        Budget shared by the batch; rows that converge earlier freeze.
    validate:
        Assert per-row feasibility after every step, mirroring the serial
        allocator's Theorem-1 checks (including the pro-rata clamp
        redistribution of round-off residue).
    keep_history:
        Retain per-iteration allocations/masks/costs so
        :meth:`BatchedResult.row` can rebuild full serial-equivalent
        traces.  O(B * N * iterations) memory — leave off for large sweeps.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; tallies
        batched iterations, live-row counts, clamp events, and the run
        timer.  Strictly observational, as everywhere else in the library.
    """

    def __init__(
        self,
        problem: Union[BatchedProblem, Sequence[FileAllocationProblem]],
        *,
        alpha: Union[float, Sequence[float], DynamicStep] = 0.1,
        epsilon: float = 1e-3,
        max_iterations: int = 100_000,
        validate: bool = True,
        keep_history: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not isinstance(problem, BatchedProblem):
            problem = BatchedProblem(problem)
        self.problem = problem
        b = problem.batch_size
        self._dynamic: Optional[DynamicStep] = None
        if isinstance(alpha, DynamicStep):
            self._dynamic = alpha
            self._fixed_alpha = np.full(b, np.nan)
        else:
            self._fixed_alpha = np.broadcast_to(
                np.asarray(alpha, dtype=float), (b,)
            ).copy()
            if np.any(self._fixed_alpha <= 0) or not np.all(
                np.isfinite(self._fixed_alpha)
            ):
                raise ConfigurationError("alpha must be positive and finite")
        self.epsilon = check_positive(epsilon, "epsilon")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.max_iterations = int(max_iterations)
        self.validate = validate
        self.keep_history = keep_history
        self.registry = registry

    # -- pieces ---------------------------------------------------------------

    def _dynamic_alphas(self, g, rows: _Rows, arrivals, gap) -> np.ndarray:
        """``(R, 1)`` batched :class:`DynamicStep` second-order bounds."""
        dyn = self._dynamic
        dev = g - g.mean(axis=1)[:, None]
        s1 = np.sum(dev**2, axis=1)
        h = -rows.hessian_diag(arrivals, gap)
        s2 = np.sum(h * dev**2, axis=1)
        out = np.full(g.shape[0], dyn.fallback)
        ok = (s2 < 0) & (s1 != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[ok] = dyn.safety * (-s1[ok] / s2[ok])
        return out[:, None]

    # -- full run ---------------------------------------------------------------

    def run(self, initial_allocations: Optional[np.ndarray] = None) -> BatchedResult:
        """Iterate the whole batch until every row converges or the budget
        is exhausted.

        ``initial_allocations`` is ``(B, N)`` (or ``(N,)``, shared by all
        rows); default uniform.  Each starting row is validated through
        its underlying problem.
        """
        prob = self.problem
        b, n = prob.batch_size, prob.n
        if initial_allocations is None:
            x = np.full((b, n), 1.0 / n)
        else:
            x0 = np.asarray(initial_allocations, dtype=float)
            if x0.ndim == 1:
                x0 = np.tile(x0, (b, 1))
            if x0.shape != (b, n):
                raise ConfigurationError(
                    f"initial allocations must have shape ({b}, {n}), got {x0.shape}"
                )
            x = np.stack(
                [prob.problems[r].check_feasible(x0[r]) for r in range(b)]
            )

        reg = self.registry
        # Each row's final state, written when the row freezes.
        allocations = np.empty((b, n))
        costs = np.empty(b)
        iterations = np.zeros(b, dtype=int)
        converged = np.zeros(b, dtype=bool)
        active_counts = np.empty(b, dtype=int)
        spreads = np.empty(b)
        history = _History(x, n) if self.keep_history else None

        with maybe_timer(reg, "batched.run_seconds"):
            # The live rows stay packed: ``live[i]`` is the batch row of
            # packed row ``i``; every packed array drops a row when it
            # freezes.
            live = np.arange(b)
            rows = prob._rows()
            fixed = None if self._dynamic else self._fixed_alpha[:, None]
            it = 0
            while True:
                arrivals, gap = rows.gaps(x)
                if not _stable(gap):
                    raise _instability(arrivals, gap, live)
                g, t = rows.gradient(arrivals, gap)
                alpha = (
                    fixed if fixed is not None
                    else self._dynamic_alphas(g, rows, arrivals, gap)
                )
                _, x_next, mask = _scaled_step(x, g, alpha)
                spread = _masked_spread(g, mask)
                if history is not None:
                    history.record(live, x, mask, rows.cost(x, t), spread, alpha)
                done = spread < self.epsilon
                frozen = done if it < self.max_iterations else np.ones_like(done)
                if frozen.any():
                    ids = live[frozen]
                    allocations[ids] = x[frozen]
                    costs[ids] = rows.take(frozen).cost(x[frozen], t[frozen])
                    iterations[ids] = it
                    converged[ids] = done[frozen]
                    active_counts[ids] = (
                        n if mask is None else np.add.reduce(mask[frozen], axis=1)
                    )
                    spreads[ids] = spread[frozen]
                    if frozen.all():
                        break
                    keep = ~frozen
                    live, x, x_next = live[keep], x[keep], x_next[keep]
                    rows = rows.take(keep)
                    if fixed is not None:
                        fixed = fixed[keep]
                it += 1
                x = _checked_update(
                    x, x_next, validate=self.validate, registry=reg
                )
                if reg is not None:
                    reg.counter_inc("batched.iterations")
                    reg.counter_inc("batched.row_iterations", len(live))

        if reg is not None:
            reg.gauge_set("batched.rows", float(b))
            reg.gauge_set("batched.rows_converged", float(converged.sum()))
            reg.gauge_set("batched.max_iterations_used", float(iterations.max()))
            reg.event(
                "batched_run_complete",
                rows=b,
                converged=int(converged.sum()),
                iterations=int(iterations.max()),
            )
        return BatchedResult(
            allocations=allocations,
            costs=costs,
            iterations=iterations,
            converged=converged,
            active_counts=active_counts,
            spreads=spreads,
            history_allocations=history.allocations if history else None,
            history_masks=history.masks if history else None,
            history_costs=history.costs if history else None,
            history_spreads=history.spreads if history else None,
            history_alphas=history.alphas if history else None,
        )

    def __repr__(self) -> str:
        step = repr(self._dynamic) if self._dynamic is not None else "fixed"
        return (
            f"BatchedAllocator(batch_size={self.problem.batch_size}, "
            f"n={self.problem.n}, alpha={step}, epsilon={self.epsilon:g})"
        )
