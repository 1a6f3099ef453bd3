"""The batched kernel: B independent FAPs advanced as ``(B, N)`` arrays.

The Kurose–Simha iteration ``dx_i = alpha (dU/dx_i - avg_A)`` couples the
nodes of one problem but never couples two *problems* — a parameter sweep
is B completely independent trajectories.  This module holds the
row-step that exploits that: every step of the §5.2 algorithm —
gradient, active-set masking, stepsize bounding, termination — as
row-wise array operations over a batch.
:class:`~repro.parallel.continuous.ContinuousBatcher` is the one driver
that runs it; :class:`BatchedAllocator` is a lockstep sweep in that
driver, every row admitted at step 0 with nothing queued.

**One row-step.**  A row advances the same way in every dispatch: one
``mu - lambda x`` per row, checked for stability once; the gradient (and
the cost, when it is read) derived from it; the active-set pin loop run
only for rows that pin a node; and ``x + dx`` formed once and kept as the
next iterate.

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

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError, StabilityError
from repro.obs.registry import MetricsRegistry
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
        rows = _Rows.stack(problems, np.stack([p.mm1_service_rates() for p in problems]))
        #: ``(B, N)`` traffic-weighted access costs C_i per row.
        self.access_cost = rows.access_cost
        #: ``(B, N)`` per-node M/M/1 service rates.
        self.mu = rows.mu
        #: ``(B, 1)`` delay/communication trade-off k per row.
        self.k = rows.k
        #: ``(B, 1)`` total access rate lambda per row.
        self.total_rate = rows.total_rate

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

    def _rows(self) -> "_Rows":
        """Every row's constants, packed (views of the stacked arrays)."""
        return _Rows(self.access_cost, self.k, self.mu, self.total_rate)

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

    @classmethod
    def stack(cls, problems: Sequence[FileAllocationProblem], mu: np.ndarray) -> "_Rows":
        """The constants of ``problems``, given their ``(R, N)`` service rates."""
        return cls(
            np.stack([p.access_cost for p in problems]),
            np.array([[p.k] for p in problems], dtype=float),
            mu,
            np.array([[p.total_rate] for p in problems], dtype=float),
        )

    def take(self, keep) -> "_Rows":
        """The rows selected by ``keep`` (index array or bool mask)."""
        return _Rows(self.access_cost[keep], self.k[keep], self.mu[keep], self.total_rate[keep])

    def join(self, other: "_Rows") -> "_Rows":
        """These rows followed by ``other``'s."""
        return _Rows(
            *(np.concatenate((getattr(self, f), getattr(other, f))) for f in self.__slots__)
        )

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


def _stable(gap: np.ndarray) -> bool:
    """Whether every ``mu - lambda x`` is finite and positive — the serial
    check (finite arrival rates, positive gaps), since ``mu`` is finite."""
    return bool(gap.min() > 0 and gap.max() < np.inf)


def _stable_rows(gap: np.ndarray) -> np.ndarray:
    """Per-row :func:`_stable`: the continuous batcher's fault mask."""
    return ((gap > 0) & (gap < np.inf)).all(axis=1)


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


def _checked_update(
    x: np.ndarray,
    new_x: np.ndarray,
    *,
    validate: bool,
    registry: Optional[MetricsRegistry],
) -> np.ndarray:
    """Row-wise mirror of the serial ``DecentralizedAllocator._apply`` for
    the update ``x -> new_x`` (``new_x`` may be edited in place and is
    returned): Theorem-1 feasibility asserts plus pro-rata clamp
    redistribution of sub-1e-9 round-off residue (rare; handled per
    affected row with the serial scalar arithmetic).

    A row whose sum is not finite took a step that overflowed.  That is
    the row's own fault, not a Theorem-1 violation: it passes unchecked,
    and the next stability check fails it alone."""
    if not validate:
        return new_x
    # NaN-skipping reductions (np.fmax, np.fmin): one row's NaN must not
    # hide another row's violation.  The min gates the negativity checks.
    # Only once a check trips are rows looked at one by one.
    new_sums = np.add.reduce(new_x, axis=1)
    drift = np.abs(new_sums - np.add.reduce(x, axis=1))
    if np.fmax.reduce(drift) > 1e-9:
        broken = np.flatnonzero((drift > 1e-9) & np.isfinite(new_sums))
        if broken.size:
            r = int(broken[0])
            raise AssertionError(
                f"feasibility broken in batch row {r}: sum moved from "
                f"{x[r].sum()!r} to {new_x[r].sum()!r}"
            )
    if not np.fmin.reduce(new_x, axis=None) < 0.0:
        return new_x
    finite = np.isfinite(new_sums)[:, None]
    low = (new_x < -1e-9) & finite
    if np.any(low):
        r = int(np.argwhere(low)[0, 0])
        raise AssertionError(
            f"negative allocation in batch row {r}: min={new_x[r].min()!r}"
        )
    for r in np.flatnonzero(((new_x < 0.0) & finite).any(axis=1)):
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
    """Outcome of a :class:`BatchedAllocator` run: each row's final state,
    in row order."""

    allocations: np.ndarray  #: ``(B, N)`` final allocations.
    costs: np.ndarray  #: ``(B,)`` final costs.
    iterations: np.ndarray  #: ``(B,)`` steps applied per row.
    converged: np.ndarray  #: ``(B,)`` bool.

    @property
    def batch_size(self) -> int:
        return self.allocations.shape[0]

    def __repr__(self) -> str:
        done = int(self.converged.sum())
        return (
            f"BatchedResult({done}/{self.batch_size} converged, "
            f"max_iterations={int(self.iterations.max())})"
        )


class BatchedAllocator:
    """§5.2 in lockstep over a batch of independent problem instances.

    A lockstep sweep is continuous batching with nothing queued:
    :meth:`run` submits every row to one
    :class:`~repro.parallel.continuous.ContinuousBatcher` of capacity B
    and steps it until the last row retires.  Each row retires when it
    converges or spends the budget, and is bit-for-bit the serial
    :class:`~repro.core.algorithm.DecentralizedAllocator` solve.

    Parameters
    ----------
    problem:
        A :class:`BatchedProblem`, or a sequence of equal-size
        :class:`~repro.core.model.FileAllocationProblem` (stacked for you).
    alpha:
        Fixed positive stepsize — a scalar (shared) or one value per row.
    epsilon:
        Convergence tolerance of the per-row gradient-spread rule (the
        only termination criterion the batched kernel supports; it is the
        serial allocator's default).
    max_iterations:
        Per-row iteration budget.
    validate:
        Assert per-row feasibility after every step, mirroring the serial
        allocator's Theorem-1 checks (including the pro-rata clamp
        redistribution of round-off residue).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`, passed to
        the batcher (its ``continuous.*`` metrics).  Strictly
        observational, as everywhere else in the library.
    """

    def __init__(
        self,
        problem: Union[BatchedProblem, Sequence[FileAllocationProblem]],
        *,
        alpha: Union[float, Sequence[float]] = 0.1,
        epsilon: float = 1e-3,
        max_iterations: int = 100_000,
        validate: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not isinstance(problem, BatchedProblem):
            problem = BatchedProblem(problem)
        self.problem = problem
        try:
            self._alpha = np.broadcast_to(
                np.asarray(alpha, dtype=float), (problem.batch_size,)
            ).copy()
        except (TypeError, ValueError):
            raise ConfigurationError(
                "alpha must be one fixed stepsize or one per row "
                f"(batch_size={problem.batch_size}), got {alpha!r}"
            ) from None
        if np.any(self._alpha <= 0) or not np.all(np.isfinite(self._alpha)):
            raise ConfigurationError("alpha must be positive and finite")
        self.epsilon = check_positive(epsilon, "epsilon")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.max_iterations = int(max_iterations)
        self.validate = validate
        self.registry = registry

    def run(self, initial_allocations: Optional[np.ndarray] = None) -> BatchedResult:
        """Iterate the whole batch until every row converges or the budget
        is exhausted.

        ``initial_allocations`` is ``(B, N)`` (or ``(N,)``, shared by all
        rows); default uniform.  Each starting row is validated through
        its underlying problem.  A row that turns M/M/1 unstable raises
        :class:`~repro.exceptions.StabilityError`.
        """
        from repro.parallel.continuous import ContinuousBatcher

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
        batcher = ContinuousBatcher(
            capacity=b,
            epsilon=self.epsilon,
            max_iterations=self.max_iterations,
            validate=self.validate,
            registry=self.registry,
        )
        batcher._submit_batch(prob, x, self._alpha)
        rows = [None] * b
        while not batcher.idle():
            for row in batcher.step():
                if row.error is not None:
                    raise StabilityError(f"batch row {row.tag}: {row.error}")
                rows[row.tag] = row
        return BatchedResult(
            np.array([row.allocation for row in rows]),
            np.array([row.cost for row in rows]),
            np.array([row.iterations for row in rows]),
            np.array([row.converged for row in rows]),
        )

    def __repr__(self) -> str:
        return (
            f"BatchedAllocator(batch_size={self.problem.batch_size}, "
            f"n={self.problem.n}, epsilon={self.epsilon:g})"
        )
