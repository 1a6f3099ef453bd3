"""Micro-batching: grouping compatible requests into one continuous batch.

The batched kernels advance B independent problems as ``(B, N)`` arrays
— their throughput on small instances is an order of magnitude over the
serial loop, *and* their rows are bit-for-bit identical to the serial
engine's iterates.  That parity is what makes micro-batching safe to
apply silently: a request receives the identical answer whether it was
grouped or solved alone, so batching is purely a throughput decision,
never a semantics decision.

The batcher plans groups for the row-staggered
:class:`~repro.parallel.ContinuousBatcher`, which carries tolerance,
budget, stepsize and starting iterate *per row* and retires/refills rows
mid-flight.  Two requests are batchable when it can host both in one
``(B, N)`` array: same node count ``N`` and pure analytic M/M/1 delay
models (the kernel's closed-form evaluation) —
:class:`ContinuousBatchKey`.  Groups are not split: its own
``capacity`` (= ``max_batch``) queues the overflow while keeping slots
full.  Everything else — exotic delay models and odd sizes — dispatches
as a singleton through ``solve(engine="fast")``, which satisfies the
same parity contract: the fast path's inlined loop for an M/M/1 problem,
the reference loop for an exotic delay model.

:class:`MicroBatcher` does the grouping.  There is no dispatch window:
the service plans a group from whatever is pending when it pumps, and
the continuous batcher fills slots freed mid-flight with compatible
pending requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.service.types import SolveRequest

__all__ = [
    "ContinuousBatchKey",
    "MicroBatch",
    "MicroBatcher",
    "continuous_batch_key",
]


@dataclass(frozen=True)
class ContinuousBatchKey:
    """The compatibility class of one request: the row-staggered batcher
    carries epsilon, budget, alpha, and the starting iterate per row, so
    only the array width and the closed-form M/M/1 evaluation are
    shared."""

    n: int


def continuous_batch_key(request: SolveRequest) -> Optional[ContinuousBatchKey]:
    """``request``'s compatibility class, or ``None`` if it must run alone."""
    if not request.problem.has_vectorized_evaluate:
        return None
    return ContinuousBatchKey(n=request.problem.n)


@dataclass
class MicroBatch:
    """One dispatch unit: an ordered group of compatible work items.

    ``items`` are whatever the caller queued (the service queues its
    pending-ticket objects; each must expose ``.request``).  ``key`` is
    ``None`` exactly for singleton fallbacks of unbatchable requests.
    """

    key: Optional[ContinuousBatchKey]
    items: List

    @property
    def size(self) -> int:
        return len(self.items)

    def requests(self) -> List[SolveRequest]:
        return [item.request for item in self.items]

    def __repr__(self) -> str:
        return f"MicroBatch(size={self.size}, key={self.key})"


class MicroBatcher:
    """Groups pending work into dispatchable :class:`MicroBatch` units.

    Parameters
    ----------
    max_batch:
        The :class:`~repro.parallel.ContinuousBatcher` slot capacity: the
        bound on concurrent rows per dispatch.  1 disables grouping —
        every request runs the singleton path (the configuration the
        benchmarks use as the "individual dispatch" baseline).
    """

    def __init__(self, *, max_batch: int = 32):
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.max_batch = int(max_batch)

    def plan(self, items: Sequence) -> List[MicroBatch]:
        """Partition ``items`` (each exposing ``.request``) into batches.

        Grouping preserves arrival order within each compatibility class
        and emits classes in first-arrival order, so dispatch order is
        deterministic for a given queue state.  Groups are not split at
        ``max_batch`` (the continuous batcher's slot capacity bounds
        concurrency instead).  Unbatchable requests become singletons.
        """
        groups: dict = {}
        singletons: List[MicroBatch] = []
        for item in items:
            key = continuous_batch_key(item.request)
            if key is None or self.max_batch == 1:
                singletons.append(MicroBatch(key=None, items=[item]))
                continue
            groups.setdefault(key, []).append(item)
        batches = [MicroBatch(key=key, items=members) for key, members in groups.items()]
        return batches + singletons

    def __repr__(self) -> str:
        return f"MicroBatcher(max_batch={self.max_batch})"
