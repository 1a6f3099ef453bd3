"""Admission control: bounded queues, deadlines, load shedding.

The service's latency story is only as good as its refusal story.  An
unbounded queue turns overload into unbounded latency for *every*
request; :class:`AdmissionController` instead turns overload into fast,
structured rejections:

* **queue bound** — at ``max_queue_depth`` pending requests, new arrivals
  are rejected with :data:`~repro.service.types.REJECT_QUEUE_FULL`;
* **load shedding** — at ``shed_threshold`` (softer than the hard bound)
  arrivals with ``priority <= 0`` are rejected with
  :data:`~repro.service.types.REJECT_LOAD_SHED`, reserving the remaining
  headroom for requests someone marked as mattering more;
* **deadlines** — a request that has waited longer than its
  ``timeout_s`` (or the controller's default) is rejected at dispatch
  time with :data:`~repro.service.types.REJECT_DEADLINE` rather than
  solved late: by then the caller has moved on, and solving it anyway
  would only delay the requests behind it.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError
from repro.service.types import (
    REJECT_DEADLINE,
    REJECT_LOAD_SHED,
    REJECT_QUEUE_FULL,
    AdmissionDecision,
    SolveRequest,
)

__all__ = ["AdmissionController"]


class AdmissionController:
    """Decides, per request, whether the service takes the work.

    Parameters
    ----------
    max_queue_depth:
        Hard bound on pending requests; arrivals beyond it are rejected.
    shed_threshold:
        Soft bound at which priority-0 (and below) arrivals are shed.
        ``None`` disables shedding.  Must not exceed ``max_queue_depth``.
    default_timeout_s:
        Queue-wait deadline applied to requests that do not carry their
        own ``timeout_s``.  ``None`` means no default deadline.
    """

    def __init__(
        self,
        *,
        max_queue_depth: int = 1024,
        shed_threshold: Optional[int] = None,
        default_timeout_s: Optional[float] = None,
    ):
        if max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if shed_threshold is not None and not 0 < shed_threshold <= max_queue_depth:
            raise ConfigurationError(
                "shed_threshold must be in (0, max_queue_depth]"
            )
        if default_timeout_s is not None and default_timeout_s <= 0:
            raise ConfigurationError("default_timeout_s must be positive")
        self.max_queue_depth = int(max_queue_depth)
        self.shed_threshold = shed_threshold
        self.default_timeout_s = default_timeout_s

    def admit(self, request: SolveRequest, queue_depth: int) -> AdmissionDecision:
        """Admission check at arrival, against the current queue depth.

        Only ``request.priority`` (here) and ``request.timeout_s`` (in
        :meth:`check_deadline`) are read, so the service passes its
        :class:`~repro.service.service.PendingSolve`, which carries both
        whether or not its request is parsed yet."""
        if queue_depth >= self.max_queue_depth:
            return AdmissionDecision(
                admit=False,
                reason=REJECT_QUEUE_FULL,
                detail=(
                    f"queue at capacity ({queue_depth}/{self.max_queue_depth} pending)"
                ),
            )
        if (
            self.shed_threshold is not None
            and queue_depth >= self.shed_threshold
            and request.priority <= 0
        ):
            return AdmissionDecision(
                admit=False,
                reason=REJECT_LOAD_SHED,
                detail=(
                    f"shedding priority<=0 traffic at depth {queue_depth} "
                    f"(threshold {self.shed_threshold})"
                ),
            )
        return AdmissionDecision.ACCEPT

    def timeout_for(self, request: SolveRequest) -> Optional[float]:
        """The deadline that applies to ``request`` (its own, or the default)."""
        return request.timeout_s if request.timeout_s is not None else self.default_timeout_s

    def check_deadline(
        self, request: SolveRequest, waited_s: float
    ) -> AdmissionDecision:
        """Deadline check at dispatch, after ``waited_s`` in the queue."""
        timeout = self.timeout_for(request)
        if timeout is not None and waited_s > timeout:
            return AdmissionDecision(
                admit=False,
                reason=REJECT_DEADLINE,
                detail=f"waited {waited_s:.3g}s in queue, deadline {timeout:.3g}s",
            )
        return AdmissionDecision.ACCEPT

    def __repr__(self) -> str:
        return (
            f"AdmissionController(max_queue_depth={self.max_queue_depth}, "
            f"shed_threshold={self.shed_threshold}, "
            f"default_timeout_s={self.default_timeout_s})"
        )
