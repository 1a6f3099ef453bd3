"""Worker processes: one :class:`AllocationService` per shard owner.

Each worker is a child process running :func:`worker_main`: it builds its
own :class:`~repro.service.AllocationService` (with its own
:class:`~repro.service.SolutionCache` and metrics registry) and answers
messages on a duplex pipe from the server:

* ``("solve", [payload, ...])`` → ``("results", [response_dict, ...])``
  — parse each wire-format payload, solve the parseable ones **as one
  group** (so the worker's micro-batcher sees them together), and return
  responses in input order with per-payload parse errors slotted in
  place.  With the lookaside tier enabled the solve message grows a
  third element — per-payload donor hints from the server's
  :class:`~repro.net.lookaside.LookasideTier` (``None`` where the tier
  had nothing) — and the reply a third of its own: the donor records of
  this group's converged solves, which the server folds back into the
  tier.  Hints are consulted only for requests the worker's *local*
  cache missed, so the tier never shadows a local hit or donor;
* ``("stats",)`` → ``("stats", snapshot)`` — the worker registry's
  plain-dict snapshot, which the server merges across workers;
* ``("shutdown",)`` — exit cleanly.

The parent-side :class:`WorkerHandle` owns the process and the pipe, and
is where crash handling lives: a worker found dead *before* a dispatch
is respawned transparently (nothing was lost); a worker that dies
*during* one raises :class:`WorkerCrashed` after respawning, and the
server turns that into in-band ``worker_restarted`` errors for exactly
the requests that were on the dead worker.  A request is a pure solve,
so nothing needs recovering beyond re-sending it.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError

__all__ = ["WorkerConfig", "WorkerCrashed", "WorkerHandle", "worker_main"]

#: Error code carried by responses for requests lost with a dead worker.
ERROR_WORKER_RESTARTED = "worker_restarted"


class WorkerCrashed(ReproError):
    """A worker process died with requests in flight (it has already been
    respawned by the time this is raised)."""


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker service configuration (picklable; crosses the fork)."""

    max_batch: int = 32
    cache_size: int = 256
    cache_ttl_s: Optional[float] = None
    queue_depth: int = 1024
    default_timeout_s: Optional[float] = None
    #: Cache eviction policy: ``"lru"`` or ``"cost"`` (value-weighted).
    cache_eviction: str = "lru"
    #: Optional byte budget on the worker's cache.
    cache_max_bytes: Optional[int] = None
    #: Drift threshold for estimate-epoch invalidation; ``None`` disables
    #: drift tracking entirely.
    drift_threshold: Optional[float] = None
    #: EMA window of the drift tracker's per-structure estimate.
    drift_window: int = 16
    #: Accept cross-shard donor hints (and publish converged solves back).
    lookaside: bool = False


class _PipeLookaside:
    """The worker half of the lookaside protocol: a service ``lookaside``
    hook fed by per-dispatch hints, collecting donor records to ship back.

    ``get`` serves the hint the server attached for this request (only
    consulted on a local cache miss — the service's hook contract), and
    ``publish`` queues the solve's donor record for the reply."""

    def __init__(self):
        self._hints: Dict[str, object] = {}
        self._outbox: List[Dict] = []

    def load_hints(self, hints: Dict[str, object]) -> None:
        self._hints = hints

    def get(self, request):
        return self._hints.get(request.request_id)

    def publish(self, request, result) -> None:
        from repro.net.lookaside import donor_record

        record = donor_record(request, result)
        if record is not None:
            self._outbox.append(record)

    def drain(self) -> List[Dict]:
        out, self._outbox = self._outbox, []
        self._hints = {}
        return out


def _build_service(config: WorkerConfig):
    from repro.obs import MetricsRegistry
    from repro.service import (
        AdmissionController,
        AllocationService,
        DriftTracker,
        SolutionCache,
    )

    registry = MetricsRegistry()
    drift = (
        DriftTracker(
            threshold=config.drift_threshold,
            window=config.drift_window,
            registry=registry,
        )
        if config.drift_threshold is not None
        else None
    )
    service = AllocationService(
        max_batch=config.max_batch,
        cache=SolutionCache(
            config.cache_size,
            ttl_s=config.cache_ttl_s,
            eviction=config.cache_eviction,
            max_bytes=config.cache_max_bytes,
            drift=drift,
            registry=registry,
        ),
        lookaside=_PipeLookaside() if config.lookaside else None,
        admission=AdmissionController(
            max_queue_depth=config.queue_depth,
            default_timeout_s=config.default_timeout_s,
        ),
        registry=registry,
    )
    return service, registry


def solve_payloads(
    service, payloads: List[Dict], hints: Optional[List[object]] = None
) -> List[Dict]:
    """Solve one group of wire-format payloads; responses in input order.

    Parse failures become in-band error dicts; an unexpected dispatch
    exception becomes an error dict on every request it left unresolved
    (those the service already answered keep their answers) — the worker
    never dies because one payload was poisonous.

    ``hints`` (aligned with ``payloads``) carries the server's lookaside
    donors; they are loaded into the service's pipe-lookaside hook so a
    local cache miss can warm-start from another shard's solution.
    """
    from repro.service.codec import safe_parse

    slots: List[Optional[Dict]] = [None] * len(payloads)
    tickets: List[Tuple[int, object]] = []
    hint_map: Dict[str, object] = {}
    for i, payload in enumerate(payloads):
        request, error = safe_parse(payload)
        if error is not None:
            slots[i] = error
            continue
        if hints is not None and i < len(hints) and hints[i] is not None:
            hint_map[request.request_id] = hints[i]
        tickets.append((i, service.submit(request)))
    if isinstance(getattr(service, "lookaside", None), _PipeLookaside):
        service.lookaside.load_hints(hint_map)
    failure = "dispatch failed: the service left the request unresolved"
    try:
        if any(not ticket.done() for _, ticket in tickets):
            service.pump()
    except Exception as exc:  # noqa: BLE001 - the worker must survive anything
        failure = f"dispatch failed: {type(exc).__name__}: {exc}"
    for i, ticket in tickets:
        if ticket.done():
            slots[i] = ticket.response.as_dict()
        else:
            slots[i] = {
                "id": ticket.request.request_id,
                "status": "error",
                "detail": failure,
            }
    return slots  # type: ignore[return-value]


def worker_main(conn, config: WorkerConfig) -> None:
    """Child-process entry point: serve pipe messages until shutdown/EOF."""
    # The server's terminal delivers SIGINT to the whole foreground
    # process group; drain is the parent's job, so workers ignore it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service, registry = _build_service(config)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        try:
            if kind == "stats":
                reply = ("stats", registry.snapshot())
            elif kind == "solve":
                hints = message[2] if len(message) > 2 else None
                results = solve_payloads(service, message[1], hints)
                if isinstance(service.lookaside, _PipeLookaside):
                    reply = ("results", results, service.lookaside.drain())
                else:
                    reply = ("results", results)
            else:
                reply = ("error", f"unknown worker message {kind!r}")
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerHandle:
    """Parent-side owner of one worker process and its pipe.

    All pipe traffic goes through :meth:`roundtrip`, which serializes
    access (the shard's dispatch thread and a ``stats`` call may both
    use the pipe), respawns a dead worker, and raises
    :class:`WorkerCrashed` when requests were lost with it.
    """

    def __init__(self, index: int, config: WorkerConfig, *, context=None):
        self.index = index
        self.config = config
        self._ctx = context if context is not None else multiprocessing.get_context()
        self._lock = threading.Lock()
        self.restarts = 0
        self._process = None
        self._conn = None
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.config),
            name=f"repro-net-worker-{self.index}",
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end so a dead worker reads
        # as EOF instead of a hang.
        child_conn.close()
        self._process = process
        self._conn = parent_conn

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed handle never respawns."""
        return self._conn is None and self._process is None

    def respawn(self) -> None:
        """Replace a dead (or wedged) worker with a fresh process."""
        with self._lock:
            self._respawn_locked()

    def _respawn_locked(self) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._process is not None:
            if self._process.is_alive():
                self._process.terminate()
            self._process.join(timeout=5.0)
        self.restarts += 1
        self._spawn()

    def roundtrip(self, message: Tuple) -> Tuple:
        """Send one message, return its reply.

        A worker found dead beforehand is respawned silently (nothing was
        in flight); one that dies mid-roundtrip is respawned and
        :class:`WorkerCrashed` is raised so the caller can answer the
        lost requests in-band.
        """
        with self._lock:
            if self.closed:
                raise WorkerCrashed(f"worker {self.index} has been shut down")
            if not self.alive:
                self._respawn_locked()
            try:
                self._conn.send(message)
                return self._conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                self._respawn_locked()
                raise WorkerCrashed(
                    f"worker {self.index} (pid {self.pid}) died mid-dispatch: "
                    f"{type(exc).__name__}"
                ) from None

    def shutdown(self, *, timeout_s: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate/kill if it won't."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
                self._conn.close()
                self._conn = None
            if self._process is not None:
                self._process.join(timeout=timeout_s)
                if self._process.is_alive():
                    self._process.terminate()
                    self._process.join(timeout=timeout_s)
                self._process = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (
            f"WorkerHandle(index={self.index}, pid={self.pid}, {state}, "
            f"restarts={self.restarts})"
        )
