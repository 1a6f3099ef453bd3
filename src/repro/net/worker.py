"""Worker processes: one :class:`AllocationService` per shard owner.

Each worker is a child process running :func:`worker_main`: it builds its
own :class:`~repro.service.AllocationService` (with its own
:class:`~repro.service.SolutionCache` and metrics registry) from the
server's :class:`~repro.service.ServiceConfig`, and answers messages on a
duplex pipe from the server:

* ``("solve", [payload, ...])`` → ``("results", [response_dict, ...])``
  — decode each solve the event loop forwarded packed
  (:func:`~repro.net.binary.decode_forwarded`), then
  :meth:`~repro.service.AllocationService.solve_payloads`: answer exact
  repeats from the cache, parse the rest, solve the parseable ones
  **as one group** (so the
  worker's micro-batcher sees them together), and return responses in
  input order with per-payload parse errors slotted in place.  With the
  lookaside tier enabled the solve message grows a
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
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.net.binary import decode_forwarded
from repro.obs import MetricsRegistry
from repro.service.settings import ServiceConfig

__all__ = ["WorkerCrashed", "WorkerHandle", "worker_main"]

#: Error code carried by responses for requests lost with a dead worker.
ERROR_WORKER_RESTARTED = "worker_restarted"


class WorkerCrashed(ReproError):
    """A worker process died with requests in flight (it has already been
    respawned by the time this is raised)."""


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


def solve_payloads(
    service, payloads: List[Dict], hints: Optional[List[object]] = None
) -> List[Dict]:
    """:meth:`~repro.service.AllocationService.solve_payloads` of the
    payloads, forwarded bodies decoded, after loading the server's
    lookaside donor ``hints`` (aligned with ``payloads``) for a local
    cache miss to warm-start from."""
    payloads = [decode_forwarded(p) if isinstance(p, dict) else p for p in payloads]
    if isinstance(service.lookaside, _PipeLookaside):
        service.lookaside.load_hints({
            str(payload.get("id", "")): hint
            for payload, hint in zip(payloads, hints or ())
            if hint is not None and isinstance(payload, dict)
        })
    return service.solve_payloads(payloads)


def worker_main(conn, config: Tuple[ServiceConfig, bool]) -> None:
    """Child-process entry point: serve pipe messages until shutdown/EOF.

    ``config`` is the service's settings and, beside them, the lookaside opt-in."""
    # The server's terminal delivers SIGINT to the whole foreground
    # process group; drain is the parent's job, so workers ignore it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    settings, lookaside = config
    registry = MetricsRegistry()
    service = settings.build(registry=registry, lookaside=_PipeLookaside() if lookaside else None)
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
                if lookaside:
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
    :class:`WorkerCrashed` when requests were lost with it.  Each worker
    builds its service from ``config``; ``lookaside`` opts it into donor hints.
    """

    def __init__(
        self, index: int, config: ServiceConfig, *, lookaside: bool = False, context=None
    ):
        self.index = index
        self.config = config
        self.lookaside = lookaside
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
            args=(child_conn, (self.config, self.lookaside)),
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
