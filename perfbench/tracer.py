"""Spans and counts around each layer's entry point, recorded from the
benchmark's own files.

Two uses:

* ``python3 perfbench/tracer.py net-serve ...`` is the traced server
  launcher: it installs the wrappers below, then runs ``repro-fap``'s
  own ``main``.  Workers fork from it and inherit the wrappers; each
  process keeps its spans in memory and writes them, as
  ``<kind>-<pid>.json`` under ``$PERFBENCH_TRACE_DIR``, when it exits.
* the sweep workload calls :func:`install_kernel_wrappers` in-process.

Every timestamp is ``time.monotonic()``: CLOCK_MONOTONIC is system-wide
on Linux, so server, worker and generator spans share one time line.
A span is ``[name, start, end, request_id, fields]``; the request id
links spans of one request across processes, which stands in for a
parent span id (the worker cannot see the server's span objects).
Calls too frequent for one span each (cache probes, batcher steps,
registry calls) are kept as counts and summed seconds instead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

_monotonic = time.monotonic


class Recorder:
    """In-memory spans and per-name totals for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.totals: Dict[str, Dict[str, float]] = {}

    def reset(self) -> None:
        self.spans = []
        self.totals = {}

    def span(self, name: str, start: float, end: float, request_id=None, **fields) -> None:
        self.spans.append([name, start, end, request_id, fields])

    def add(self, name: str, seconds: float, **counts: float) -> None:
        slot = self.totals.setdefault(name, {"calls": 0.0, "seconds": 0.0})
        slot["calls"] += 1
        slot["seconds"] += seconds
        for key, value in counts.items():
            slot[key] = slot.get(key, 0.0) + value

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "ppid": os.getppid(), "spans": self.spans,
                       "totals": self.totals}, fh)
        os.replace(tmp, path)


RECORDER = Recorder()


def _total(cls, method: str, name: str) -> None:
    """Wrap ``cls.method`` so each call adds its duration to ``name``."""
    original = getattr(cls, method)

    def wrapper(*args, **kwargs):
        t0 = _monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            RECORDER.add(name, _monotonic() - t0)

    wrapper.__wrapped__ = original
    setattr(cls, method, wrapper)


def install_registry_wrappers() -> None:
    """Time every metrics call (``obs.registry.us_per_req``)."""
    from repro.obs.registry import MetricsRegistry

    for method in ("counter_inc", "gauge_set", "gauge_max", "observe", "event"):
        _total(MetricsRegistry, method, "registry")


def install_kernel_wrappers() -> None:
    """Count work at the two batched drivers: rows stepped against
    capacity for :class:`ContinuousBatcher`, row-iterations against
    lockstep iterations times batch size for :class:`BatchedAllocator`."""
    from repro.parallel.batched import BatchedAllocator
    from repro.parallel.continuous import ContinuousBatcher

    step = ContinuousBatcher.step

    def traced_step(self):
        before = self._row_steps
        t0 = _monotonic()
        out = step(self)
        RECORDER.add(
            "continuous.step", _monotonic() - t0,
            rows=self._row_steps - before, capacity=self.capacity,
        )
        return out

    ContinuousBatcher.step = traced_step

    run = BatchedAllocator.run

    def traced_run(self, *args, **kwargs):
        t0 = _monotonic()
        result = run(self, *args, **kwargs)
        its = result.iterations
        RECORDER.add(
            "batched.run", _monotonic() - t0,
            row_iterations=float(its.sum()),
            slot_iterations=float(its.max()) * len(its),
        )
        return result

    BatchedAllocator.run = traced_run


def install_server_wrappers(trace_dir: Path) -> None:
    """Everything the traced server and its forked workers record."""
    from repro.net import worker as worker_mod
    from repro.net.worker import WorkerHandle
    from repro.service.cache import SolutionCache

    install_registry_wrappers()
    install_kernel_wrappers()
    _total(SolutionCache, "lookup", "cache.lookup")
    _total(SolutionCache, "store", "cache.store")

    roundtrip = WorkerHandle.roundtrip

    def traced_roundtrip(self, message):
        t0 = _monotonic()
        try:
            return roundtrip(self, message)
        finally:
            if message[0] == "solve":
                ids = [p.get("id") for p in message[1]]
                RECORDER.span("roundtrip", t0, _monotonic(), ids[0],
                              ids=ids, worker=self.index)

    WorkerHandle.roundtrip = traced_roundtrip

    solve_payloads = worker_mod.solve_payloads

    def traced_solve_payloads(service, payloads, hints=None):
        t0 = _monotonic()
        out = solve_payloads(service, payloads, hints)
        RECORDER.span("solve_payloads", t0, _monotonic(),
                      payloads[0].get("id") if payloads else None, size=len(payloads))
        return out

    worker_mod.solve_payloads = traced_solve_payloads

    worker_main = worker_mod.worker_main

    def traced_worker_main(conn, config):
        RECORDER.reset()  # forget what the fork copied from the server
        try:
            worker_main(conn, config)
        finally:
            RECORDER.dump(trace_dir / f"worker-{os.getpid()}.json")

    worker_mod.worker_main = traced_worker_main


def load(trace_dir: Path) -> Dict[str, list]:
    """Every dumped process: ``{"server": [...], "worker": [...]}``."""
    out: Dict[str, list] = {"server": [], "worker": []}
    for path in sorted(trace_dir.glob("*.json")):
        kind = path.name.split("-", 1)[0]
        with open(path) as fh:
            out.setdefault(kind, []).append(json.load(fh))
    return out


def merged_totals(processes: List[dict]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for proc in processes:
        for name, slot in proc["totals"].items():
            into = merged.setdefault(name, {})
            for key, value in slot.items():
                into[key] = into.get(key, 0.0) + value
    return merged


def main(argv: List[str]) -> int:
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    install_server_wrappers(trace_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        RECORDER.dump(trace_dir / f"server-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
