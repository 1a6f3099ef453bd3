"""repro.obs — run-wide observability for the allocation engines.

Three pieces:

* :class:`MetricsRegistry` — counters, gauges, histograms, wall-clock
  timers; attach one to any engine (``DecentralizedAllocator``,
  ``MultiFileAllocator``, ``MultiCopyAllocator``,
  ``DistributedFapRuntime``) via their ``registry=`` parameter;
* event sinks — :class:`JsonLinesSink` streams structured per-iteration
  events to disk (or any stream), :class:`MemorySink` captures them for
  tests and notebooks;
* :class:`RunReport` — a frozen, JSON-serializable snapshot of a
  finished run with named accessors for the headline quantities.

Instrumentation is strictly observational: with no registry attached the
engines execute identical arithmetic (bit-for-bit allocations) at full
speed; with one attached they additionally tally iterations, gradient
evaluations, active-set shrinks, monotonicity violations, α-decays, and
per-round message/hop/byte traffic.

Quick start::

    from repro import FileAllocationProblem, DecentralizedAllocator
    from repro.obs import MetricsRegistry, JsonLinesSink, RunReport

    registry = MetricsRegistry()
    registry.add_sink(JsonLinesSink("run_events.jsonl"))
    problem = FileAllocationProblem.paper_network()
    result = DecentralizedAllocator(
        problem, alpha=0.3, registry=registry
    ).run([0.8, 0.1, 0.1, 0.0])
    report = RunReport.from_registry(registry)
    assert report.iterations == result.iterations
    print(report.summary())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": ["JsonLinesSink", "MemorySink", "read_jsonl"],
    "registry": ["HistogramStat", "MetricsRegistry", "maybe_timer"],
    "report": ["RunReport"],
})
