"""Workload dispatch, and the per-layer metrics of a traced run.

An untraced run measures the end-to-end metrics.  A traced run
(``--trace 1``) first repeats that untraced run on the same seed, then
runs the workload again with every layer wrapped (``tracer.py``), and
reports per-layer metrics from the spans, from the answers' own fields
and from the server's ``stats`` verb, plus ``trace.overhead.*``: each
end-to-end metric of the traced run over the untraced one.

A layer the workload does not pass through reports 0 (no wire, cache or
service on ``sweep-grid``; no lockstep ``BatchedAllocator`` over the
wire).  ``perfbench/provenance.json`` lists which layers each workload
exercises.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Dict, List

import analysis
import tracer
from common import WORK

E2E = ("setup_s", "throughput_rps", "burst_p50_ms", "burst_p99_ms", "peak_rss_mb")


def untraced(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    if workload == "burst-hot":
        import burst_hot

        return burst_hot.measure(seed, seconds)
    import sweep_grid

    return sweep_grid.measure(seed, seconds)


def traced(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    base = untraced(workload, seed, seconds)
    base_failed, _ = base["gate"].run()
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    if workload == "burst-hot":
        import burst_hot

        done_at: Dict[str, float] = {}
        restore = _time_client_reads(done_at)
        try:
            run = burst_hot.measure(seed, seconds, trace_dir=trace_dir)
        finally:
            restore()
        requests = [
            {"id": rid, "sent": b["sent"], "done": done_at.get(rid, b["done"]), "reply": rep}
            for b in run["bursts"] for rid, rep in zip(b["ids"], b["replies"])
        ]
    else:
        import sweep_grid

        run = sweep_grid.measure(seed, seconds, traced=True)
        requests = []
    metrics = {name: (0.0, unit) for name, unit in UNITS.items()}
    if workload == "sweep-grid":
        metrics.update(_kernel_layers(tracer.merged_totals([{"totals": tracer.RECORDER.totals}])))
        metrics["service.iterations_per_req"] = (statistics.fmean(run["iterations"]), "count")
        from inputs import SWEEP_ALPHA, SWEEP_EPSILON, SWEEP_MAX_ITERATIONS

        metrics["core.fastpath.us_per_iter"] = (_fastpath_us([
            (p, SWEEP_ALPHA, SWEEP_EPSILON, SWEEP_MAX_ITERATIONS, x0)
            for _, problems, x0 in run["grids"][:3] for p in problems[::3]
        ]), "us")
    else:
        metrics.update(_wire_layers(run, requests, tracer.load(trace_dir)))
    metrics["loadgen.lag_ms.p99"] = (run["lag_p99_ms"], "ms")
    for name in E2E:
        before = base["metrics"][name][0]
        metrics[f"trace.overhead.{name}"] = (run["metrics"][name][0] / before if before else 0.0,
                                            "ratio")
    run["metrics"] = metrics
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"] + base_failed
    return run


def _time_client_reads(done_at: Dict[str, float]):
    """Timestamp each reply as ``NetClient`` reads it off the socket."""
    from repro.net import client as client_mod

    read = client_mod._Conn.read

    def timed_read(self):
        got = read(self)
        if got is not None:
            done_at[str(got[0].get("id"))] = time.monotonic()
        return got

    client_mod._Conn.read = timed_read
    return lambda: setattr(client_mod._Conn, "read", read)


UNITS = {
    "net.binary.encode_us": "us",
    "net.binary.decode_us": "us",
    "net.binary.bytes_per_req": "bytes",
    "net.server.pre_dispatch_ms.p50": "ms",
    "net.server.pre_dispatch_ms.p99": "ms",
    "net.server.post_dispatch_ms.p50": "ms",
    "net.server.post_dispatch_ms.p99": "ms",
    "net.router.shard_imbalance": "ratio",
    "net.worker.group_size": "count",
    "net.worker.pipe_ms.p50": "ms",
    "net.worker.pipe_ms.p99": "ms",
    "net.worker.busy_share": "fraction",
    "service.latency_ms.p50": "ms",
    "service.latency_ms.p99": "ms",
    "service.joined_inflight_share": "fraction",
    "service.iterations_per_req": "count",
    "service.cache.hit_share": "fraction",
    "service.cache.warm_share": "fraction",
    "service.cache.miss_share": "fraction",
    "service.cache.lookup_us": "us",
    "service.cache.store_us": "us",
    "service.batcher.rows_per_batch": "count",
    "service.batcher.singleton_share": "fraction",
    "parallel.continuous.occupancy": "fraction",
    "parallel.continuous.us_per_row_step": "us",
    "parallel.batched.occupancy": "fraction",
    "parallel.batched.us_per_row_step": "us",
    "core.fastpath.us_per_iter": "us",
    "obs.registry.us_per_req": "us",
    **{f"stage_share.{stage}.{q}": "fraction"
       for stage in ("pre_dispatch", "pipe", "service", "post_dispatch") for q in ("p50", "p99")},
}


def _per_call_us(totals: Dict[str, Dict[str, float]], name: str) -> float:
    slot = totals.get(name)
    return slot["seconds"] / slot["calls"] * 1e6 if slot and slot["calls"] else 0.0


def _kernel_layers(totals: Dict[str, Dict[str, float]]) -> Dict[str, tuple]:
    out = {}
    step = totals.get("continuous.step")
    if step and step.get("rows"):
        out["parallel.continuous.occupancy"] = (step["rows"] / step["capacity"], "fraction")
        out["parallel.continuous.us_per_row_step"] = (step["seconds"] / step["rows"] * 1e6, "us")
    run = totals.get("batched.run")
    if run and run.get("row_iterations"):
        out["parallel.batched.occupancy"] = (run["row_iterations"] / run["slot_iterations"],
                                             "fraction")
        out["parallel.batched.us_per_row_step"] = (run["seconds"] / run["row_iterations"] * 1e6,
                                                   "us")
    return out


def _fastpath_us(specs: List[tuple]) -> float:
    """Singleton ``solve(engine="fast")`` time per iteration on the
    workload's own problems."""
    from repro.core.algorithm import solve

    seconds = iterations = 0
    for problem, alpha, epsilon, max_iterations, x0 in specs:
        t0 = time.perf_counter()
        result = solve(problem, alpha=alpha, epsilon=epsilon, max_iterations=max_iterations,
                       initial_allocation=x0, engine="fast", keep_allocations="last")
        seconds += time.perf_counter() - t0
        iterations += max(1, result.iterations)
    return seconds / iterations * 1e6


def _codec_us(payloads: List[Dict], replies: List[Dict]) -> Dict[str, tuple]:
    """``encode_binary_frame`` / ``decode_binary_frames`` per frame, on the
    workload's own request and reply frames."""
    from repro.net.binary import decode_binary_frames, encode_binary_frame

    frames = payloads + replies
    t0 = time.perf_counter()
    encoded = [encode_binary_frame(p, i) for i, p in enumerate(frames)]
    t1 = time.perf_counter()
    for frame in encoded:
        decode_binary_frames(frame)
    t2 = time.perf_counter()
    req_bytes = statistics.fmean(len(f) for f in encoded[:len(payloads)])
    rep_bytes = statistics.fmean(len(f) for f in encoded[len(payloads):])
    return {
        "net.binary.encode_us": ((t1 - t0) / len(frames) * 1e6, "us"),
        "net.binary.decode_us": ((t2 - t1) / len(frames) * 1e6, "us"),
        "net.binary.bytes_per_req": (req_bytes + rep_bytes, "bytes"),
    }


def _wire_layers(run: Dict, requests: List[Dict], trace: Dict[str, list]) -> Dict[str, tuple]:
    from gate import spec_from_payload

    out: Dict[str, tuple] = {}
    replies = [r for r in run["all_replies"] if r.get("status") == "ok"]
    out.update(_codec_us(run["payloads"], replies[:len(run["payloads"])]))

    roundtrips = [s for p in trace["server"] for s in p["spans"] if s[0] == "roundtrip"]
    # Each launch's traffic span, by server pid: a worker lives in one
    # launch, so its busy time is a share of its own launch's span.
    launch_span = {}
    for proc in trace["server"]:
        mine = [s for s in proc["spans"] if s[0] == "roundtrip"]
        if mine:
            launch_span[proc["pid"]] = max(s[2] for s in mine) - min(s[1] for s in mine)
    solves = {}
    busy = []
    for proc in trace["worker"]:
        spans = [s for s in proc["spans"] if s[0] == "solve_payloads"]
        busy.append(sum(s[2] - s[1] for s in spans) / launch_span[proc["ppid"]])
        solves.update((s[3], s) for s in spans)
    span_of = {rid: rt for rt in roundtrips for rid in rt[4]["ids"]}
    pipes, rows, pre, post = [], [], [], []
    for rt in roundtrips:
        sp = solves.get(rt[3])
        if sp is not None:
            pipes.append(analysis.self_time((rt[1], rt[2]), [(sp[1], sp[2])]) * 1e3)
    for req in requests:
        rt = span_of.get(req["id"])
        sp = solves.get(rt[3]) if rt else None
        if sp is None or req["done"] == float("inf"):
            continue
        latency = req["done"] - req["sent"]
        stages = {
            "pre_dispatch": rt[1] - req["sent"],
            "pipe": analysis.self_time((rt[1], rt[2]), [(sp[1], sp[2])]),
            "service": sp[2] - sp[1],
            "post_dispatch": req["done"] - rt[2],
        }
        pre.append(stages["pre_dispatch"] * 1e3)
        post.append(stages["post_dispatch"] * 1e3)
        rows.append((latency, {k: v / latency for k, v in stages.items()}))
    for name, values in (("net.server.pre_dispatch_ms", pre),
                         ("net.server.post_dispatch_ms", post),
                         ("net.worker.pipe_ms", pipes)):
        out[f"{name}.p50"] = (analysis.percentile(values, 50.0), "ms")
        out[f"{name}.p99"] = (analysis.tail(values)[1], "ms")
    keys = [lat for lat, _ in rows]
    shares = [s for _, s in rows]
    for q, (lo, hi) in (("p50", (45.0, 55.0)), ("p99", (99.0, 100.0))):
        for stage, value in analysis.band_mean(keys, shares, lo, hi).items():
            out[f"stage_share.{stage}.{q}"] = (value, "fraction")

    out["net.worker.group_size"] = (statistics.fmean(len(rt[4]["ids"]) for rt in roundtrips),
                                    "count")
    out["net.worker.busy_share"] = (max(busy), "fraction")

    routed: Dict[int, float] = {}
    counters: Dict[str, float] = {}
    for stats in run["stats"]:  # one snapshot per server launch
        for shard in stats["shards"]:
            routed[shard["shard"]] = routed.get(shard["shard"], 0) + shard["routed"]
        for name, value in stats["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    out["net.router.shard_imbalance"] = (
        max(routed.values()) / statistics.fmean(routed.values()), "ratio")
    out["service.joined_inflight_share"] = (
        counters.get("service.joined_inflight", 0.0) / counters["service.requests"], "fraction")
    out["service.batcher.rows_per_batch"] = (
        counters["service.batch_rows"] / counters["service.batches"], "count")

    n = len(replies)
    latencies = [r["latency_s"] * 1e3 for r in replies]
    out["service.latency_ms.p50"] = (analysis.percentile(latencies, 50.0), "ms")
    out["service.latency_ms.p99"] = (analysis.tail(latencies)[1], "ms")
    out["service.iterations_per_req"] = (statistics.fmean(r["iterations"] for r in replies),
                                         "count")
    for disposition in ("hit", "warm", "miss"):
        out[f"service.cache.{disposition}_share"] = (
            sum(r["cache"] == disposition for r in replies) / n, "fraction")
    out["service.batcher.singleton_share"] = (sum(r["batch_size"] == 1 for r in replies) / n,
                                              "fraction")

    totals = tracer.merged_totals(trace["server"] + trace["worker"])
    out["service.cache.lookup_us"] = (_per_call_us(totals, "cache.lookup"), "us")
    out["service.cache.store_us"] = (_per_call_us(totals, "cache.store"), "us")
    out.update(_kernel_layers(totals))
    registry = totals.get("registry", {}).get("seconds", 0.0)
    out["obs.registry.us_per_req"] = (registry / counters["net.requests"] * 1e6, "us")

    specs = [spec_from_payload(p) for p in run["payloads"][:40]]
    out["core.fastpath.us_per_iter"] = (_fastpath_us(
        [(s["problem"], s["alpha"], s["epsilon"], s["max_iterations"], s["x0"]) for s in specs]
    ), "us")
    return out
