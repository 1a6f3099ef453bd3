"""``burst-hot``: closed-loop ``NetClient.solve_payloads`` bursts over a
tiered working set, one connection, each burst sent when the previous
one has been answered."""

from __future__ import annotations

import sys
import time
from typing import Dict, List

import numpy as np

import analysis
from common import closed_loop_metrics
from gate import Gate, spec_from_payload
from inputs import BURST, HOT_CACHE_SIZE, working_set
from wire import Server

#: Unmeasured rounds that fill each server's caches first.
WARMUP_ROUNDS = 2
#: Fresh servers per run: ``setup_s`` is the median of their launches,
#: and the window is split evenly over them.  Six short launches rather
#: than three long ones: a 5 s launch makes about 500 bursts, so its tail
#: is about p98, and the lowest of six such tails held steadier across
#: seeds than the lowest of three 10 s p99s (quartile spread 0.13 against
#: 0.20 over the same ten 30 s stretches of bursts).
LAUNCHES = 6


def measure(seed: int, seconds: float, trace_dir=None) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    ws = working_set(rng)
    extra = ["--cache-size", str(HOT_CACHE_SIZE)]
    setups, rss, stats = [], [], []
    bursts: List[Dict] = []
    window = 0.0
    serial = 0
    for launch in range(LAUNCHES):
        server = Server(extra, trace_dir=trace_dir).start()
        setups.append(server.setup_s)
        try:
            r = 0
            window_start = None
            while True:
                measured = r >= WARMUP_ROUNDS
                if measured and window_start is None:
                    window_start = time.monotonic()
                mix = ws.round(r, np.random.default_rng([seed, launch, r]))
                for lo in range(0, len(mix), BURST):
                    base = mix[lo:lo + BURST]
                    sendable = [{**p, "id": f"b{serial}-{j}"} for j, p in enumerate(base)]
                    serial += 1
                    t0 = time.monotonic()
                    replies = server.client.solve_payloads(sendable)
                    t1 = time.monotonic()
                    bursts.append({"launch": launch, "measured": measured, "sent": t0, "done": t1,
                                   "base": base, "ids": [p["id"] for p in sendable],
                                   "replies": replies})
                r += 1
                if measured and time.monotonic() - window_start >= seconds / LAUNCHES:
                    break
            window += bursts[-1]["done"] - window_start
            rss.append(server.peak_rss_mb())
            if trace_dir is not None:
                stats.append(server.stats())
        finally:
            server.stop()

    gate = Gate()
    specs: Dict[str, Dict] = {}
    attempted = failed = ok_measured = 0
    for burst in bursts:
        for payload, reply in zip(burst["base"], burst["replies"]):
            attempted += 1
            if reply.get("status") != "ok":
                failed += 1
                continue
            ok_measured += burst["measured"]
            key = payload["id"]
            spec = specs.get(key)
            if spec is None:
                spec = specs[key] = spec_from_payload(payload)
            if reply["cache"] == "warm":
                gate.warm(key, spec["problem"], reply["allocation"], reply["cost"],
                          spec["epsilon"])
            elif reply["cache"] in ("miss", "hit"):
                its = reply["iterations"] if reply["cache"] == "miss" else None
                gate.exact(key, spec, reply["allocation"], reply["cost"], its,
                           reply["converged"])
            else:
                failed += 1

    measured = [b for b in bursts if b["measured"]]
    dispositions = [rep.get("cache") for b in measured for rep in b["replies"]]
    print("burst-hot: {} bursts; hit/warm/miss {}/{}/{}".format(
        len(measured), *(dispositions.count(d) for d in ("hit", "warm", "miss"))), file=sys.stderr)
    rtt = [[(b["done"] - b["sent"]) * 1e3 for b in measured if b["launch"] == k]
           for k in range(LAUNCHES)]
    metrics = closed_loop_metrics(setups, ok_measured / window, rtt, max(rss))
    gaps = [(b["sent"] - a["done"]) * 1e3 for a, b in zip(measured, measured[1:])]
    return {
        "metrics": metrics,
        "gate": gate,
        "attempted": attempted,
        "failed": failed,
        "lag_p99_ms": analysis.tail(gaps)[1] if gaps else 0.0,
        "stats": stats,
        "bursts": measured,
        "all_replies": [rep for b in measured for rep in b["replies"]],
        "payloads": [p for b in measured[:8] for p in b["base"]],
    }
