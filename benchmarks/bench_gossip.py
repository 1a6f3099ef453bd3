"""Benchmark the gossip mesh (repro.net.gossip).

Three claims are measured, parity-gated before any number is trusted:

* **gossip parity** — a solve warm-started from a *gossiped* donor is
  bit-for-bit the solve warm-started from the same donor in a local
  tier (same allocation, same cost, same iteration count).  Gossip
  moves records, never answers — this is asserted before anything is
  timed.
* **cold → warm across servers** — server A converges a set of origin
  problems; server B (which has never seen them) then replays
  structurally *drifted* variants.  Before the mesh, B solves them cold
  (~0% warm rate, full iteration bills); after A's donors gossip over,
  B warm-starts nearly every one from the lookaside tier.  The replay
  on an unmeshed control server with the same workload is the honest
  baseline, and distinct parameter families per phase keep B's own
  publishes from polluting the measurement.
* **fault injection** — a three-server mesh loses one member mid-run:
  the survivors notice (``net.gossip.peer_down``), keep replicating new
  records between themselves, and an empty replacement on the dead
  peer's address is re-fed back to digest equality by backoff
  reconnect + seq-0 rumor re-feed.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_gossip.py           # full
    PYTHONPATH=src python benchmarks/bench_gossip.py --smoke   # CI-sized

Full mode writes ``benchmarks/BENCH_gossip.json`` (docs/PERFORMANCE.md
reads the checked-in copy).  ``--smoke`` shrinks the workload and does
not overwrite the JSON unless ``--out`` is given explicitly.
"""

from __future__ import annotations

import argparse
import json
import socket
import time
from pathlib import Path

import numpy as np

from repro.net import NetClient, NetServer

EPSILON = 1e-4
MAX_ITERATIONS = 5_000
GOSSIP_INTERVAL_S = 0.05
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_gossip.json"


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_until(predicate, *, timeout=30.0, interval=0.02) -> float:
    """Poll until ``predicate()`` holds; returns the seconds it took."""
    start = time.perf_counter()
    deadline = start + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return time.perf_counter() - start
        time.sleep(interval)
    if not predicate():
        raise AssertionError("condition never held within the deadline")
    return time.perf_counter() - start


def family(seed: int, *, n: int = 4, offset: int = 0):
    """One parameter family: a base cost structure plus shared rates/mu.

    Scaling the cost matrix perturbs the *structural* fingerprint (every
    variant routes and caches as a brand-new problem) while the
    parameter vector — what the lookaside tier matches on — stays
    identical, so a donor from any variant warm-starts every other.

    ``offset`` scales rates *and* mu by ``3**offset``: the tier's match
    metric is the relative L2 distance, so adjacent offsets sit ~1.9
    apart — beyond ``max_distance`` (1.0) — and a donor can never leak
    across families.  Utilization (and therefore the cost landscape and
    the solver's iteration bill) is offset-invariant, keeping the
    phases comparable."""
    rng = np.random.default_rng(seed)
    scale = 3.0 ** offset
    base = rng.uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    rates = [float(v) * scale for v in rng.uniform(0.05, 0.2, size=n)]
    mu = [float(v) * scale for v in rng.uniform(1.5, 3.0, size=n)]

    def payload(pid: str, scale: float, rate_drift: float = 1.0) -> dict:
        matrix = base * scale
        return {
            "id": pid,
            "problem": {
                "cost_matrix": [[float(v) for v in row] for row in matrix],
                "access_rates": [r * rate_drift for r in rates],
                "mu": mu,
                "k": 1.0,
            },
            "alpha": 0.25,
            "epsilon": EPSILON,
            "max_iterations": MAX_ITERATIONS,
        }

    return payload


def origin_of(fam, index: int) -> dict:
    return fam(f"origin-{index}", 1.0)


def drifted_of(fam, index: int, count: int) -> list:
    """``count`` drifted variants of one family: a scaled cost matrix
    (distinct structural key — no exact-cache reuse) plus a few-percent
    access-rate drift (the donor is near, not identical, so the warm
    start still has residual iterations to run; at 10 variants the
    drift tops out at relative distance ~0.67, inside the tier's 1.0
    match radius)."""
    return [
        fam(
            f"drift-{index}-{j}",
            1.0 + 0.01 * (j + 1),
            1.0 + 0.05 * (j + 1),
        )
        for j in range(count)
    ]


def start_mesh(count: int, *, tag: str) -> list:
    ports = [free_port() for _ in range(count)]
    servers = []
    for i, port in enumerate(ports):
        peers = ",".join(
            f"127.0.0.1:{p}" for j, p in enumerate(ports) if j != i
        )
        servers.append(
            NetServer(
                "127.0.0.1", port, workers=1, lookaside=True, peers=peers,
                gossip_interval_s=GOSSIP_INTERVAL_S, server_id=f"{tag}{i}",
            ).start()
        )
    return servers


def digests_equal(servers) -> bool:
    digests = [s.lookaside.digest() for s in servers]
    return all(d == digests[0] for d in digests[1:])


def mesh_ready(servers) -> bool:
    """Every server's every outbound peer link is up."""
    return all(
        peer["ready"]
        for s in servers
        for peer in s.stats()["gossip"]["peers"]
    )


def replay(server: NetServer, payloads: list) -> dict:
    """Solve ``payloads`` against ``server`` sequentially; returns the
    warm-rate and iteration tally of exactly this replay."""
    with NetClient(*server.address, timeout_s=300.0) as client:
        responses = [client.solve_payload(dict(p)) for p in payloads]
    assert all(r["status"] == "ok" for r in responses)
    lookaside = sum(1 for r in responses if r["cache"] == "lookaside")
    return {
        "requests": len(responses),
        "lookaside_hits": lookaside,
        "warm_rate": lookaside / len(responses),
        "solver_iterations": int(sum(r["iterations"] for r in responses)),
        "responses": responses,
    }


def assert_gossip_parity(verbose: bool = True) -> dict:
    """A gossip-donated warm start must equal the local one bit-for-bit."""
    fam = family(411)
    origin, drifted = origin_of(fam, 0), fam("probe", 1.02, 1.05)

    with NetServer(port=0, workers=1, lookaside=True) as control:
        with NetClient(*control.address, timeout_s=300.0) as client:
            assert client.solve_payload(dict(origin))["cache"] == "miss"
            local = client.solve_payload(dict(drifted))
    assert local["cache"] == "lookaside"

    a, b = start_mesh(2, tag="parity")
    try:
        with NetClient(*a.address, timeout_s=300.0) as client:
            assert client.solve_payload(dict(origin))["cache"] == "miss"
        wait_until(lambda: len(b.lookaside) >= 1)
        with NetClient(*b.address, timeout_s=300.0) as client:
            crossed = client.solve_payload(dict(drifted))
    finally:
        for s in (a, b):
            s.shutdown()
    assert crossed["cache"] == "lookaside"
    assert crossed["allocation"] == local["allocation"]  # exact floats
    assert crossed["cost"] == local["cost"]
    assert crossed["iterations"] == local["iterations"]
    if verbose:
        print(
            "parity: gossiped donor == local donor, bit-for-bit "
            f"({local['iterations']} iterations either way)"
        )
    return {"ok": True, "iterations": local["iterations"]}


def bench_cold_to_warm(families: int, drifts: int) -> dict:
    """The tentpole measurement: server B's warm rate on a drifting
    workload, before and after the mesh carries A's convergence over.

    The cold phase replays ``families * drifts`` one-shot families (one
    drifted variant each, never repeated) so nothing B publishes can
    warm a later request.  The warm phase replays ``drifts`` variants of
    each of A's ``families`` — B never solved the origins, so its first
    hit per family can only come from a gossiped donor.  Offsets keep
    every family beyond the tier's match radius of every other."""
    requests = families * drifts
    cold_batch = [
        drifted_of(family(500 + i, offset=i), i, 1)[0] for i in range(requests)
    ]
    warm_fams = [
        family(900 + i, offset=requests + i) for i in range(families)
    ]
    origins = [origin_of(f, i) for i, f in enumerate(warm_fams)]
    warm_batch = [
        p for i, f in enumerate(warm_fams) for p in drifted_of(f, i, drifts)
    ]

    a, b = start_mesh(2, tag="s")
    try:
        wait_until(lambda: mesh_ready((a, b)))
        cold = replay(b, cold_batch)
        tier_before = len(b.lookaside)

        convergence_start = time.perf_counter()
        with NetClient(*a.address, timeout_s=300.0) as client:
            for origin in origins:
                assert client.solve_payload(dict(origin))["status"] == "ok"
        to_b = wait_until(
            lambda: len(b.lookaside) >= tier_before + len(origins)
        )
        converged_in = time.perf_counter() - convergence_start
        warm = replay(b, warm_batch)
        a_counters = a.stats()["counters"]
        b_counters = b.stats()["counters"]
    finally:
        for s in (a, b):
            s.shutdown()

    return {
        "families": families,
        "drifted_per_family": drifts,
        "cold": {k: v for k, v in cold.items() if k != "responses"},
        "gossip_warm": {k: v for k, v in warm.items() if k != "responses"},
        "iteration_reduction": (
            cold["solver_iterations"] / warm["solver_iterations"]
            if warm["solver_iterations"]
            else None  # warm replay needed zero iterations
        ),
        "donor_transfer_s": to_b,
        "converged_in_s": converged_in,
        "records_sent": int(a_counters.get("net.gossip.records_sent", 0)),
        "records_merged": int(b_counters.get("net.gossip.records_merged", 0)),
        "gossip_bytes": int(a_counters.get("net.gossip.bytes", 0)),
    }


def bench_fault_injection() -> dict:
    """Kill one of three servers mid-run; survivors keep replicating and
    a respawned replacement is re-fed to digest equality."""
    def record(key, value):
        # A feasible allocation: the tier merges only records that can
        # donate, which must sum to 1.
        return {
            "key": key, "n": 3,
            "params": np.linspace(0.1, 1.0, 7),
            "allocation": np.array([value, (1 - value) / 2, (1 - value) / 2]),
            "iterations": 10,
        }

    servers = start_mesh(3, tag="f")
    a, b, c = servers
    c_port = c.port
    try:
        # Wait for every outbound link before the kill: a peer that dies
        # while still connecting is a failed dial, not a ``peer_down``.
        wait_until(lambda: mesh_ready(servers))
        a.lookaside.insert(record("pre-kill", 0.1))
        wait_until(lambda: digests_equal(servers) and len(b.lookaside) == 1)

        kill_start = time.perf_counter()
        c.shutdown()
        wait_until(
            lambda: a.stats()["counters"].get("net.gossip.peer_down", 0) >= 1
            and b.stats()["counters"].get("net.gossip.peer_down", 0) >= 1
        )
        detected_in = time.perf_counter() - kill_start

        # The survivors still replicate new records between themselves.
        a.lookaside.insert(record("during-outage", 0.2))
        survivors_in = wait_until(lambda: len(b.lookaside) == 2)

        revived = NetServer(
            "127.0.0.1", c_port, workers=1, lookaside=True,
            peers=",".join(f"127.0.0.1:{s.port}" for s in (a, b)),
            gossip_interval_s=GOSSIP_INTERVAL_S, server_id="f2b",
        ).start()
        try:
            refed_in = wait_until(
                lambda: digests_equal((a, b, revived))
                and len(revived.lookaside) == 2
            )
            down_events = int(
                a.stats()["counters"].get("net.gossip.peer_down", 0)
            )
        finally:
            revived.shutdown()
    finally:
        a.shutdown()
        b.shutdown()
    return {
        "servers": 3,
        "detected_in_s": detected_in,
        "survivor_replication_s": survivors_in,
        "respawn_refeed_s": refed_in,
        "peer_down_events_on_a": down_events,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small family/drift grid; no JSON unless --out is given",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (full mode default: {DEFAULT_OUT.name})",
    )
    args = parser.parse_args(argv)

    families, drifts = (2, 3) if args.smoke else (6, 10)

    parity = assert_gossip_parity()

    cold_warm = bench_cold_to_warm(families, drifts)
    cold, warm = cold_warm["cold"], cold_warm["gossip_warm"]
    print(
        f"\n{'phase':>22} {'requests':>9} {'warm rate':>10} {'iterations':>11}"
    )
    for label, row in (("cold (pre-gossip)", cold), ("after gossip", warm)):
        print(
            f"{label:>22} {row['requests']:>9} {row['warm_rate']:>9.0%} "
            f"{row['solver_iterations']:>11}"
        )
    if warm["solver_iterations"] == 0:
        saved = (
            "gossiped donors were within epsilon of every drifted optimum — "
            f"the warm replay ran 0 of the cold replay's "
            f"{cold['solver_iterations']} solver iterations"
        )
    else:
        saved = (
            f"gossip warm starts ran {cold_warm['iteration_reduction']:.2f}x "
            f"fewer solver iterations than the cold replay"
        )
    print(
        f"donors crossed the mesh in "
        f"{cold_warm['donor_transfer_s'] * 1e3:.0f} ms; {saved}"
    )

    fault = bench_fault_injection()
    print(
        f"\nfault injection: peer death detected in "
        f"{fault['detected_in_s'] * 1e3:.0f} ms, survivors replicated in "
        f"{fault['survivor_replication_s'] * 1e3:.0f} ms, respawned peer "
        f"re-fed to digest equality in {fault['respawn_refeed_s'] * 1e3:.0f} ms"
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(DEFAULT_OUT)
    if out is not None:
        payload = {
            "config": {
                "epsilon": EPSILON,
                "max_iterations": MAX_ITERATIONS,
                "gossip_interval_s": GOSSIP_INTERVAL_S,
                "families": families,
                "drifted_per_family": drifts,
                "smoke": args.smoke,
            },
            "parity": parity,
            "cold_to_warm": cold_warm,
            "fault_injection": fault,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
