"""Command-line interface.

``repro-fap solve``    — solve a FAP instance on a standard topology;
``repro-fap trace``    — solve while streaming per-iteration JSON events;
``repro-fap figure``   — reproduce one of the paper's figures (3-6, 8, 9);
``repro-fap figures``  — reproduce all of them and print the summary tables;
``repro-fap sweep``    — sweep one parameter over a grid with a choice of
engine (``serial`` / ``fast`` fused serial / ``pooled`` process pool /
``batched`` lockstep), optionally warm-starting each grid point from its
neighbor's solution (``--warm-start``), and optionally persist the
:class:`~repro.experiments.sweeps.SweepResult` as JSON;
``repro-fap serve``    — run the allocation service over line-delimited
JSON requests (stdin or ``--input``), micro-batching compatible requests
and answering repeats from the solution cache; responses stream to
stdout as JSON lines;
``repro-fap net-serve`` — the same service behind a TCP socket, sharded
across worker processes (:mod:`repro.net`), draining gracefully on
SIGTERM;
``repro-fap net-solve`` — stream line-delimited JSON requests to a
running ``net-serve`` (or fetch its merged metrics with ``--stats``).

Any solve can stream observability events to disk with
``--emit-metrics PATH`` (JSON lines, one event per iteration, plus a
final ``run_complete``) and prints the :class:`~repro.obs.report.RunReport`
digest at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

# Only what the parser needs; each command imports the rest itself, so a
# command loads none of the modules only other commands run.
from repro.network import builders
from repro.service import EVICTION_POLICIES, ServiceConfig

_TOPOLOGIES = {
    "ring": builders.ring_graph,
    "line": builders.line_graph,
    "star": builders.star_graph,
    "complete": builders.complete_graph,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fap",
        description="Decentralized microeconomic file allocation (Kurose & Simha 1986)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=4, help="network size")
        p.add_argument(
            "--topology", choices=sorted(_TOPOLOGIES), default="ring",
            help="network family",
        )
        p.add_argument("--mu", type=float, default=1.5, help="per-node service rate")
        p.add_argument(
            "--rate", type=float, default=1.0, help="total access rate lambda"
        )
        p.add_argument(
            "--k", type=float, default=1.0, help="delay/communication weight"
        )
        p.add_argument("--alpha", type=float, default=0.3, help="stepsize")
        p.add_argument(
            "--epsilon", type=float, default=1e-3, help="convergence tolerance"
        )
        p.add_argument(
            "--start",
            choices=["uniform", "skewed", "single"],
            default="skewed",
            help="initial allocation",
        )

    solve = sub.add_parser("solve", help="solve one FAP instance")
    add_instance_options(solve)
    solve.add_argument(
        "--engine", choices=["reference", "fast"], default="reference",
        help="solver loop: reference (dense trace) or the fused fast path "
             "(same iterates, sampled trace)",
    )
    solve.add_argument("--plot", action="store_true", help="ascii convergence profile")
    solve.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="stream per-iteration events to PATH (JSON lines) and print a run report",
    )

    trace = sub.add_parser(
        "trace",
        help="solve one FAP instance, streaming per-iteration JSON events",
    )
    add_instance_options(trace)
    trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the event stream to PATH instead of stdout",
    )

    fig = sub.add_parser("figure", help="reproduce one paper figure")
    fig.add_argument("number", type=int, choices=[3, 4, 5, 6, 8, 9])

    sub.add_parser("figures", help="reproduce all paper figures")

    report = sub.add_parser(
        "report", help="regenerate the full paper-vs-measured markdown report"
    )
    report.add_argument(
        "--fast", action="store_true", help="reduced grids (seconds instead of minutes)"
    )

    topo = sub.add_parser("topology", help="preview a topology in the terminal")
    topo.add_argument("--nodes", type=int, default=6)
    topo.add_argument(
        "--topology", choices=sorted(_TOPOLOGIES), default="ring", dest="family"
    )

    sweep = sub.add_parser(
        "sweep",
        help="sweep one parameter over a grid (serial, pooled, or batched engine)",
    )
    add_instance_options(sweep)
    sweep.add_argument(
        "--param", choices=["alpha", "k", "mu", "rate"], default="alpha",
        help="which parameter the grid varies (the matching instance "
             "option is ignored; alpha sweeps vary the stepsize itself)",
    )
    sweep.add_argument(
        "--values", default=None, metavar="V1,V2,...",
        help="explicit comma-separated grid",
    )
    sweep.add_argument(
        "--grid", default=None, metavar="START:STOP:NUM",
        help="evenly spaced grid (exactly one of --values/--grid)",
    )
    sweep.add_argument(
        "--engine", choices=["serial", "fast", "pooled", "batched"],
        default="batched",
        help="serial loop, fused serial fast path, process pool, or "
             "lockstep batched kernel (all return identical measurements)",
    )
    sweep.add_argument(
        "--warm-start", action="store_true",
        help="solve grid points in sorted order, seeding each from its "
             "neighbor's solution (batched engine: row-staggered "
             "continuation chains, see --chains)",
    )
    sweep.add_argument(
        "--chains", type=int, default=1,
        help="with --engine batched --warm-start: number of concurrent "
             "warm-start chains the sorted grid is split into (1 = exact "
             "serial warm-sweep measurements; more = staggered chains "
             "advancing in lockstep, same optima, fewer wall-clock steps)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="pool size for --engine pooled (default: all cores)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="root seed for task rngs")
    sweep.add_argument(
        "--max-iterations", type=int, default=10_000, help="per-run iteration cap"
    )
    sweep.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the SweepResult as JSON to PATH",
    )

    serve = sub.add_parser(
        "serve",
        help="serve line-delimited JSON solve requests (micro-batched, cached)",
    )
    serve.add_argument(
        "--input", metavar="PATH", default=None,
        help="read requests from PATH instead of stdin",
    )
    _add_service_flags(serve)
    serve.add_argument(
        "--emit-metrics", metavar="PATH", default=None,
        help="stream service events to PATH (JSON lines)",
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the final metrics-registry snapshot to PATH as JSON",
    )

    net_serve = sub.add_parser(
        "net-serve",
        help="serve solve requests over TCP, sharded across worker processes",
    )
    net_serve.add_argument("--host", default="127.0.0.1", help="listen address")
    net_serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 binds an ephemeral port and announces it)",
    )
    net_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes, each with its own service + cache",
    )
    # --routing and --codec each accept only their one value; they stay so
    # launch lines that spell the policy and the wire out keep working.
    net_serve.add_argument(
        "--routing", choices=["affinity"], default="affinity",
        help="shard policy: structural-fingerprint affinity (the only one)",
    )
    net_serve.add_argument(
        "--codec", choices=["binary"], default="binary",
        help="wire protocol: the binary frame (the only one)",
    )
    net_serve.add_argument(
        "--secret", default=None, metavar="SECRET",
        help="require the shared-secret HMAC handshake on every connection",
    )
    _add_service_flags(net_serve)
    net_serve.add_argument(
        "--lookaside", action="store_true",
        help="enable the cross-shard lookaside donor tier (requests "
             "missing their shard's cache warm-start from other shards' "
             "converged solutions)",
    )
    net_serve.add_argument(
        "--lookaside-ttl", type=float, default=None, metavar="SECONDS",
        help="lifetime of lookaside donor records (default: no expiry); "
             "expired records are never handed out or gossiped",
    )
    net_serve.add_argument(
        "--peers", default=None, metavar="HOST:PORT,...",
        help="static gossip mesh: comma-separated addresses of the other "
             "servers; donor records replicate across the mesh "
             "(requires --lookaside; peer links reuse --secret)",
    )
    net_serve.add_argument(
        "--gossip-interval", type=float, default=1.0, metavar="SECONDS",
        help="gossip round period (heartbeat + rumor push per round)",
    )
    net_serve.add_argument(
        "--gossip-budget", type=int, default=262144, metavar="BYTES",
        help="outbound gossip byte budget per second",
    )
    net_serve.add_argument(
        "--server-id", default=None, metavar="ID",
        help="mesh identity stamped on published donor records "
             "(default: the bound host:port)",
    )
    net_serve.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the final merged stats snapshot to PATH as JSON on exit",
    )

    net_solve = sub.add_parser(
        "net-solve",
        help="stream line-delimited JSON requests to a running net-serve",
    )
    net_solve.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="server address, as announced by net-serve",
    )
    net_solve.add_argument(
        "--input", metavar="PATH", default=None,
        help="read requests from PATH instead of stdin",
    )
    net_solve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds",
    )
    net_solve.add_argument(
        "--retries", type=int, default=2,
        help="re-send budget per request (transport failures and, with "
        "--retry-restarts on the API, worker restarts share it)",
    )
    net_solve.add_argument(
        "--secret", default=None, metavar="SECRET",
        help="shared secret for servers started with --secret",
    )
    net_solve.add_argument(
        "--stats", action="store_true",
        help="print the server's merged stats snapshot and exit",
    )

    copies = sub.add_parser(
        "copies", help="sweep the copy count m on a virtual ring (§8.2)"
    )
    copies.add_argument("--nodes", type=int, default=6)
    copies.add_argument("--mu", type=float, default=10.0)
    copies.add_argument(
        "--write-fraction", type=float, default=0.0,
        help="fraction of accesses that are writes (write-all replication)",
    )
    copies.add_argument(
        "--storage-cost", type=float, default=0.3, help="cost per copy stored"
    )
    return parser


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """The nine :class:`~repro.service.ServiceConfig` settings as flags, for
    ``serve`` and ``net-serve`` alike; each flag's dest and default are its field's."""
    group = parser.add_argument_group(
        "service settings", "(net-serve applies them to each worker's service)"
    )
    group.add_argument(
        "--max-batch", type=int,
        help="continuous batcher's slot capacity (1 disables micro-batching); "
             "net-serve ships a worker at most this many queued requests at once",
    )
    group.add_argument(
        "--cache-size", type=int, help="solution-cache capacity (0 disables caching)"
    )
    group.add_argument(
        "--cache-ttl", dest="cache_ttl_s", type=float, metavar="SECONDS",
        help="cache entry TTL (default: no expiry)",
    )
    group.add_argument(
        "--cache-eviction", choices=EVICTION_POLICIES,
        help="cache eviction policy: recency, or value-weighted by solver iterations saved",
    )
    group.add_argument(
        "--cache-budget", dest="cache_max_bytes", type=int, metavar="BYTES",
        help="byte budget on retained cache entries (default: unbounded)",
    )
    group.add_argument(
        "--drift-threshold", type=float, metavar="DRIFT",
        help="enable drift tracking: demote exact cache hits to warm re-solves once the "
             "traffic estimate drifts this far (relative L2) from the entry's epoch",
    )
    group.add_argument(
        "--drift-window", type=int,
        help="EMA window of the drift tracker's per-structure estimate",
    )
    group.add_argument(
        "--queue-depth", type=int,
        help="admission bound on pending requests (net-serve: also each shard queue's)",
    )
    group.add_argument(
        "--timeout", dest="default_timeout_s", type=float, metavar="SECONDS",
        help="default per-request queue deadline in seconds",
    )
    parser.set_defaults(**dataclasses.asdict(ServiceConfig()))


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`~repro.service.ServiceConfig` the service flags spell."""
    return ServiceConfig(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(ServiceConfig)}
    )


def _initial_allocation(start: str, n: int) -> np.ndarray:
    from repro.core.initials import paper_skewed_allocation, single_node_allocation

    starts = {
        "uniform": np.full(n, 1.0 / n),
        "skewed": paper_skewed_allocation(n),
        "single": single_node_allocation(n, 0),
    }
    return starts[start]


def _build_instance(args: argparse.Namespace):
    from repro.core.model import FileAllocationProblem

    topo = _TOPOLOGIES[args.topology](args.nodes)
    rates = np.full(args.nodes, args.rate / args.nodes)
    problem = FileAllocationProblem.from_topology(topo, rates, k=args.k, mu=args.mu)
    return problem, _initial_allocation(args.start, args.nodes)


class _SweepFactory:
    """Picklable problem factory for ``repro-fap sweep``: a fixed instance
    spec whose swept slot (k / mu / rate) is filled per grid value.  For
    alpha sweeps the problem is the same at every grid point.  Every grid
    point shares one network, so its least-cost search runs once."""

    def __init__(self, param: str, nodes: int, topology: str, mu: float,
                 rate: float, k: float):
        self.param = param
        self.nodes = nodes
        self.topology = _TOPOLOGIES[topology](nodes)
        self.mu = mu
        self.rate = rate
        self.k = k

    def __call__(self, value):
        from repro.core.model import FileAllocationProblem

        spec = {"mu": self.mu, "rate": self.rate, "k": self.k}
        if self.param in spec:
            spec[self.param] = float(value)
        rates = np.full(self.nodes, spec["rate"] / self.nodes)
        return FileAllocationProblem.from_topology(
            self.topology, rates, k=spec["k"], mu=spec["mu"]
        )


def _sweep_measure(problem, result):
    """Picklable per-grid-point measure for ``repro-fap sweep``."""
    return {
        "cost": float(result.cost),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _parse_sweep_grid(args: argparse.Namespace) -> List[float]:
    if (args.values is None) == (args.grid is None):
        raise SystemExit("sweep: give exactly one of --values or --grid")
    if args.values is not None:
        try:
            return [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise SystemExit(f"sweep: bad --values {args.values!r}")
    try:
        start, stop, num = args.grid.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(num))]
    except ValueError:
        raise SystemExit(f"sweep: bad --grid {args.grid!r} (expected START:STOP:NUM)")


def _batched_warm_sweep(args, values, factory, x0):
    """Row-staggered warm-started batched sweep.

    The sorted grid is split into ``--chains`` contiguous continuation
    chains — each an ascending run of neighbors seeding the next link
    from its predecessor's solution, exactly the serial sweep's warm
    order — and the chains advance concurrently, one continuous-batcher
    slot each.  ``--chains 1`` therefore reproduces the serial
    ``--engine fast --warm-start`` measurements exactly; more chains
    keep the same optima (within epsilon) while overlapping the chains'
    iterations in lockstep.
    """
    from repro.experiments.sweeps import SweepResult
    from repro.parallel import ChainLink, solve_chains

    order = sorted(range(len(values)), key=lambda i: values[i])
    n_chains = max(1, min(args.chains, len(order)))
    bounds = np.linspace(0, len(order), n_chains + 1).astype(int)
    chains, coords = [], []
    for c in range(n_chains):
        idxs = order[bounds[c] : bounds[c + 1]]
        coords.append(idxs)
        chains.append(
            [
                ChainLink(
                    problem=factory(values[i]),
                    alpha=float(values[i]) if args.param == "alpha" else args.alpha,
                    epsilon=args.epsilon,
                    max_iterations=args.max_iterations,
                    x0=x0,
                )
                for i in idxs
            ]
        )
    results = solve_chains(
        chains, epsilon=args.epsilon, max_iterations=args.max_iterations
    )
    measurements: List[Optional[dict]] = [None] * len(values)
    for c, idxs in enumerate(coords):
        for j, i in enumerate(idxs):
            row = results[c][j]
            if row.error is not None:
                raise SystemExit(
                    f"sweep: grid point {args.param}={values[i]} failed: {row.error}"
                )
            measurements[i] = {
                "cost": float(row.cost),
                "iterations": int(row.iterations),
                "converged": bool(row.converged),
            }
    return SweepResult(
        parameter=args.param,
        values=[float(v) for v in values],
        measurements=measurements,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table

    if args.chains < 1:
        raise SystemExit("sweep: --chains must be >= 1")
    values = _parse_sweep_grid(args)
    factory = _SweepFactory(
        args.param, args.nodes, args.topology, args.mu, args.rate, args.k
    )
    x0 = _initial_allocation(args.start, args.nodes)
    # None → each task's own value is the stepsize (alpha is a solver
    # parameter, so it can't ride the problem factory).
    alpha = None if args.param == "alpha" else args.alpha
    if args.engine == "batched" and args.warm_start:
        sweep = _batched_warm_sweep(args, values, factory, x0)
    elif args.engine == "batched":
        from repro.experiments.sweeps import SweepResult
        from repro.parallel import BatchedAllocator, BatchedProblem

        batch = BatchedProblem.from_problems([factory(v) for v in values])
        row_alpha = [float(v) for v in values] if args.param == "alpha" else args.alpha
        result = BatchedAllocator(
            batch,
            alpha=row_alpha,
            epsilon=args.epsilon,
            max_iterations=args.max_iterations,
        ).run(np.tile(x0, (len(values), 1)))
        sweep = SweepResult(
            parameter=args.param,
            values=[float(v) for v in values],
            measurements=[
                {
                    "cost": float(result.costs[i]),
                    "iterations": int(result.iterations[i]),
                    "converged": bool(result.converged[i]),
                }
                for i in range(len(values))
            ],
        )
    elif args.engine == "pooled":
        from repro.experiments.sweeps import sweep_parallel

        sweep = sweep_parallel(
            args.param, values, factory,
            measure=_sweep_measure,
            initial_allocation=x0,
            alpha=alpha,
            epsilon=args.epsilon,
            max_iterations=args.max_iterations,
            seed=args.seed,
            max_workers=args.jobs,
            warm_start=args.warm_start,
        )
    else:
        # "serial" and "fast" share the in-process sweep; "fast" swaps the
        # per-point solver loop for the fused one.
        from repro.experiments.sweeps import parameter_sweep

        sweep = parameter_sweep(
            args.param, values, factory,
            measure=_sweep_measure,
            initial_allocation=x0,
            alpha=alpha,
            epsilon=args.epsilon,
            max_iterations=args.max_iterations,
            seed=args.seed,
            warm_start=args.warm_start,
            engine="fast" if args.engine == "fast" else "reference",
        )
    print(
        format_table(
            sweep.headers(), sweep.rows(),
            title=f"sweep over {args.param} ({args.engine} engine, {len(values)} points)",
        )
    )
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(sweep.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the allocation service over a line-delimited JSON stream.

    Requests stream in (stdin or ``--input``), responses stream out on
    stdout in request order — solves, structured rejections, and
    per-line parse errors alike, one JSON object per line.  Lines are
    answered ``--max-batch`` at a time; a run summary goes to stderr so
    stdout stays machine-readable.  A bad service setting is refused
    before any input is read (exit 2).
    """
    import itertools
    import json

    from repro.exceptions import ConfigurationError
    from repro.obs import JsonLinesSink, MetricsRegistry
    from repro.service import iter_request_payloads

    registry = MetricsRegistry()
    config = _service_config(args)
    try:
        service = config.build(registry=registry)
    except ConfigurationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    sink = None
    if args.emit_metrics is not None:
        sink = JsonLinesSink(args.emit_metrics)
        registry.add_sink(sink)
    stream = open(args.input) if args.input is not None else sys.stdin
    try:
        payloads = iter_request_payloads(stream)
        while chunk := list(itertools.islice(payloads, config.max_batch)):
            for answer in service.solve_payloads(chunk):
                print(json.dumps(answer), flush=True)
    finally:
        if args.input is not None:
            stream.close()
        if sink is not None:
            sink.close()
        if args.metrics_out is not None:
            with open(args.metrics_out, "w") as fh:
                json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
                fh.write("\n")

    counters = registry.counters
    latency = service.latency_percentiles()
    solved = int(counters.get("service.solved", 0))
    hits = int(counters.get("service.cache.hit", 0))
    print(
        "served {served} of {total} request(s): cache hit/warm/miss = "
        "{hit}/{warm}/{miss}, {batches} dispatch(es), {rejected} rejected; "
        "latency p50/p95/p99 = {p50:.4g}/{p95:.4g}/{p99:.4g}s".format(
            served=solved + hits,
            total=int(counters.get("service.requests", 0)),
            hit=int(counters.get("service.cache.hit", 0)),
            warm=int(counters.get("service.cache.warm", 0)),
            miss=int(counters.get("service.cache.miss", 0)),
            batches=int(counters.get("service.batches", 0)),
            rejected=int(counters.get("service.rejected", 0)),
            **latency,
        ),
        file=sys.stderr,
    )
    return 0


def _cmd_net_serve(args: argparse.Namespace) -> int:
    """Run the sharded TCP allocation server until SIGTERM/SIGINT.

    The bound address is announced on stdout as one JSON line
    (``{"event": "listening", ...}``) so scripts — and the loopback
    tests — can connect to an ephemeral ``--port 0``.  SIGTERM and
    SIGINT drain gracefully: in-flight requests finish, queued and new
    ones get structured ``shutting_down`` rejections.
    """
    import json

    from repro.exceptions import ConfigurationError
    from repro.net import NetServer

    try:
        server = NetServer(
            args.host,
            args.port,
            workers=args.workers,
            secret=args.secret,
            service=_service_config(args),
            lookaside=args.lookaside,
            lookaside_ttl_s=args.lookaside_ttl,
            peers=args.peers,
            gossip_interval_s=args.gossip_interval,
            gossip_budget=args.gossip_budget,
            server_id=args.server_id,
        )
    except ConfigurationError as exc:
        print(f"net-serve: {exc}", file=sys.stderr)
        return 2
    server.start()
    server.install_signal_handlers()
    host, port = server.address
    print(
        json.dumps(
            {
                "event": "listening",
                "host": host,
                "port": port,
                "workers": server.num_workers,
                "auth": args.secret is not None,
                "server_id": server.server_id,
                "peers": [f"{h}:{p}" for h, p in server.peer_addresses],
            }
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.shutdown()
        stats = server.stats()
        if args.metrics_out is not None:
            with open(args.metrics_out, "w") as fh:
                json.dump(stats, fh, indent=2, sort_keys=True)
                fh.write("\n")
        counters = stats.get("counters", {})
        print(
            "net-serve drained: {req} request(s), {conns} connection(s), "
            "{restarts} worker restart(s), {rej} shutdown rejection(s)".format(
                req=int(counters.get("net.requests", 0)),
                conns=int(counters.get("net.connections", 0)),
                restarts=int(counters.get("net.worker_restarts", 0)),
                rej=int(counters.get("net.rejected.shutting_down", 0)),
            ),
            file=sys.stderr,
        )
        if stats.get("gossip") is not None:
            print(
                "gossip: {rounds} round(s), {sent} record(s) sent, "
                "{merged} merged, {down} peer-down event(s)".format(
                    rounds=int(counters.get("net.gossip.rounds", 0)),
                    sent=int(counters.get("net.gossip.records_sent", 0)),
                    merged=int(counters.get("net.gossip.records_merged", 0)),
                    down=int(counters.get("net.gossip.peer_down", 0)),
                ),
                file=sys.stderr,
            )
    return 0


def _cmd_net_solve(args: argparse.Namespace) -> int:
    """Stream requests to a running ``net-serve`` over one pooled client.

    One JSON response line per request line, in request order; transport
    failures surface as in-band ``{"status": "error"}`` lines so a flaky
    network cannot desynchronize stdout from the request stream.
    """
    import json

    from repro.net import NetClient, NetError
    from repro.service import iter_request_payloads, safe_parse

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"net-solve: bad --connect {args.connect!r} (expected HOST:PORT)")
    client = NetClient(
        host or "127.0.0.1",
        port,
        timeout_s=args.timeout,
        retries=args.retries,
        secret=args.secret,
    )
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        stream = open(args.input) if args.input is not None else sys.stdin
        served = errors = 0
        try:
            for payload in iter_request_payloads(stream):
                if not isinstance(payload, dict) or payload.get("status") == "error":
                    # No frame carries a non-object, and a line that was not
                    # JSON is already its own answer: both answer here.
                    response = safe_parse(payload)[1]
                else:
                    try:
                        response = client.solve_payload(payload)
                    except NetError as exc:
                        response = {
                            "id": str(payload.get("id", "")),
                            "status": "error",
                            "detail": f"{type(exc).__name__}: {exc}",
                        }
                if response.get("status") == "ok":
                    served += 1
                else:
                    errors += 1
                print(json.dumps(response), flush=True)
        finally:
            if args.input is not None:
                stream.close()
        print(
            f"net-solve: {served} ok, {errors} not-ok; "
            f"client retries={client.metrics['retries']}, "
            f"timeouts={client.metrics['timeouts']}",
            file=sys.stderr,
        )
        return 0
    finally:
        client.close()


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.algorithm import DecentralizedAllocator
    from repro.obs import JsonLinesSink, MetricsRegistry, RunReport

    problem, start = _build_instance(args)
    registry = None
    sink = None
    if args.emit_metrics is not None:
        registry = MetricsRegistry()
        sink = JsonLinesSink(args.emit_metrics)
        registry.add_sink(sink)
    try:
        result = DecentralizedAllocator(
            problem, alpha=args.alpha, epsilon=args.epsilon, registry=registry
        ).run(start, engine=args.engine)
    finally:
        if sink is not None:
            sink.close()
    status = "converged" if result.converged else "did NOT converge"
    print(f"{problem.name}: {status} after {result.iterations} iterations")
    print(f"final cost: {result.cost:.6g}")
    print("allocation:", np.array2string(result.allocation, precision=4))
    if args.plot:
        from repro.experiments import ascii_plot

        print(ascii_plot({"cost": result.trace.costs()}, title="convergence profile"))
    if registry is not None:
        print(f"metrics: {sink.emitted} events -> {args.emit_metrics}")
        print(RunReport.from_registry(registry, name=problem.name).summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Solve while streaming every iteration as a JSON line."""
    from repro.core.algorithm import DecentralizedAllocator
    from repro.obs import JsonLinesSink, MetricsRegistry

    problem, start = _build_instance(args)
    registry = MetricsRegistry()
    sink = (
        JsonLinesSink(args.out)
        if args.out is not None
        else JsonLinesSink(sys.stdout)
    )
    registry.add_sink(sink)
    try:
        result = DecentralizedAllocator(
            problem, alpha=args.alpha, epsilon=args.epsilon, registry=registry
        ).run(start)
    finally:
        sink.close()
    if args.out is not None:
        status = "converged" if result.converged else "did NOT converge"
        print(
            f"{problem.name}: {status} after {result.iterations} iterations; "
            f"{sink.emitted} events -> {args.out}"
        )
    return 0


def _print_figure(number: int) -> None:
    from repro.experiments import ascii_plot, figures
    from repro.utils.tables import format_table

    if number == 3:
        res = figures.figure3()
        print(format_table(res.HEADERS, res.rows(), title="Figure 3: convergence profiles"))
        print(ascii_plot(
            {f"alpha={a:g}": p for a, p in sorted(res.profiles.items(), reverse=True)},
            title="cost vs iteration",
        ))
    elif number == 4:
        res = figures.figure4()
        print(format_table(res.HEADERS, res.rows(), title="Figure 4: fragmentation vs integral"))
    elif number == 5:
        res = figures.figure5()
        print(format_table(res.HEADERS, res.rows(), title="Figure 5: iterations vs alpha"))
        print(f"best alpha: {res.best_alpha:g}; plateau width: {res.plateau_width():.3g}")
    elif number == 6:
        res = figures.figure6()
        print(format_table(res.HEADERS, res.rows(), title="Figure 6: iterations vs N"))
        print("flat in N:" , res.is_flat())
    elif number == 8:
        res = figures.figure8()
        print(format_table(res.HEADERS, res.rows(), title="Figure 8: multi-copy profiles"))
        print("comm-dominated oscillates more:", res.comm_oscillates_more)
    elif number == 9:
        res = figures.figure9()
        print(format_table(res.HEADERS, res.rows(), title="Figure 9: alpha vs oscillation"))
        print("smaller alpha oscillates less:", res.smaller_alpha_oscillates_less)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "figure":
        _print_figure(args.number)
        return 0
    if args.command == "figures":
        for number in (3, 4, 5, 6, 8, 9):
            _print_figure(number)
            print()
        return 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "net-serve":
        return _cmd_net_serve(args)
    if args.command == "net-solve":
        return _cmd_net_solve(args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        print(generate_report(fast=args.fast))
        return 0
    if args.command == "topology":
        from repro.network.visualize import adjacency_art, topology_summary

        topo = _TOPOLOGIES[args.family](args.nodes)
        print(topology_summary(topo))
        print()
        print(adjacency_art(topo))
        return 0
    if args.command == "copies":
        from repro.multicopy import optimal_copy_count_with_writes
        from repro.network.virtual_ring import VirtualRing
        from repro.utils.tables import format_table

        ring = VirtualRing([1.0] * args.nodes)
        sweep = optimal_copy_count_with_writes(
            ring,
            np.ones(args.nodes),
            mu=args.mu,
            write_fraction=args.write_fraction,
            storage_cost_per_copy=args.storage_cost,
        )
        print(
            format_table(
                sweep.HEADERS,
                sweep.rows(),
                title=(
                    f"Copy-count sweep: {args.nodes}-node unit ring, "
                    f"{args.write_fraction:.0%} writes"
                ),
            )
        )
        print(f"optimal m = {sweep.best.copies}")
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
