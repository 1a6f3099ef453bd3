"""repro.net — the sharded socket transport over the allocation service.

PR 4 made allocation a *service* (:mod:`repro.service`: micro-batching,
solution cache, admission control), but only in-process or over
stdin/stdout — one client owned the cache and batcher.  This subsystem
puts that service behind a TCP front end and scales it across worker
processes without giving up what makes the service fast:

* :class:`NetServer` — one :mod:`selectors` event-loop thread owns every
  socket; every connection speaks the binary wire
  (:mod:`repro.net.binary`: struct-packed headers, raw float64 bodies,
  plain dicts as JSON bodies inside the same frames).  Requests route
  into *bounded* shard queues, one per worker process, each running its
  own :class:`~repro.service.AllocationService` + cache; a full queue
  answers with a structured ``overloaded`` rejection.  The loop never
  parses a request: the worker does;
* :func:`routing_key` / :func:`shard_for` (:mod:`repro.net.router`) —
  read a request's network off the frame (its cost matrix's structural
  key, or its named topology and size), so repeats hit the
  cache that stored them and same-shape requests micro-batch together;
* :class:`NetClient` — connection pooling, request pipelining
  (:meth:`~NetClient.request_many`: many frames in flight per
  connection, responses matched by frame id), per-request deadlines,
  one bounded retry budget, optional shared-secret HMAC authentication;
  typed and dict-shaped surfaces mirroring
  :class:`~repro.service.AllocationService`'s;
* :class:`GossipAgent` (:mod:`repro.net.gossip`) — with ``--peers``,
  servers form a static mesh and epidemically replicate their
  :class:`LookasideTier` donor records: rumor pushes spread fresh
  converged solutions in one round, periodic digest/pull anti-entropy
  repairs whatever rumors missed, all under a bytes/second budget.
  Records carry TTL, origin server id and a per-key epoch
  (newest-epoch-wins), so one server's convergence becomes every
  server's warm start.

Robustness is part of the contract: SIGTERM drains gracefully
(in-flight work finishes; queued work gets structured ``shutting_down``
rejections), a crashed worker is respawned with in-band
``worker_restarted`` errors for exactly the requests it took down, and
the ``stats`` control verb merges every worker's ``service.*`` metrics
with the server's ``net.*`` family.  No frame can stop the server: one
that does not decode, or whose handling fails, closes only the
connection (or peer link) it arrived on.

Quick start::

    from repro.net import NetServer, NetClient

    with NetServer(port=0, workers=2) as server:
        host, port = server.address
        with NetClient(host, port) as client:
            client.solve_payload({
                "id": "r1",
                "problem": {"topology": "ring", "nodes": 4, "mu": 1.5},
                "alpha": 0.3,
            })                      # same dict repro-fap serve would print
            client.stats()          # merged service.* + net.* metrics

``repro-fap net-serve`` / ``repro-fap net-solve`` are the CLI faces;
docs/COOKBOOK.md ("Serving over the network") and docs/PERFORMANCE.md
(measured scaling and shard-affinity numbers) cover operation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "binary": [
        "BINARY_MAGIC",
        "BINARY_VERSION",
        "BinaryFrameError",
        "BinaryFrameReader",
        "FrameError",
        "MAX_FRAME_BYTES",
        "decode_binary_frames",
        "decode_forwarded",
        "encode_binary_frame",
        "send_binary_frame",
    ],
    "client": ["NetAuthError", "NetClient", "NetConnectionError", "NetError", "NetTimeout"],
    "gossip": ["GOSSIP_OPS", "GossipAgent"],
    "lookaside": ["LookasideTier", "donor_record", "params_from_payload", "wire_record"],
    "peers": ["PeerState", "parse_peers"],
    "router": ["routing_key", "shard_for", "shard_of_key"],
    "server": ["NetServer", "REJECT_OVERLOADED", "REJECT_SHUTTING_DOWN"],
    "worker": ["WorkerCrashed", "WorkerHandle", "worker_main"],
})
