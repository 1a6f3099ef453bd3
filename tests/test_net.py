"""Loopback integration tests for the sharded socket transport.

These start real :class:`~repro.net.NetServer` instances (worker
processes, TCP listeners on 127.0.0.1 ephemeral ports) and exercise the
contracts the subsystem exists for:

* **parity** — a request solved over the wire is bit-for-bit the solve
  an in-process :class:`~repro.service.AllocationService` produces, and
  repeats register exact cache hits in the merged stats;
* **crash recovery** — SIGKILL of a worker mid-solve produces structured
  ``worker_restarted`` errors for exactly the in-flight requests, a
  respawned worker, and working service afterwards (never a hung
  connection);
* **drain** — a draining server answers with structured
  ``shutting_down`` rejections, and the CLI pair survives a SIGTERM
  round trip end to end;
* **no frame stops the server** — a frame that does not decode, or whose
  handling fails, closes its own connection and nothing else.
"""

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.net import (
    BINARY_MAGIC,
    BinaryFrameReader,
    NetAuthError,
    NetClient,
    NetConnectionError,
    NetServer,
    NetTimeout,
    REJECT_OVERLOADED,
    REJECT_SHUTTING_DOWN,
    send_binary_frame,
)
from repro.net import binary as wire
from repro.net.router import routing_key, shard_for
from repro.net.worker import ERROR_WORKER_RESTARTED, WorkerHandle
from repro.service import AllocationService, ServiceConfig
from repro.service import codec
from repro.service.codec import parse_request, safe_parse
from repro.service.fingerprint import structural_key

from tests.test_net_unit import raw_frame


def ring_payload(i=0, *, nodes=4, mu=1.5, alpha=0.3, start="skewed"):
    return {
        "id": f"r{i}",
        "problem": {"topology": "ring", "nodes": nodes, "mu": mu},
        "alpha": alpha,
        "start": start,
    }


def varied_payloads(count, *, seed=0):
    """Raw-matrix payloads over a couple of structures (wire-exact floats)."""
    rng = np.random.default_rng(seed)
    payloads = []
    for i in range(count):
        n = 4 if i % 2 == 0 else 5
        payloads.append(
            {
                "id": f"v{i}",
                "problem": {
                    "cost_matrix": [
                        [0.0 if r == c else float(rng.uniform(0.5, 2.0)) for c in range(n)]
                        for r in range(n)
                    ],
                    "access_rates": [float(v) for v in rng.uniform(0.02, 0.15, size=n)],
                    "mu": [float(v) for v in rng.uniform(1.5, 3.0, size=n)],
                    "k": 1.0,
                },
                "alpha": float(rng.uniform(0.15, 0.35)),
                "start": [float(v) for v in rng.dirichlet(np.ones(n))],
            }
        )
    return payloads


SLOW_PAYLOAD = {
    # ~10s of fused iterations at ~60k it/s: plenty of time to SIGKILL
    # the worker mid-solve, bounded if the kill somehow never lands.
    "id": "slow",
    "problem": {"topology": "ring", "nodes": 8, "mu": 1.5},
    "alpha": 1e-6,
    "epsilon": 1e-15,
    "max_iterations": 600_000,
    "start": "skewed",
}


def strip_latency(response):
    clean = dict(response)
    clean.pop("latency_s", None)
    return clean


class TestLoopbackParity:
    def test_networked_solves_match_in_process_bit_for_bit(self):
        payloads = varied_payloads(6)
        local = AllocationService(max_batch=8)
        expected = [local.solve_payloads([dict(p)])[0] for p in payloads]
        with NetServer(port=0, workers=2) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                got = [client.solve_payload(dict(p)) for p in payloads]
        for want, have in zip(expected, got):
            assert want["status"] == "ok"
            assert strip_latency(have) == strip_latency(want)
            assert have["allocation"] == want["allocation"]  # exact floats

    def test_repeats_are_exact_cache_hits_in_merged_stats(self):
        with NetServer(port=0, workers=2) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                first = client.solve_payload(ring_payload())
                repeats = [client.solve_payload(ring_payload()) for _ in range(3)]
                stats = client.stats()
        assert first["cache"] == "miss"
        for r in repeats:
            assert r["cache"] == "hit"
            assert r["allocation"] == first["allocation"]
            assert r["iterations"] == 0  # answered from cache, no solve ran
            assert r["converged"] is True
        counters = stats["counters"]
        assert counters["service.cache.hit"] == 3
        assert counters["net.requests"] == 4
        # Affinity routing put every repeat on one shard.
        assert max(s["routed"] for s in stats["shards"]) == 4

    def test_typed_surface_and_control_verbs(self):
        request = parse_request(ring_payload(7))
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                assert client.ping()
                response = client.solve(request)
                assert response.ok and response.request_id == "r7"
                many = client.solve_many([parse_request(ring_payload(i)) for i in (1, 2)])
                assert [r.request_id for r in many] == ["r1", "r2"]
                stats = client.stats()
        assert [s["shard"] for s in stats["shards"]] == [0]
        assert [w["alive"] for w in stats["workers"]] == [True]


class TestRoutingWithoutParsing:
    """The event loop routes on the decoded frame alone; the worker is
    the only process that parses a request."""

    def test_event_loop_parses_no_request(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("the event loop parsed a request")

        with NetServer(port=0, workers=2) as server:
            # The workers forked with the real parser; only the server's
            # own process sees the patch.
            monkeypatch.setattr(codec, "_parse_problem", refuse)
            host, port = server.address
            with NetClient(host, port) as client:
                reply = client.solve_payload(ring_payload(nodes=6))
        assert reply["status"] == "ok" and reply["id"] == "r0"

    def test_event_loop_forwards_packed_bodies_unopened(self, monkeypatch):
        """A packed solve reaches the worker pipe as its body bytes, with
        the id the loop read off it, on the shard its decoded payload
        routes to."""
        sent = []
        roundtrip = WorkerHandle.roundtrip

        def recording(handle, message):
            if message[0] == "solve":
                sent.extend((handle.index, item) for item in message[1])
            return roundtrip(handle, message)

        monkeypatch.setattr(WorkerHandle, "roundtrip", recording)
        payload = varied_payloads(1, seed=5)[0]
        with NetServer(port=0, workers=2) as server:
            with NetClient(*server.address) as client:
                reply = client.solve_payload(dict(payload, id="fw"))
        assert reply["status"] == "ok" and reply["id"] == "fw"
        [(shard, item)] = sent
        assert set(item) == {"id", "packed"} and isinstance(item["packed"], bytes)
        assert item["id"] == "fw"
        assert routing_key(item) == structural_key(parse_request(payload).problem)
        assert shard == shard_for(payload, 2)

    def test_malformed_solves_get_the_in_band_parse_error(self):
        bad = [
            {"id": "b1", "problem": {"topology": "hexagon"}},
            {"id": "b2"},
            {"id": "b3", "problem": {"cost_matrix": [[0.0, 1.0]], "access_rates": [1.0]}},
            {"id": "b4", "problem": {"topology": "line", "nodes": 10**9}},
        ]
        with NetServer(port=0, workers=2) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                replies = [client.solve_payload(dict(p)) for p in bad]
                assert client.ping()
        assert replies == [safe_parse(p)[1] for p in bad]

    def test_unconvertible_numbers_leave_the_lookaside_shard_serving(self):
        # The shard thread computes lookaside hints from the unparsed
        # payload; an int too large for a float must cost no hint, not
        # the thread that every later request of the shard waits on.
        huge = 10**400
        matrix = [[0.0, 1.0], [1.0, 0.0]]
        bad = [
            {"id": "k", "problem": {"cost_matrix": matrix, "access_rates": [0.5, 0.5],
                                    "mu": [1.5, 1.5], "k": huge}},
            {"id": "mu", "problem": {"cost_matrix": matrix, "access_rates": [0.5, 0.5],
                                     "mu": [huge, 1.5]}},
            {"id": "rates", "problem": {"cost_matrix": matrix, "access_rates": [huge, 0.5],
                                        "mu": [1.5, 1.5]}},
        ]
        with NetServer(port=0, workers=1, lookaside=True) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=10.0) as client:
                replies = [client.solve_payload(dict(p)) for p in bad]
                after = client.solve_payload(ring_payload())
        assert replies == [safe_parse(p)[1] for p in bad]
        assert all("OverflowError" in r["detail"] for r in replies)
        assert after["status"] == "ok" and after["id"] == "r0"

    def test_a_payload_the_worker_cannot_receive_spoils_no_batch_mate(self):
        from repro.net.server import _WorkItem

        # JSON decodes this nesting, but pickling it for the worker pipe
        # recurses too deep; the batch it rides in must still be served.
        deep = 0.5
        for _ in range(600):
            deep = [deep]
        payloads = [
            ring_payload(0),
            {"id": "deep", "problem": {"cost_matrix": deep, "access_rates": [0.5, 0.5]}},
            ring_payload(2),
        ]
        replies = {}
        with NetServer(port=0, workers=1, lookaside=True) as server:
            batch = [
                _WorkItem(payload=p, request_id=p["id"],
                          reply=lambda r, i=p["id"]: replies.setdefault(i, r))
                for p in payloads
            ]
            server._dispatch(server._workers[0], batch)
            host, port = server.address
            with NetClient(host, port, timeout_s=10.0) as client:
                wire_reply = client.solve_payload(dict(payloads[1]))
                after = client.solve_payload(ring_payload(3))
        assert replies["r0"]["status"] == "ok" and replies["r2"]["status"] == "ok"
        assert replies["deep"]["status"] == "error"
        assert replies["deep"]["detail"].startswith("dispatch failed: RecursionError")
        assert wire_reply == replies["deep"]
        assert after["status"] == "ok"

    def test_id_less_rejections_carry_an_empty_id(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                assert client.ping()  # connect before the drain starts
                server._draining = True
                payload = ring_payload()
                del payload["id"]
                reply = client.solve_payload(payload)
        assert reply["id"] == ""
        assert reply["reason"] == REJECT_SHUTTING_DOWN


class TestCodecNegotiation:
    """The handshake verb and the header checks every connection's first
    frame goes through."""

    def test_hello_reports_negotiation(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                reply = client.request({"op": "hello"})
        assert reply["status"] == "ok"
        assert reply["auth"] is False

    def test_single_codec_server_refuses_the_other_protocol(self):
        # net-serve is configured for the binary wire (and affinity
        # routing) only; a JSON frame on the wire is refused in-band, see
        # TestClientRobustness.test_malformed_frame_fails_only_that_connection.
        for flag, value in (("--codec", "json"), ("--routing", "random")):
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "net-serve", flag, value],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 2
            assert "invalid choice" in result.stderr

    def test_malformed_binary_header_fails_only_that_connection(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            bad = socket.create_connection((host, port), timeout=5.0)
            try:
                # Valid magic, absurd version: the header parse fails and
                # the error comes back in-band as a binary frame before
                # the server closes the connection.
                bad.sendall(BINARY_MAGIC + b"\xff" + b"\x00" * 40)
                reader = BinaryFrameReader(bad)
                reply, _rid = reader.read()
                assert reply["status"] == "error"
                assert reply["reason"] == "bad_frame"
                assert "version" in reply["detail"]
                assert reader.read() is None  # server closed it
            finally:
                bad.close()
            # The server itself is fine.
            with NetClient(host, port) as client:
                assert client.ping()


class TestAuth:
    def test_right_secret_authenticates(self):
        # A packed solve body and a JSON-bodied one take different server
        # paths after the auth gate; both are served once authenticated.
        with NetServer(port=0, workers=1, secret="s3cret") as server:
            host, port = server.address
            for payload in (varied_payloads(1)[0], ring_payload()):
                with NetClient(host, port, secret="s3cret") as client:
                    response = client.solve_payload(payload)
                    assert response["status"] == "ok"
            with NetClient(host, port, secret="s3cret") as client:
                stats = client.stats()
        assert stats["auth"] is True
        assert stats["counters"]["net.auth_ok"] == 3.0

    def test_wrong_secret_is_rejected_in_band(self):
        with NetServer(port=0, workers=1, secret="s3cret") as server:
            host, port = server.address
            with NetClient(host, port, secret="wrong", retries=0) as client:
                with pytest.raises(NetAuthError, match="auth_failed"):
                    client.solve_payload(ring_payload())
            # The server still serves properly-authenticated clients.
            with NetClient(host, port, secret="s3cret") as client:
                assert client.ping()

    def test_missing_secret_is_rejected_in_band(self):
        with NetServer(port=0, workers=1, secret="s3cret") as server:
            host, port = server.address
            with NetClient(host, port, retries=0) as client:
                response = client.solve_payload(ring_payload())
                assert response["status"] == "error"
                assert response["reason"] == "auth_required"
            # Control verbs are gated too (except the handshake itself).
            with NetClient(host, port, retries=0) as client:
                reply = client.request({"op": "stats"})
                assert reply["reason"] == "auth_required"


class TestPipelining:
    def test_binary_burst_returns_in_input_order_with_parity(self):
        payloads = varied_payloads(12, seed=5)
        local = AllocationService(max_batch=8)
        expected = [local.solve_payloads([dict(p)])[0] for p in payloads]
        with NetServer(port=0, workers=2) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                got = client.solve_payloads([dict(p) for p in payloads])
        assert [r["id"] for r in got] == [p["id"] for p in payloads]
        for want, have in zip(expected, got):
            assert have["status"] == "ok"
            # Batched under pipelining, singleton locally: bit-for-bit
            # parity of the answer is the PR-4 invariant; batch_size and
            # cache disposition legitimately depend on arrival timing.
            skip = ("latency_s", "batch_size", "cache")
            assert {k: v for k, v in have.items() if k not in skip} == \
                {k: v for k, v in want.items() if k not in skip}


class TestBackpressure:
    def test_full_shard_queue_rejects_overloaded(self):
        # One worker, queue depth 1.  A long solve occupies the worker,
        # the next request fills the queue, and the one after that must
        # be rejected *immediately* — while the worker is still busy —
        # instead of queueing without bound.
        slow = dict(SLOW_PAYLOAD, max_iterations=120_000)  # ~1-2s bounded
        with NetServer(port=0, workers=1, service=ServiceConfig(queue_depth=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                send_binary_frame(sock, slow, 1)
                time.sleep(0.5)  # worker picked it up; queue is empty
                send_binary_frame(sock, ring_payload(1), 2)
                time.sleep(0.2)  # now parked in the bounded shard queue
                send_binary_frame(sock, ring_payload(2), 3)
                reader = BinaryFrameReader(sock)
                frames = [reader.read() for _ in range(3)]
            finally:
                sock.close()
            stats = server.stats()
        replies = [payload for payload, _ in frames]
        # The rejection arrived first: the server answered it while the
        # worker was still grinding on the slow solve.
        assert frames[0][1] == 3  # echoed frame id of the third request
        assert replies[0]["id"] == "r2"
        assert replies[0]["status"] == "rejected"
        assert replies[0]["reason"] == REJECT_OVERLOADED
        by_id = {r["id"]: r for r in replies}
        assert by_id["slow"]["status"] == "ok"
        assert by_id["r1"]["status"] == "ok"
        assert stats["counters"]["net.rejected.overloaded"] == 1.0


class TestCrashRecovery:
    def test_sigkill_mid_solve_yields_structured_error_and_respawn(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=60.0, retries=0) as client:
                results = {}

                def solve_slow():
                    results["slow"] = client.solve_payload(SLOW_PAYLOAD)

                thread = threading.Thread(target=solve_slow)
                thread.start()
                time.sleep(1.0)  # the worker is deep in the solve by now
                [pid] = server.worker_pids()
                os.kill(pid, signal.SIGKILL)
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "lost request hung the connection"
                error = results["slow"]
                assert error["status"] == "error"
                assert error["reason"] == ERROR_WORKER_RESTARTED
                assert error["id"] == "slow"
                # The respawned worker serves the very next request.
                after = client.solve_payload(ring_payload(1))
                assert after["status"] == "ok"
                stats = client.stats()
        counters = stats["counters"]
        assert counters["net.worker_restarts"] == 1
        assert counters["net.requests_lost"] == 1
        assert [w["restarts"] for w in stats["workers"]] == [1]
        assert [w["alive"] for w in stats["workers"]] == [True]
        [new_pid] = [w["pid"] for w in stats["workers"]]
        assert new_pid != pid

    def test_idle_worker_kill_is_transparent(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                assert client.solve_payload(ring_payload())["status"] == "ok"
                [pid] = server.worker_pids()
                os.kill(pid, signal.SIGKILL)
                # Wait for the handle to observe the death (is_alive()
                # reaps); immediately after SIGKILL it can still read as
                # alive, which is the mid-dispatch path, not this one.
                deadline = time.monotonic() + 10.0
                while server._workers[0].alive and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert not server._workers[0].alive
                # Nothing was in flight: the dead worker is respawned on
                # contact and the request succeeds (cold cache, so a miss).
                response = client.solve_payload(ring_payload())
                assert response["status"] == "ok"
                assert response["cache"] == "miss"


class TestDrain:
    def test_draining_server_rejects_new_requests_structurally(self):
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                assert client.ping()
                server._draining = True  # the SIGTERM handler's first act
                response = client.solve_payload(ring_payload())
                assert response["status"] == "rejected"
                assert response["reason"] == REJECT_SHUTTING_DOWN

    def test_queued_items_get_rejections_on_stop(self):
        server = NetServer(port=0, workers=1)  # never started: pure queue logic
        replies = []
        q = queue.Queue()
        from repro.net.server import _STOP, _WorkItem

        for i in range(3):
            q.put(_WorkItem(payload={}, request_id=f"q{i}", reply=replies.append))
        q.put(_STOP)
        server._reject_remaining(q)
        assert [r["id"] for r in replies] == ["q0", "q1", "q2"]
        assert all(r["reason"] == REJECT_SHUTTING_DOWN for r in replies)

    def test_shutdown_is_idempotent_and_reusable_stats(self):
        server = NetServer(port=0, workers=1).start()
        host, port = server.address
        with NetClient(host, port) as client:
            assert client.solve_payload(ring_payload())["status"] == "ok"
        server.shutdown()
        server.shutdown()  # second call is a no-op
        stats = server.stats()  # post-shutdown stats must not respawn workers
        assert stats["draining"] is True
        assert stats["counters"]["net.requests"] == 1
        assert all(not w["alive"] for w in stats["workers"])


class TestClientRobustness:
    def test_deadline_yields_net_timeout(self):
        # A listener that accepts and never replies: the client's
        # deadline, not the server, must end the wait.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            with NetClient(host, port, timeout_s=0.3, retries=0) as client:
                with pytest.raises(NetTimeout):
                    client.solve_payload(ring_payload())
                assert client.metrics["timeouts"] == 1
        finally:
            listener.close()

    def test_retry_succeeds_after_dropped_connection(self):
        # First connection is dropped before a reply; the second is
        # served.  The client must retry on a fresh connection and win.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        host, port = listener.getsockname()

        def flaky_server():
            first, _ = listener.accept()
            BinaryFrameReader(first).read()
            first.close()  # mid-request drop
            second, _ = listener.accept()
            payload, request_id = BinaryFrameReader(second).read()
            send_binary_frame(second, {"id": payload.get("id", ""), "status": "ok",
                                       "allocation": [1.0], "cost": 0.0,
                                       "iterations": 0, "converged": True},
                              request_id)
            second.close()

        thread = threading.Thread(target=flaky_server, daemon=True)
        thread.start()
        try:
            with NetClient(host, port, timeout_s=10.0, retries=2,
                           backoff_s=0.01) as client:
                response = client.solve_payload(ring_payload())
                assert response["status"] == "ok"
                assert client.metrics["retries"] == 1
                # The dropped connection's replacement is a *reconnect*;
                # only the very first connection counts as a connect.
                assert client.metrics["connects"] == 1
                assert client.metrics["reconnects"] == 1
            thread.join(timeout=5.0)
        finally:
            listener.close()

    def test_retry_budget_exhaustion_is_structured(self):
        # Nothing listens here: connect fails, retries burn down, and the
        # caller gets a typed error rather than a raw socket exception.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # port is now (very likely) unbound
        with NetClient(host, port, timeout_s=5.0, retries=1,
                       backoff_s=0.01) as client:
            with pytest.raises(NetConnectionError, match="after 2 attempt"):
                client.solve_payload(ring_payload())
            assert client.metrics["retries"] == 1

    def test_malformed_frame_fails_only_that_connection(self):
        legacy_json_ping = b'13\n{"op":"ping"}'  # 16 bytes: less than a header
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            for garbage in (b"x" * 64, legacy_json_ping):
                bad = socket.create_connection((host, port), timeout=5.0)
                try:
                    bad.sendall(garbage)
                    reader = BinaryFrameReader(bad)
                    reply, _rid = reader.read()
                    assert reply["status"] == "error"
                    assert reply["reason"] == "bad_frame"
                    assert "magic" in reply["detail"]
                    assert reader.read() is None  # server closed it
                finally:
                    bad.close()
            # The server itself is fine.
            with NetClient(host, port) as client:
                assert client.ping()
                assert client.stats()["counters"]["net.bad_frames"] == 2


def _json_frame(payload):
    return raw_frame(wire.KIND_JSON, json.dumps(payload).encode())


def _solve_with_non_utf8_id():
    frame = bytearray(wire.encode_binary_frame(dict(varied_payloads(1)[0], id="x")))
    frame[wire.HEADER_BYTES + wire._SOLVE_FRONT.size] = 0xFF  # the id's one byte
    return bytes(frame)


def _solve_with_non_utf8_name():
    payload = varied_payloads(1)[0]
    payload = dict(payload, id="x", problem=dict(payload["problem"], name="y"))
    frame = bytearray(wire.encode_binary_frame(payload))
    frame[wire.HEADER_BYTES + wire._SOLVE_FRONT.size + 1] = 0xFF  # the name's one byte
    return bytes(frame)


#: Single frames whose decoding or handling raises.  Each must fail only
#: its own connection: frames are decoded before any authentication
#: check, so any client could send one.
LOOP_KILLERS = {
    "solve-id-not-utf8": _solve_with_non_utf8_id(),
    "solve-name-not-utf8": _solve_with_non_utf8_name(),
    "result-id-overruns-body": raw_frame(
        wire.KIND_RESULT, wire._RESULT_FRONT.pack(1.0, 0.0, 3, 1, 0, 8)
    ),
    "gossip-server-id-not-utf8": raw_frame(
        wire.KIND_GOSSIP_RECORDS, wire._GOSSIP_BATCH_FRONT.pack(1, 0) + b"\xff"
    ),
    "json-nested-too-deep": raw_frame(wire.KIND_JSON, b"[" * 100_000),
    "gossip-digest-bad-bucket": _json_frame(
        {"op": "gossip_digest", "buckets": {"x": [1]}}
    ),
    "gossip-records-not-dicts": _json_frame({"op": "gossip_records", "records": [5]}),
    "gossip-record-without-iterations": _json_frame({
        "op": "gossip_records",
        "records": [{"key": "k", "n": 1, "params": [1.0, 1.0, 1.0], "allocation": [1.0]}],
    }),
}


class TestNoFrameStopsTheServer:
    @pytest.mark.parametrize("name", sorted(LOOP_KILLERS))
    def test_bad_frame_fails_only_its_connection(self, name):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_peer = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        # Gossip on (its peer is down), so the gossip handlers run too.
        with NetServer(port=0, workers=1, lookaside=True, peers=dead_peer) as server:
            host, port = server.address
            bad = socket.create_connection((host, port), timeout=5.0)
            try:
                bad.sendall(LOOP_KILLERS[name])
                reader = BinaryFrameReader(bad)
                reply, _rid = reader.read()
                assert reply["reason"] == "bad_frame", reply
                assert reader.read() is None  # server closed it
            finally:
                bad.close()
            with NetClient(host, port, retries=0) as client:
                assert client.ping()
                assert client.stats()["counters"]["net.bad_frames"] == 1

    def test_bad_frame_from_a_peer_fails_only_that_link(self):
        fake_peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        fake_peer.bind(("127.0.0.1", 0))
        fake_peer.listen(4)
        fake_peer.settimeout(10.0)
        peer = "127.0.0.1:%d" % fake_peer.getsockname()[1]
        try:
            with NetServer(port=0, workers=1, lookaside=True, peers=peer,
                           gossip_interval_s=0.05) as server:
                link, _ = fake_peer.accept()  # the server's outbound link
                try:
                    link.settimeout(10.0)
                    link.sendall(LOOP_KILLERS["gossip-records-not-dicts"])
                    while link.recv(65536):  # heartbeats, then EOF
                        pass
                finally:
                    link.close()
                with NetClient(*server.address, retries=0) as client:
                    assert client.ping()
                    counters = client.stats()["counters"]
        finally:
            fake_peer.close()
        assert counters["net.gossip.peer_down"] >= 1


class TestNetCli:
    def test_net_serve_net_solve_round_trip_with_sigterm(self, tmp_path):
        metrics_path = tmp_path / "net_stats.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "net-serve", "--port", "0",
             "--workers", "2", "--routing", "affinity", "--codec", "binary",
             "--metrics-out", str(metrics_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = json.loads(proc.stdout.readline())
            assert announce["event"] == "listening"
            address = f"{announce['host']}:{announce['port']}"

            requests = "\n".join(
                json.dumps(ring_payload(i)) for i in range(3)
            ) + "\n"
            solve = subprocess.run(
                [sys.executable, "-m", "repro.cli", "net-solve",
                 "--connect", address],
                input=requests, capture_output=True, text=True, timeout=60,
            )
            assert solve.returncode == 0
            responses = [json.loads(l) for l in solve.stdout.strip().splitlines()]
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert [r["cache"] for r in responses] == ["miss", "hit", "hit"]
            assert "3 ok, 0 not-ok" in solve.stderr

            stats = subprocess.run(
                [sys.executable, "-m", "repro.cli", "net-solve",
                 "--connect", address, "--stats"],
                capture_output=True, text=True, timeout=60,
            )
            assert stats.returncode == 0
            snapshot = json.loads(stats.stdout)
            assert snapshot["counters"]["service.cache.hit"] == 2
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert rc == 0
        assert "net-serve drained" in proc.stderr.read()
        final = json.loads(metrics_path.read_text())
        assert final["counters"]["net.requests"] == 3
        assert final["draining"] is True

    def test_net_solve_answers_lines_that_are_not_objects_in_band(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join([
            json.dumps(ring_payload(0)), "[1, 2]", "{ring 4", json.dumps(ring_payload(1, mu=2.0)),
        ]) + "\n")
        with NetServer(port=0, workers=1) as server:
            host, port = server.address
            assert main(["net-solve", "--connect", f"{host}:{port}",
                         "--input", str(requests)]) == 0
            with NetClient(host, port) as client:
                counters = client.stats()["counters"]
        out, err = capsys.readouterr()
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r["status"] for r in responses] == ["ok", "error", "error", "ok"]
        assert responses[1]["id"] == ""
        assert "JSON object" in responses[1]["detail"]
        assert "invalid JSON" in responses[2]["detail"]
        assert "2 ok, 2 not-ok" in err
        assert counters["net.requests"] == 2  # the two errors never left the client


class TestLookasideTier:
    """Unit semantics of the cross-shard donor tier."""

    @staticmethod
    def solved(payload):
        from repro.core.algorithm import solve

        request = parse_request(payload)
        result = solve(
            request.problem,
            alpha=request.alpha,
            epsilon=request.epsilon,
            max_iterations=request.max_iterations,
            initial_allocation=request.initial_allocation,
        )
        return request, result

    def test_publish_get_and_replace_on_republish(self):
        from repro.net import LookasideTier, donor_record

        tier = LookasideTier(capacity=4)
        request, result = self.solved(ring_payload())
        record = donor_record(request, result)
        assert record["n"] == 4
        tier.insert(record)
        assert len(tier) == 1
        donor = tier.get(request)
        assert np.array_equal(donor, result.allocation)
        donor[0] = 99.0  # a copy: the tier's record is untouched
        assert np.array_equal(tier.get(request), result.allocation)
        tier.publish(request, result)  # same problem: replaced, not duplicated
        assert len(tier) == 1

    def test_capacity_is_fifo_over_publish_order(self):
        from repro.net import LookasideTier, donor_record

        tier = LookasideTier(capacity=2)
        records = []
        for i, payload in enumerate(varied_payloads(3, seed=73)):
            request, result = self.solved(payload)
            records.append(donor_record(request, result))
            tier.insert(records[-1])
        assert len(tier) == 2
        assert records[0]["key"] not in tier._records  # oldest evicted
        assert records[2]["key"] in tier._records

    def test_distance_radius_bounds_donation(self):
        from repro.net import LookasideTier

        tier = LookasideTier(max_distance=0.05)
        request, result = self.solved(ring_payload())
        tier.publish(request, result)
        near = parse_request(ring_payload(mu=1.5001))
        far = parse_request(ring_payload(mu=15.0))
        assert tier.get(near) is not None
        assert tier.get(far) is None

    def test_params_from_payload_matches_parsed_problem(self):
        from repro.net import params_from_payload
        from repro.service import parameter_vector

        payload = varied_payloads(1, seed=74)[0]
        request = parse_request(payload)
        assert np.array_equal(
            params_from_payload(payload), parameter_vector(request.problem)
        )
        # Scalar mu broadcasts exactly like the parsed problem's vector.
        scalar = dict(payload)
        scalar["problem"] = dict(payload["problem"], mu=1.75)
        request = parse_request(scalar)
        assert np.array_equal(
            params_from_payload(scalar), parameter_vector(request.problem)
        )
        # Topology shorthands and malformed payloads get no hint.
        assert params_from_payload(ring_payload()) is None
        assert params_from_payload({"id": "x"}) is None
        assert params_from_payload({"problem": {"access_rates": "zzz", "mu": 1.0}}) is None

    def test_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.net import LookasideTier

        with pytest.raises(ConfigurationError):
            LookasideTier(capacity=0)
        with pytest.raises(ConfigurationError):
            LookasideTier(max_distance=0.0)


def cross_structure_payloads(*, seed=71, n=4):
    """Two payloads with identical parameters but perturbed cost
    matrices: different structural keys (so local caches cannot donate
    across them), near-zero parameter distance (so the lookaside can)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 2.0, size=(n, n))
    rates = [float(v) for v in rng.uniform(0.05, 0.2, size=n)]
    mu = [float(v) for v in rng.uniform(1.5, 3.0, size=n)]

    def payload(pid, scale):
        matrix = base * scale
        return {
            "id": pid,
            "problem": {
                "cost_matrix": [
                    [0.0 if r == c else float(matrix[r][c]) for c in range(n)]
                    for r in range(n)
                ],
                "access_rates": rates,
                "mu": mu,
                "k": 1.0,
            },
            "alpha": 0.25,
        }

    return payload("origin", 1.0), payload("drifted", 1.01)


class TestLookasideParity:
    """The lookaside contract: a tier-donated warm start is bit-for-bit
    the local warm start from the same donor."""

    def test_lookaside_matches_local_warm_bit_for_bit(self):
        from repro.net import LookasideTier

        n = 4
        rng = np.random.default_rng(79)
        matrix = rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(matrix, 0.0)
        rates = rng.uniform(0.05, 0.2, size=n)

        def request(rid, scale):
            from repro.core.model import FileAllocationProblem
            from repro.service import SolveRequest

            problem = FileAllocationProblem(matrix, rates * scale, k=1.0, mu=2.5)
            return SolveRequest(problem=problem, alpha=0.25, request_id=rid)

        tier = LookasideTier()
        donor_service = AllocationService(lookaside=tier)
        assert donor_service.solve(request("donor", 1.0)).cache == "miss"
        assert len(tier) == 1

        # Control: the donor lives in the *local* cache -> plain warm.
        control = AllocationService()
        control.solve(request("donor", 1.0))
        local = control.solve(request("probe", 1.02))
        assert local.cache == "warm"

        # Same probe against a service whose local cache is empty but
        # which shares the tier -> lookaside, same effective request.
        shared = AllocationService(lookaside=tier)
        look = shared.solve(request("probe", 1.02))
        assert look.cache == "lookaside"
        assert np.array_equal(look.allocation, local.allocation)
        assert look.cost == local.cost
        assert look.iterations == local.iterations

    def test_lookaside_crosses_structure_boundaries_over_the_wire(self):
        from repro.core.algorithm import solve

        origin, drifted = cross_structure_payloads()
        with NetServer(port=0, workers=2, lookaside=True) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                first = client.solve_payload(dict(origin))
                repeat = client.solve_payload(dict(origin))
                crossed = client.solve_payload(dict(drifted))
                stats = client.stats()
        assert first["cache"] == "miss"
        # The tier never shadows a local exact hit.
        assert repeat["cache"] == "hit"
        # The drifted structure solves nowhere locally -- its donor came
        # through the tier, whichever shard it landed on.
        assert crossed["cache"] == "lookaside"
        counters = stats["counters"]
        assert counters["net.lookaside.published"] >= 1
        assert counters["net.lookaside.hits"] >= 1
        assert counters["service.cache.lookaside"] == 1
        assert stats["lookaside"] >= 1
        # Parity: bit-for-bit the solve of the drifted problem started
        # from the origin's converged allocation.
        request = parse_request(drifted)
        ref = solve(
            request.problem,
            alpha=request.alpha,
            epsilon=request.epsilon,
            max_iterations=request.max_iterations,
            initial_allocation=np.array(first["allocation"], dtype=float),
        )
        assert np.array_equal(np.array(crossed["allocation"]), ref.allocation)
        assert crossed["cost"] == ref.cost
        assert crossed["iterations"] == ref.iterations

    def test_lookaside_off_by_default_keeps_shards_disjoint(self):
        origin, drifted = cross_structure_payloads(seed=83)
        with NetServer(port=0, workers=2) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                client.solve_payload(dict(origin))
                crossed = client.solve_payload(dict(drifted))
                stats = client.stats()
        assert crossed["cache"] == "miss"  # no tier: cold re-solve
        assert stats["lookaside"] is None
