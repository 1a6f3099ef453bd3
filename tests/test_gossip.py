"""The gossip mesh: TTL'd donor records, epidemic replication, liveness.

Four layers, tested from the inside out:

* the tier's mesh-facing semantics — TTL expiry against an injectable
  clock, per-key epochs with deterministic ``(epoch, origin)`` conflict
  resolution, sequence-cursor rumor feeds, digests and epoch vectors —
  plus its thread-safety under concurrent publish/get/merge;
* the binary wire kinds that carry gossip frames (packed record
  batches round-trip bit-for-bit; digests and pulls ride JSON bodies);
* :class:`~repro.net.gossip.GossipAgent` against a fake sender and a
  fake clock — heartbeats, rumor batching, byte-budget deferral,
  round-robin anti-entropy, the symmetric inbound protocol;
* live meshes of real :class:`~repro.net.NetServer` processes: records
  replicate, a gossip-donated warm start is bit-for-bit the local warm
  start from the same donor, and a killed peer is survived, backed off,
  and re-fed after respawn.
"""

import json
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.net import (
    GOSSIP_OPS,
    GossipAgent,
    LookasideTier,
    NetClient,
    NetServer,
    PeerState,
    decode_binary_frames,
    encode_binary_frame,
    parse_peers,
    wire_record,
)
from repro.net.binary import (
    KIND_GOSSIP_DIGEST,
    KIND_GOSSIP_PULL,
    KIND_GOSSIP_RECORDS,
    BinaryFrameError,
    _parse_header,
)
from repro.obs.registry import MetricsRegistry

from tests.test_net import cross_structure_payloads


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


def record_for(key="k", n=3, *, value=0.5, iterations=10):
    """A minimal valid tier record (params sized 2n+1 as the real ones; a
    feasible allocation whose first entry is ``value``)."""
    params = np.linspace(0.1, 1.0, 2 * n + 1)
    allocation = np.full(n, (1.0 - value) / (n - 1))
    allocation[0] = value
    return {
        "key": key,
        "n": n,
        "params": params,
        "allocation": allocation,
        "iterations": iterations,
    }


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_until(predicate, *, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- peer membership -----------------------------------------------------------


class TestPeers:
    def test_parse_peers_forms(self):
        want = [("a", 1), ("b", 2)]
        assert parse_peers("a:1,b:2") == want
        assert parse_peers(["a:1", "b:2"]) == want
        assert parse_peers([("a", 1), ("b", 2)]) == want
        assert parse_peers("a:1, b:2 ,a:1") == want  # spaces and dupes
        assert parse_peers(None) == []
        assert parse_peers("") == []
        # IPv6-ish colons: the *last* colon splits host from port.
        assert parse_peers("::1:9000") == [("::1", 9000)]

    def test_parse_peers_rejects_malformed(self):
        for bad in ("nohost", "a:", "a:xyz", "a:0", "a:70000", ":9"):
            with pytest.raises(ConfigurationError):
                parse_peers(bad)

    def test_backoff_doubles_and_ready_resets(self):
        peer = PeerState(0, "h", 9)
        assert peer.due(0.0)
        assert peer.mark_failed(0.0) is False  # was never ready
        assert not peer.due(0.1) and peer.due(0.2 + 1e-9)
        peer.mark_failed(1.0)  # second failure: 0.4s
        assert not peer.due(1.3) and peer.due(1.4 + 1e-9)
        for _ in range(20):
            peer.mark_failed(2.0)
        assert peer.next_attempt <= 2.0 + 15.0 + 1e-9  # capped
        peer.sent_seq = 7
        peer.mark_ready(3.0)
        assert peer.ready and peer.failures == 0
        assert peer.sent_seq == 0  # restarted peers are re-fed from seq 0
        assert peer.mark_failed(4.0) is True  # a live link went down


# -- tier TTL and epochs -------------------------------------------------------


class TestTierTtl:
    def test_expired_records_are_never_handed_out(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tier = LookasideTier(8, ttl_s=10.0, clock=clock, registry=registry)
        tier.insert(record_for("k1"))
        params = record_for("k1")["params"]
        assert tier.donor_for_params(3, params) is not None
        clock.advance(10.1)
        assert tier.donor_for_params(3, params) is None
        assert len(tier) == 0
        assert registry.snapshot()["counters"]["net.lookaside.expired"] == 1

    def test_expired_records_are_never_gossiped_or_digested(self):
        clock = FakeClock()
        tier = LookasideTier(8, ttl_s=5.0, clock=clock, origin="a")
        tier.insert(record_for("k1"))
        clock.advance(6.0)
        records, last = tier.records_since(0, max_bytes=None)
        assert records == []
        # The cursor jumps over the expired seq: it will never ship, so a
        # rumor feed must not look perpetually behind because of it.
        assert last == tier.seq
        assert tier.digest() == {}
        assert tier.records_missing_from({"3": {}}) == []

    def test_wire_records_carry_remaining_ttl_and_reanchor(self):
        clock_a = FakeClock(100.0)
        a = LookasideTier(8, ttl_s=10.0, clock=clock_a, origin="a")
        a.insert(record_for("k1"))
        clock_a.advance(4.0)  # 6s of lease left
        records, _ = a.records_since(0)
        assert records[0]["ttl_s"] == pytest.approx(6.0)

        # The receiver's clock is wildly different; the lease still holds
        # for ~6s of *its* time, not until an absolute instant.
        clock_b = FakeClock(7.0)
        b = LookasideTier(8, clock=clock_b, origin="b")
        assert b.merge(records) == 1
        clock_b.advance(5.9)
        assert len(b) == 1
        clock_b.advance(0.2)
        assert len(b) == 0

    def test_merge_ignores_already_expired_records(self):
        tier = LookasideTier(8, origin="b")
        dead = wire_record(
            {**record_for("k1"), "origin": "a", "epoch": 3, "expires_at": 0.0},
            now=5.0,
        )
        assert dead["ttl_s"] == 0.0
        assert tier.merge([dead]) == 0
        assert len(tier) == 0

    def test_ttl_validation(self):
        with pytest.raises(ConfigurationError):
            LookasideTier(8, ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            LookasideTier(8, ttl_s=-1.0)


class TestTierEpochs:
    def test_local_republish_bumps_epoch_past_any_predecessor(self):
        tier = LookasideTier(8, origin="a")
        tier.insert(record_for("k1", value=0.1))
        assert tier._records["k1"]["epoch"] == 0
        # A remote copy at a higher epoch lands...
        remote = wire_record(
            {**record_for("k1", value=0.2), "origin": "z", "epoch": 4,
             "expires_at": None},
            now=0.0,
        )
        assert tier.merge([remote]) == 1
        # ...and a local republish must outrank it mesh-wide.
        tier.insert(record_for("k1", value=0.3))
        stored = tier._records["k1"]
        assert stored["epoch"] == 5 and stored["origin"] == "a"

    def test_merge_is_newest_epoch_wins_with_origin_tiebreak(self):
        def wire(origin, epoch, value):
            return wire_record(
                {**record_for("k1", value=value), "origin": origin,
                 "epoch": epoch, "expires_at": None},
                now=0.0,
            )

        tier = LookasideTier(8, origin="me")
        assert tier.merge([wire("a", 1, 0.1)]) == 1
        assert tier.merge([wire("a", 1, 0.2)]) == 0  # not strictly newer
        assert tier.merge([wire("b", 1, 0.3)]) == 1  # equal epoch: "b" > "a"
        assert tier.merge([wire("a", 1, 0.4)]) == 0  # loses the same tie
        assert tier.merge([wire("a", 2, 0.5)]) == 1  # newer epoch beats origin
        assert tier._records["k1"]["allocation"][0] == 0.5

    def test_two_tiers_converge_to_the_same_winner_either_order(self):
        def wires():
            return [
                wire_record(
                    {**record_for("k1", value=v), "origin": o, "epoch": 2,
                     "expires_at": None},
                    now=0.0,
                )
                for o, v in (("a", 0.1), ("b", 0.9))
            ]

        forward, backward = LookasideTier(8), LookasideTier(8)
        w = wires()
        forward.merge([w[0]]); forward.merge([w[1]])
        backward.merge([w[1]]); backward.merge([w[0]])
        assert forward.digest() == backward.digest()
        assert forward._records["k1"]["origin"] == "b"

    def test_records_since_cursor_and_byte_budget(self):
        tier = LookasideTier(16, origin="a")
        for i in range(4):
            tier.insert(record_for(f"k{i}"))
        everything, last = tier.records_since(0)
        assert [r["key"] for r in everything] == ["k0", "k1", "k2", "k3"]
        assert last == tier.seq == 4
        nothing, still = tier.records_since(last)
        assert nothing == [] and still == last
        # A budget that fits ~2 records cuts the batch; the cursor only
        # acknowledges what shipped, so the rest comes next round.
        from repro.net.lookaside import _record_bytes
        cost = _record_bytes(tier._records["k0"])
        first, cursor = tier.records_since(0, max_bytes=2 * cost)
        assert [r["key"] for r in first] == ["k0", "k1"]
        rest, cursor = tier.records_since(cursor, max_bytes=10 * cost)
        assert [r["key"] for r in rest] == ["k2", "k3"]

    def test_digest_and_epoch_vectors_drive_exact_repair(self):
        a, b = LookasideTier(16, origin="a"), LookasideTier(16, origin="b")
        for i in range(3):
            a.insert(record_for(f"k{i}"))
        b.merge(a.records_since(0)[0][:2])  # b lacks k2
        assert a.digest() != b.digest()
        want = [n for n, fp in a.digest().items() if b.digest().get(n) != fp]
        missing = a.records_missing_from(b.epoch_vectors(want))
        assert [r["key"] for r in missing] == ["k2"]
        assert b.merge(missing) == 1
        assert a.digest() == b.digest()
        # An empty vector for an unknown bucket pulls the whole bucket.
        empty = LookasideTier(16, origin="c")
        assert empty.epoch_vectors(["3"]) == {"3": {}}
        assert len(a.records_missing_from(empty.epoch_vectors(["3"]))) == 3


class TestTierMergeValidation:
    """A gossiped record must be able to donate before it is stored: a
    malformed allocation would otherwise be handed out as a warm start."""

    @staticmethod
    def remote(**fields):
        record = wire_record(
            {**record_for("k1"), "origin": "a", "epoch": 1, "expires_at": None},
            now=0.0,
        )
        return {**record, **fields}

    def test_a_sound_record_merges_and_donates(self):
        tier = LookasideTier(8, origin="b")
        assert tier.merge([self.remote()]) == 1
        donor = tier.donor_for_params(3, record_for("k1")["params"])
        assert np.array_equal(donor, record_for("k1")["allocation"])

    @pytest.mark.parametrize("fields", [
        {"allocation": np.array([np.nan, 0.5, 0.5])},
        {"allocation": np.array([np.inf, 0.0, 0.0])},
        {"allocation": np.array([1.5, -0.5, 0.0])},
        {"allocation": np.array([0.5, 0.5, 0.5])},
        {"allocation": np.array([0.5, 0.5])},
        {"params": np.linspace(0.1, 1.0, 5)},
        {"params": np.full(7, np.nan)},
        {"n": "three"},
    ], ids=["nan", "inf", "negative", "sum", "length", "params-length",
            "params-nan", "n"])
    def test_records_that_cannot_donate_merge_as_zero(self, fields):
        tier = LookasideTier(8, origin="b", max_distance=1e6)
        assert tier.merge([self.remote(**fields)]) == 0
        assert len(tier) == 0
        assert tier.donor_for_params(3, record_for("k1")["params"]) is None


class TestTierConcurrency:
    def test_concurrent_publish_get_and_merge_stay_consistent(self):
        tier = LookasideTier(16, origin="local", max_distance=10.0)
        errors = []
        barrier = threading.Barrier(4)

        def publisher():
            barrier.wait()
            for i in range(200):
                tier.insert(record_for(f"p{i % 24}", value=i / 200.0))

        def merger(origin):
            barrier.wait()
            for i in range(200):
                tier.merge([
                    wire_record(
                        {**record_for(f"m{i % 24}"), "origin": origin,
                         "epoch": i, "expires_at": None},
                        now=0.0,
                    )
                ])

        def reader():
            barrier.wait()
            params = record_for("x")["params"]
            for _ in range(200):
                tier.donor_for_params(3, params)
                tier.digest()
                tier.records_since(0, max_bytes=4096)

        def run(target):
            try:
                target()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(t,))
            for t in (publisher, lambda: merger("a"), lambda: merger("b"), reader)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert len(tier) <= 16  # capacity held under concurrent writers

    def test_replace_on_republish_under_capacity_pressure(self):
        tier = LookasideTier(4, origin="a")
        for _ in range(50):
            for key in ("k0", "k1", "k2", "k3"):
                tier.insert(record_for(key))
        assert len(tier) == 4  # replaced, never duplicated
        assert tier._records["k0"]["epoch"] == 49


# -- the binary wire -----------------------------------------------------------


class TestGossipWire:
    def test_record_batches_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(5)
        records = [
            {
                "key": f"key-{i}", "n": 3,
                "params": rng.uniform(size=7),
                "allocation": rng.uniform(size=3),
                "iterations": 11 + i, "origin": f"s{i}", "epoch": i,
                "ttl_s": None if i == 0 else 4.25,
            }
            for i in range(3)
        ]
        frame = encode_binary_frame(
            {"op": "gossip_records", "server": "s0", "records": records}, 9
        )
        assert _parse_header(frame, 0)[0] == KIND_GOSSIP_RECORDS
        (payload, corr), rest = decode_binary_frames(frame)[0][0], b""
        assert corr == 9 and payload["server"] == "s0"
        for want, have in zip(records, payload["records"]):
            assert have["key"] == want["key"]
            assert have["origin"] == want["origin"]
            assert have["epoch"] == want["epoch"]
            assert have["ttl_s"] == want["ttl_s"]
            assert have["params"].tobytes() == want["params"].tobytes()
            assert have["allocation"].tobytes() == want["allocation"].tobytes()

    def test_digest_and_pull_ride_dedicated_kinds(self):
        digest = {"op": "gossip_digest", "server": "a", "buckets": {"3": "ff"}}
        pull = {"op": "gossip_pull", "server": "a",
                "buckets": {"3": {"k": [1, "a"]}}}
        for payload, kind in ((digest, KIND_GOSSIP_DIGEST), (pull, KIND_GOSSIP_PULL)):
            frame = encode_binary_frame(payload, 2)
            assert _parse_header(frame, 0)[0] == kind
            frames, rest = decode_binary_frames(frame)
            assert rest == b"" and frames[0][0] == payload

    def test_malformed_record_batches_are_rejected(self):
        good = record_for("k")
        wrong_params = {**good, "origin": "a", "epoch": 0, "ttl_s": None,
                        "params": np.zeros(3)}  # must be 2n+1 = 7
        with pytest.raises(BinaryFrameError):
            encode_binary_frame(
                {"op": "gossip_records", "server": "a",
                 "records": [wrong_params]}, 0,
            )


# -- the agent against a fake transport ---------------------------------------


class Sender:
    """Records every (peer, payload) the agent sends; scripted byte cost."""

    def __init__(self, queued=100):
        self.sent = []
        self.queued = queued

    def __call__(self, index, payload):
        self.sent.append((index, payload))
        return self.queued

    def ops(self, op=None):
        if op is None:
            return [p["op"] for _, p in self.sent]
        return [(i, p) for i, p in self.sent if p["op"] == op]


class TestGossipAgent:
    def agent(self, *, peers=2, tier=None, registry=None, **kw):
        clock = kw.pop("clock", FakeClock())
        tier = tier if tier is not None else LookasideTier(32, origin="me")
        agent = GossipAgent(
            "me", tier, [("h", i + 1) for i in range(peers)],
            interval_s=1.0, registry=registry, clock=clock, **kw,
        )
        sender = Sender()
        agent.sender = sender
        return agent, sender, clock

    def test_rounds_heartbeat_live_peers_only(self):
        agent, sender, clock = self.agent()
        agent.peer_connected(0)
        agent.tick(clock.t)
        assert [i for i, _ in sender.ops("gossip_ping")] == [0]
        agent.tick(clock.t)  # same instant: round not due again
        assert len(sender.ops("gossip_ping")) == 1
        agent.peer_connected(1)
        agent.tick(clock.advance(1.0))
        assert [i for i, _ in sender.ops("gossip_ping")] == [0, 0, 1]
        assert agent.seconds_until_due(clock.t) == pytest.approx(1.0)

    def test_rumors_advance_the_cursor_and_skip_stale_peers(self):
        agent, sender, clock = self.agent(peers=2)
        agent.tier.insert(record_for("k1"))
        agent.peer_connected(0)
        agent.tick(clock.t)
        batches = sender.ops("gossip_records")
        assert len(batches) == 1 and batches[0][0] == 0
        assert [r["key"] for r in batches[0][1]["records"]] == ["k1"]
        assert agent.peers[0].sent_seq == agent.tier.seq
        agent.tick(clock.advance(1.0))  # nothing new: no second batch
        assert len(sender.ops("gossip_records")) == 1
        agent.tier.insert(record_for("k2"))
        agent.tick(clock.advance(1.0))
        fresh = sender.ops("gossip_records")[-1]
        assert [r["key"] for r in fresh[1]["records"]] == ["k2"]

    def test_byte_budget_defers_rumors_but_not_heartbeats(self):
        registry = MetricsRegistry()
        # One record costs ~212 estimated bytes; a 200 B/s budget starts
        # just short of it but refills past it within one round.
        agent, sender, clock = self.agent(
            peers=1, registry=registry, budget_bytes_per_s=200,
        )
        agent.tier.insert(record_for("k1"))
        agent.peer_connected(0)
        agent.tick(clock.t)
        assert sender.ops() == ["gossip_ping"]  # rumor deferred, ping sent
        counters = registry.snapshot()["counters"]
        assert counters["net.gossip.deferred"] == 1
        assert "net.gossip.records_sent" not in counters
        assert agent.peers[0].sent_seq == 0  # nothing acknowledged
        # Tokens refill with time; the deferred rumor ships next round.
        clock.advance(1.0)
        agent.tick(clock.t)
        assert sender.ops("gossip_records")
        assert agent.peers[0].sent_seq == agent.tier.seq

    def test_anti_entropy_rotates_through_live_peers(self):
        agent, sender, clock = self.agent(peers=3, anti_entropy_every=2)
        agent.tier.insert(record_for("k1"))
        for i in range(3):
            agent.peer_connected(i)
        for _ in range(6):
            agent.tick(clock.t)
            clock.advance(1.0)
        digests = sender.ops("gossip_digest")
        assert len(digests) == 3  # rounds 2, 4, 6
        assert [i for i, _ in digests] == [0, 1, 2]  # round-robin
        assert digests[0][1]["buckets"] == agent.tier.digest()

    def test_peer_down_events_and_live_gauge(self):
        registry = MetricsRegistry()
        agent, sender, clock = self.agent(peers=2, registry=registry)
        agent.peer_connected(0)
        assert registry.snapshot()["gauges"]["net.gossip.peers_live"] == 1.0
        assert agent.peer_failed(0) is True
        assert agent.peer_failed(0) is False  # already down: no new event
        snapshot = registry.snapshot()
        assert snapshot["counters"]["net.gossip.peer_down"] == 1
        assert snapshot["gauges"]["net.gossip.peers_live"] == 0.0
        assert agent.peer_stale(0, clock.t) is False  # down, not stale
        agent.peer_connected(0)
        assert agent.peer_stale(0, clock.t + agent.heartbeat_timeout_s + 0.1)

    def test_inbound_protocol_ping_digest_pull_records(self):
        agent, _, clock = self.agent(peers=1)
        for i in range(2):
            agent.tier.insert(record_for(f"k{i}"))
        replies = []
        send = lambda p: (replies.append(p), 64)[1]

        agent.handle_remote({"op": "gossip_ping", "server": "x"}, send)
        assert replies[-1] == {"op": "gossip_pong", "server": "me"}

        # An empty peer's digest: nothing to pull, whole buckets pushed.
        agent.handle_remote(
            {"op": "gossip_digest", "server": "x", "buckets": {}}, send
        )
        assert replies[-1]["op"] == "gossip_records"
        assert len(replies[-1]["records"]) == 2

        # A differing digest: answered with a pull of our epoch vectors.
        agent.handle_remote(
            {"op": "gossip_digest", "server": "x",
             "buckets": {"3": "not-our-fingerprint"}}, send
        )
        assert replies[-1]["op"] == "gossip_pull"
        assert set(replies[-1]["buckets"]["3"]) == {"k0", "k1"}

        # A pull listing nothing gets everything in the bucket.
        agent.handle_remote(
            {"op": "gossip_pull", "server": "x", "buckets": {"3": {}}}, send
        )
        assert [r["key"] for r in replies[-1]["records"]] == ["k0", "k1"]

        other = LookasideTier(8, origin="x")
        agent.handle_remote(
            {"op": "gossip_records", "server": "me",
             "records": agent.tier.records_since(0)[0]},
            lambda p: None,
        )  # self-merge is a no-op (same epochs), must not raise
        assert other.merge(agent.tier.records_since(0)[0]) == 2

        agent.handle_remote({"op": "gossip_nonsense"}, send)
        assert replies[-1]["status"] == "error"

    def test_validation(self):
        tier = LookasideTier(8)
        for kw in (
            {"interval_s": 0.0},
            {"anti_entropy_every": 0},
            {"budget_bytes_per_s": 0},
        ):
            with pytest.raises(ConfigurationError):
                GossipAgent("a", tier, [("h", 1)], **kw)


# -- live meshes ---------------------------------------------------------------


def start_mesh(count=2, *, interval=0.05, **kw):
    """``count`` NetServers meshed all-to-all on loopback."""
    ports = [free_port() for _ in range(count)]
    servers = []
    for i, port in enumerate(ports):
        peers = ",".join(
            f"127.0.0.1:{p}" for j, p in enumerate(ports) if j != i
        )
        servers.append(
            NetServer(
                "127.0.0.1", port, lookaside=True, peers=peers,
                gossip_interval_s=interval, server_id=f"s{i}", **kw,
            ).start()
        )
    return servers


def stop_mesh(servers):
    for server in servers:
        server.shutdown()


class TestGossipMesh:
    def test_peers_without_lookaside_fail_fast(self):
        with pytest.raises(ConfigurationError, match="lookaside"):
            NetServer(port=0, peers="127.0.0.1:9")
        with pytest.raises(ConfigurationError, match="bad peer"):
            NetServer(port=0, peers="no-port", lookaside=True)

    def test_records_replicate_and_digests_converge(self):
        servers = start_mesh(3)
        try:
            servers[0].lookaside.insert(record_for("k1", value=0.25))
            assert wait_until(
                lambda: all(len(s.lookaside) == 1 for s in servers)
            ), "record did not replicate to every peer"
            assert wait_until(
                lambda: len({json.dumps(s.lookaside.digest(), sort_keys=True)
                             for s in servers}) == 1
            )
            stored = servers[2].lookaside._records["k1"]
            assert stored["origin"] == "s0" and stored["epoch"] == 0
            # Replication can outrun link setup (anti-entropy answers ride
            # inbound connections), so *wait* for full mesh readiness.
            assert wait_until(
                lambda: all(
                    p["ready"] for p in servers[0].stats()["gossip"]["peers"]
                )
            ), "not every outbound link became ready"
            stats = servers[0].stats()
            gossip = stats["gossip"]
            assert gossip["server_id"] == "s0"
            assert stats["counters"]["net.gossip.records_sent"] >= 1
            merged = servers[1].stats()["counters"]
            assert merged["net.gossip.records_merged"] >= 1
        finally:
            stop_mesh(servers)

    def test_gossip_warm_start_matches_local_warm_bit_for_bit(self):
        origin, drifted = cross_structure_payloads()

        # Control: one server sees both payloads; the drifted structure
        # warm-starts from its own tier's donor.
        with NetServer(port=0, workers=1, lookaside=True) as control:
            with NetClient(*control.address) as client:
                assert client.solve_payload(dict(origin))["cache"] == "miss"
                local = client.solve_payload(dict(drifted))
        assert local["cache"] == "lookaside"

        # Mesh: A converges on the origin problem, B never sees it; the
        # donor reaches B only by gossip, and B's warm start must be
        # bit-for-bit the control's.
        a, b = start_mesh(2)
        try:
            with NetClient(*a.address) as client:
                assert client.solve_payload(dict(origin))["cache"] == "miss"
            assert wait_until(lambda: len(b.lookaside) >= 1), \
                "donor never reached peer B"
            with NetClient(*b.address) as client:
                crossed = client.solve_payload(dict(drifted))
        finally:
            stop_mesh((a, b))
        assert crossed["cache"] == "lookaside"
        assert crossed["allocation"] == local["allocation"]  # exact floats
        assert crossed["iterations"] == local["iterations"]
        assert crossed["cost"] == local["cost"]

    def test_mesh_survives_a_killed_peer_and_refeeds_its_replacement(self):
        a, b = start_mesh(2, interval=0.05)
        b_port = b.port
        try:
            a.lookaside.insert(record_for("k1"))
            assert wait_until(lambda: len(b.lookaside) == 1)
            # b can pull k1 through its own link before a's link to b is
            # up, and peer_down counts only a live link going down.
            assert wait_until(lambda: a.stats()["gossip"]["peers"][0]["ready"])

            b.shutdown()
            assert wait_until(
                lambda: a.stats()["counters"].get("net.gossip.peer_down", 0) >= 1
            ), "peer death went unnoticed"
            # The survivor keeps serving while its peer is down.
            with NetClient(*a.address) as client:
                assert client.ping()
                a_stats = client.stats()
            assert a_stats["gossip"]["peers"][0]["ready"] is False
            a.lookaside.insert(record_for("k2"))  # published during the outage

            # A fresh, empty server takes over the dead peer's address;
            # backoff reconnects and the seq-0 re-feed fill it back up.
            revived = NetServer(
                "127.0.0.1", b_port, lookaside=True,
                peers=f"127.0.0.1:{a.port}", gossip_interval_s=0.05,
                server_id="s1b",
            ).start()
            try:
                assert wait_until(lambda: len(revived.lookaside) == 2), \
                    "respawned peer was not re-fed"
                assert wait_until(
                    lambda: a.stats()["gossip"]["peers"][0]["ready"]
                )
                assert a.stats()["gossip"]["peers"][0]["connects"] >= 2
            finally:
                revived.shutdown()
        finally:
            a.shutdown()

    def test_republish_during_partition_wins_after_heal(self):
        a, b = start_mesh(2, interval=0.05)
        try:
            a.lookaside.insert(record_for("k1", value=0.1))
            assert wait_until(lambda: len(b.lookaside) == 1)
            # Both republish the same key concurrently; epochs tie at 1,
            # so the higher server id must win on *both* sides.
            a.lookaside.insert(record_for("k1", value=0.2))
            b.lookaside.insert(record_for("k1", value=0.9))
            assert wait_until(
                lambda: a.lookaside._records["k1"]["origin"] == "s1"
                and b.lookaside._records["k1"]["origin"] == "s1"
            ), "mesh did not converge on the deterministic winner"
            assert a.lookaside._records["k1"]["allocation"][0] == 0.9
        finally:
            stop_mesh((a, b))

    def test_gossip_ops_refused_without_a_mesh(self):
        with NetServer(port=0, workers=1) as server:
            with socket.create_connection(server.address) as sock:
                sock.sendall(encode_binary_frame({"op": "gossip_ping"}, 1))
                reply = sock.recv(65536)
        (payload, _), _rest = decode_binary_frames(reply)[0][0], b""
        assert payload["reason"] == "gossip_disabled"
        assert set(GOSSIP_OPS) >= {"gossip_ping", "gossip_digest"}


class TestGossipCli:
    def test_peers_without_lookaside_fails_fast(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "net-serve",
             "--port", "0", "--peers", "127.0.0.1:9"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "lookaside" in proc.stderr
        assert "listening" not in proc.stdout

    def test_malformed_peers_fail_fast(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "net-serve",
             "--port", "0", "--lookaside", "--peers", "nonsense"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "bad peer" in proc.stderr

    def test_announce_carries_mesh_identity(self):
        import signal as _signal

        peer_port = free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "net-serve", "--port", "0",
             "--lookaside", "--peers", f"127.0.0.1:{peer_port}",
             "--server-id", "mesh-a", "--gossip-interval", "0.2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            announce = json.loads(proc.stdout.readline())
            assert announce["server_id"] == "mesh-a"
            assert announce["peers"] == [f"127.0.0.1:{peer_port}"]
        finally:
            proc.send_signal(_signal.SIGTERM)
            try:
                rc = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert rc == 0
        assert "gossip:" in proc.stderr.read()
