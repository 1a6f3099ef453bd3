"""Unit tests for the repro.net building blocks: binary framing, the
decoder's totality (fuzzed), routing, the request/response wire codec
round trip, and the client's retry/metric bookkeeping (against scripted
fake servers).

The loopback integration suite (real worker processes, crash recovery,
auth) lives in tests/test_net.py.
"""

import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import FileAllocationProblem
from repro.exceptions import ConfigurationError
from repro.network.builders import ring_graph, star_graph
from repro.net import (
    BINARY_MAGIC,
    BINARY_VERSION,
    MAX_FRAME_BYTES,
    BinaryFrameError,
    BinaryFrameReader,
    FrameError,
    NetClient,
    decode_binary_frames,
    encode_binary_frame,
    routing_key,
    send_binary_frame,
    shard_for,
    shard_of_key,
)
from repro.net import binary as wire
from repro.net.worker import ERROR_WORKER_RESTARTED
from repro.queueing import MD1Delay
from repro.service.codec import (
    parse_request,
    request_to_payload,
    response_from_dict,
    safe_parse,
)
from repro.service.fingerprint import request_fingerprint, structural_key
from repro.service.types import SolveRequest, SolveResponse


def ring_problem(n=4, *, mu=1.5, rate=1.0, k=1.0):
    return FileAllocationProblem.from_topology(
        ring_graph(n), np.full(n, rate / n), k=k, mu=mu
    )


def star_problem(n=5):
    return FileAllocationProblem.from_topology(
        star_graph(n), np.full(n, 0.8 / n), k=1.0, mu=2.0
    )


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def raw_frame(kind, body, request_id=1, *, length=None):
    """A frame with a hand-built body (and optionally a lying length)."""
    declared = len(body) if length is None else length
    return wire._HEADER.pack(
        BINARY_MAGIC, BINARY_VERSION, kind, 0, request_id, declared
    ) + body


class TestFraming:
    """The frame layer: header parsing, buffering, and the socket reader."""

    def test_encode_decode_round_trip(self):
        payloads = [{"id": "a"}, {"nested": {"x": [1, 2.5, None]}}, {}]
        blob = b"".join(encode_binary_frame(p, i) for i, p in enumerate(payloads))
        frames, rest = decode_binary_frames(blob)
        assert frames == [(p, i) for i, p in enumerate(payloads)]
        assert rest == b""

    def test_partial_frames_stay_buffered(self):
        # Cut the stream at every byte, header bytes included: a prefix of
        # a valid frame is never an error, only "need more bytes".
        first = encode_binary_frame({"id": "a"}, 1)
        blob = first + encode_binary_frame(solve_payload_dict(6), 2)
        for cut in range(len(blob) + 1):
            frames, rest = decode_binary_frames(blob[:cut])
            complete = [rid for rid, end in ((1, len(first)), (2, len(blob))) if cut >= end]
            assert [rid for _, rid in frames] == complete
            frames2, rest2 = decode_binary_frames(rest + blob[cut:])
            assert [rid for _, rid in frames + frames2] == [1, 2]
            assert rest2 == b""

    def test_declared_length_capped(self):
        # Refused from the header alone: no body bytes need to arrive.
        header = raw_frame(wire.KIND_JSON, b"", length=MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="exceeds"):
            decode_binary_frames(header)

    def test_body_must_be_json_object(self):
        with pytest.raises(BinaryFrameError, match="JSON object"):
            decode_binary_frames(raw_frame(wire.KIND_JSON, b"[1,2,3]"))

    def test_body_must_be_valid_json(self):
        with pytest.raises(BinaryFrameError, match="not valid JSON"):
            decode_binary_frames(raw_frame(wire.KIND_JSON, b"xyz"))

    def test_foreign_protocol_is_refused_before_a_full_header(self):
        # A length-prefixed JSON ping is 16 bytes, short of one header:
        # the first byte already differs from the magic, so it is refused
        # at once instead of waiting for bytes that will never come.
        legacy_ping = b"%d\n%s" % (len(b'{"op":"ping"}'), b'{"op":"ping"}')
        assert len(legacy_ping) < wire.HEADER_BYTES
        for stream in (legacy_ping, b"1", BINARY_MAGIC[:2] + b"x"):
            with pytest.raises(BinaryFrameError, match="magic"):
                decode_binary_frames(stream)
        assert decode_binary_frames(BINARY_MAGIC[:3]) == ([], BINARY_MAGIC[:3])

    def test_reader_round_trip_over_socketpair(self):
        a, b = socket_pair()
        try:
            sent = send_binary_frame(a, {"id": "r1", "alpha": 0.25}, 5)
            assert sent == len(encode_binary_frame({"id": "r1", "alpha": 0.25}, 5))
            reader = BinaryFrameReader(b)
            assert reader.read() == ({"id": "r1", "alpha": 0.25}, 5)
            assert reader.bytes_read >= sent
            a.close()
            assert reader.read() is None  # clean EOF at a frame boundary
        finally:
            b.close()

    def test_reader_raises_on_mid_frame_eof(self):
        # EOF inside the *header* (the body case is in TestBinaryCodec).
        a, b = socket_pair()
        try:
            a.sendall(encode_binary_frame({"id": "r1"})[: wire.HEADER_BYTES - 3])
            a.close()
            with pytest.raises(BinaryFrameError, match="mid-frame"):
                BinaryFrameReader(b).read()
        finally:
            b.close()

    def test_reader_iterates_pipelined_frames(self):
        # Packed and JSON bodies back to back on one stream, in order.
        ok = SolveResponse(
            request_id="r", status="ok", allocation=np.array([0.5, 0.5]),
            cost=1.0, iterations=3, converged=True,
        ).as_dict()
        payloads = [{"i": 0}, solve_payload_dict(7), ok, {"op": "ping"}]
        a, b = socket_pair()
        try:
            for i, payload in enumerate(payloads):
                send_binary_frame(a, payload, i)
            a.close()
            reader = BinaryFrameReader(b)
            got = [reader.read() for _ in payloads]
            assert reader.read() is None
        finally:
            b.close()
        assert [rid for _, rid in got] == [0, 1, 2, 3]
        assert got[0][0] == {"i": 0} and got[2][0] == ok and got[3][0] == {"op": "ping"}
        assert got[1][0]["id"] == "u7"


def solve_payload_dict(i=0, *, n=4, extra=None):
    """A raw-matrix solve payload with every packed field exercised."""
    rng = np.random.default_rng(100 + i)
    payload = {
        "id": f"u{i}",
        "problem": {
            "cost_matrix": [
                [0.0 if r == c else float(rng.uniform(0.5, 2.0)) for c in range(n)]
                for r in range(n)
            ],
            "access_rates": [float(v) for v in rng.uniform(0.02, 0.15, size=n)],
            "mu": [float(v) for v in rng.uniform(1.5, 3.0, size=n)],
            "k": 1.25,
            "name": f"unit-{i}",
        },
        "alpha": 0.2137,
        "epsilon": 3.3e-5,
        "max_iterations": 4242,
        "start": [float(v) for v in rng.dirichlet(np.ones(n))],
        "timeout_s": 1.25,
        "priority": 3,
    }
    if extra:
        payload.update(extra)
    return payload


class TestBinaryCodec:
    def test_solve_payload_round_trips_to_identical_fingerprint(self):
        payload = solve_payload_dict(0)
        blob = encode_binary_frame(payload, 7)
        frames, rest = decode_binary_frames(blob)
        assert rest == b""
        [(decoded, request_id)] = frames
        assert request_id == 7
        # Arrays come back as float64 views, not lists: compare parsed.
        want = parse_request(payload)
        have = parse_request(decoded)
        assert have.request_id == want.request_id == "u0"
        assert have.alpha == want.alpha
        assert have.timeout_s == want.timeout_s
        assert have.priority == want.priority
        assert request_fingerprint(have) == request_fingerprint(want)
        assert decoded["problem"]["name"] == "unit-0"

    def test_packed_defaults_match_json_defaults(self):
        # A minimal payload (no alpha/epsilon/start/...) must normalize
        # to the same request either way the bytes travel.
        minimal = {"problem": solve_payload_dict(1)["problem"]}
        [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(minimal))
        want = parse_request(dict(minimal, id="x"))
        have = parse_request(dict(decoded, id="x"))
        assert request_fingerprint(have) == request_fingerprint(want)

    def test_scalar_mu_and_named_start_round_trip(self):
        payload = {
            "id": "s",
            "problem": {
                "cost_matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                "access_rates": [0.1, 0.2, 0.1],
                "mu": 2.5,
                "k": 1.0,
            },
            "start": "skewed",
        }
        [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(payload))
        assert decoded["problem"]["mu"] == 2.5
        assert decoded["start"] == "skewed"
        assert request_fingerprint(parse_request(decoded)) == request_fingerprint(
            parse_request(payload)
        )

    def test_ok_response_round_trips_to_exact_json_dict(self):
        response = SolveResponse(
            request_id="r1",
            status="ok",
            allocation=np.array([0.25, 0.75]),
            cost=1.2345,
            iterations=17,
            converged=True,
            cache="warm",
            batch_size=3,
            latency_s=0.5,
        ).as_dict()
        [(decoded, rid)], rest = decode_binary_frames(
            encode_binary_frame(response, 99)
        )
        assert rest == b""
        assert rid == 99
        assert decoded == response  # bit-for-bit, allocation as list

    def test_other_payloads_ride_the_json_kind_exactly(self):
        for payload in (
            {"op": "stats"},
            {"id": "r", "status": "rejected", "reason": "overloaded"},
            {"id": "r", "status": "error", "detail": "boom"},
            solve_payload_dict(2, extra={"not_a_wire_field": 1}),
            # Numbers the packed struct cannot hold: the worker's parse
            # refuses them in-band, so they must reach it.
            solve_payload_dict(4, extra={"max_iterations": float("inf")}),
            solve_payload_dict(5, extra={"alpha": 10**400}),
        ):
            [(decoded, _)], _ = decode_binary_frames(encode_binary_frame(payload))
            assert decoded == payload

    def test_partial_frames_stay_buffered(self):
        blob = encode_binary_frame({"op": "a"}, 1) + encode_binary_frame(
            solve_payload_dict(3), 2
        )
        cut = len(blob) - 5
        frames, rest = decode_binary_frames(blob[:cut])
        assert [rid for _, rid in frames] == [1]
        frames2, rest2 = decode_binary_frames(rest + blob[cut:])
        assert [rid for _, rid in frames2] == [2]
        assert rest2 == b""

    def test_bad_magic_version_and_kind_are_errors(self):
        good = encode_binary_frame({"op": "ping"})
        with pytest.raises(BinaryFrameError, match="magic"):
            decode_binary_frames(b"XXXX" + good[4:])
        with pytest.raises(BinaryFrameError, match="version"):
            decode_binary_frames(good[:4] + b"\x09" + good[5:])
        with pytest.raises(BinaryFrameError, match="kind"):
            decode_binary_frames(good[:5] + b"\x07" + good[6:])

    def test_truncated_packed_bodies_are_errors(self):
        solve = encode_binary_frame(solve_payload_dict(4))
        # Rewrite the declared length so a short body still "completes".
        from repro.net.binary import _HEADER, HEADER_BYTES

        magic, version, kind, flags, rid, length = _HEADER.unpack_from(solve)
        short = _HEADER.pack(magic, version, kind, flags, rid, length - 8)
        with pytest.raises(BinaryFrameError, match="layout requires"):
            decode_binary_frames(short + solve[HEADER_BYTES : len(solve) - 8])

    def test_reader_round_trip_and_clean_eof(self):
        a, b = socket_pair()
        try:
            sent = send_binary_frame(a, solve_payload_dict(5), 11)
            reader = BinaryFrameReader(b)
            payload, rid = reader.read()
            assert rid == 11
            assert reader.bytes_read == sent
            assert payload["id"] == "u5"
            a.close()
            assert reader.read() is None
        finally:
            b.close()

    def test_reader_raises_on_mid_frame_eof(self):
        a, b = socket_pair()
        try:
            a.sendall(encode_binary_frame({"op": "ping"})[:-2])
            a.close()
            with pytest.raises(BinaryFrameError, match="mid-frame"):
                BinaryFrameReader(b).read()
        finally:
            b.close()


# -- decoder fuzzing ---------------------------------------------------------

#: How far a declared length or an array lies about its size: mostly
#: truthful, sometimes one byte or one float64 off.
_LIE = st.sampled_from([0, 0, 0, 1, -1, 8, -8])
_STRING = st.one_of(st.binary(max_size=6), st.text(max_size=3).map(str.encode))
_F64 = st.floats(allow_nan=True, allow_infinity=True)


def _lying_length(draw, data: bytes) -> int:
    return min(0xFFFF, max(0, len(data) + draw(_LIE)))


def _float64s(draw, count: int) -> bytes:
    size = max(0, 8 * max(count, 0) + draw(st.sampled_from([0, 0, 0, 8, -8, 3])))
    return draw(st.binary(min_size=size, max_size=size))


@st.composite
def _solve_bodies(draw):
    n = draw(st.one_of(st.integers(-2, 4), st.just(2**31 - 1)))
    flags = draw(st.one_of(st.integers(0, 7), st.integers(0, 0xFFFF)))
    strings = [draw(_STRING) for _ in range(3)]
    front = wire._SOLVE_FRONT.pack(
        draw(_F64), draw(_F64), draw(_F64), draw(_F64),
        draw(st.integers(-(2**63), 2**63 - 1)), n,
        draw(st.integers(-(2**31), 2**31 - 1)), flags,
        *[_lying_length(draw, x) for x in strings],
    )
    mu = 0 if flags & 0x2 else (1 if flags & 0x1 else n)
    start = n if flags & 0x4 else 0
    count = max(n, 0) ** 2 + n + mu + start if 0 <= n <= 4 else 0
    return wire.KIND_SOLVE, front + b"".join(strings) + _float64s(draw, count)


@st.composite
def _result_bodies(draw):
    rid = draw(_STRING)
    front = wire._RESULT_FRONT.pack(
        draw(_F64), draw(_F64), draw(st.integers(-(2**63), 2**63 - 1)),
        draw(st.integers(-(2**31), 2**31 - 1)),
        draw(st.one_of(st.integers(0, 7), st.integers(0, 0xFFFF))),
        _lying_length(draw, rid),
    )
    return wire.KIND_RESULT, front + rid + _float64s(draw, draw(st.integers(0, 3)))


@st.composite
def _gossip_record_bodies(draw):
    server = draw(_STRING)
    records = []
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(-1, 3))
        key, origin = draw(_STRING), draw(_STRING)
        records.append(
            wire._GOSSIP_RECORD_FRONT.pack(
                draw(st.integers(-(2**63), 2**63 - 1)), draw(_F64),
                draw(st.integers(-(2**63), 2**63 - 1)), n,
                _lying_length(draw, key), _lying_length(draw, origin),
            ) + key + origin + _float64s(draw, 3 * n + 1)
        )
    count = min(0xFFFFFFFF, max(0, len(records) + draw(_LIE)))
    front = wire._GOSSIP_BATCH_FRONT.pack(_lying_length(draw, server), count)
    return wire.KIND_GOSSIP_RECORDS, front + server + b"".join(records)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4),
)
_json_bodies = st.tuples(
    st.sampled_from([wire.KIND_JSON, wire.KIND_GOSSIP_DIGEST, wire.KIND_GOSSIP_PULL]),
    st.one_of(
        st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=3).map(
            lambda d: json.dumps(d).encode()
        ),
        st.lists(_JSON_VALUES, max_size=3).map(lambda v: json.dumps(v).encode()),
        st.sampled_from([b"", b"\xff", b"{", b"[" * 100_000, b"1" * 5000]),
    ),
)
_any_bodies = st.tuples(st.integers(0, 255), st.binary(max_size=64))


class TestDecoderFuzz:
    """The decoder is total: any bytes either decode to a dict or raise
    :class:`BinaryFrameError` — never another exception, which the
    server's event loop would not survive."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        frame=st.one_of(
            _solve_bodies(), _result_bodies(), _gossip_record_bodies(),
            _json_bodies, _any_bodies,
        ),
        header=st.one_of(
            st.just(None),
            st.tuples(st.binary(min_size=4, max_size=4), st.integers(0, 255),
                      st.integers(0, 0xFFFF)),
        ),
    )
    def test_every_frame_decodes_or_raises_frame_error(self, frame, header):
        kind, body = frame
        magic, version, flags = header or (BINARY_MAGIC, BINARY_VERSION, 0)
        blob = wire._HEADER.pack(magic, version, kind, flags, 9, len(body)) + body
        try:
            frames, rest = decode_binary_frames(blob)
        except BinaryFrameError:
            return
        assert [type(payload) for payload, _ in frames] == [dict]
        assert frames[0][1] == 9 and rest == b""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        length=st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1),
        kind=st.integers(0, 255),
        flags=st.integers(0, 0xFFFF),
        request_id=st.integers(0, 2**64 - 1),
    )
    def test_oversized_frames_are_refused_from_the_header(
        self, length, kind, flags, request_id
    ):
        header = wire._HEADER.pack(
            BINARY_MAGIC, BINARY_VERSION, kind, flags, request_id, length
        )
        with pytest.raises(BinaryFrameError, match="exceeds"):
            wire._parse_header(header, 0)


class TestForwardingSplit:
    """Frame readers keep solve bodies packed: the forwarding split must
    accept exactly the frames the full decoder accepts, and every body
    it forwards must decode in the worker."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(frame=st.one_of(_solve_bodies(), _json_bodies, _any_bodies))
    def test_forwarding_accepts_what_the_decoder_accepts(self, frame):
        kind, body = frame
        blob = raw_frame(kind, body, 9)
        decoded, _, decode_error = wire._split_frames(blob)
        forwarded, _, forward_error = wire._split_frames(blob, 0, True)
        assert (decode_error is None) == (forward_error is None)
        assert len(decoded) == len(forwarded)
        for (payload, rid), (item, fid) in zip(decoded, forwarded):
            assert rid == fid == 9
            if kind != wire.KIND_SOLVE:
                assert item.keys() == payload.keys()
                continue
            assert set(item) == {"id", "packed"} and item["packed"] == body
            again = wire._unpack_solve_body(item["packed"])
            assert again["id"] == item["id"] == payload["id"]
            assert routing_key(item) == routing_key(payload)
            assert wire.decode_forwarded(item).keys() == payload.keys()

    @pytest.mark.parametrize("mu", [1.5, [1.5, 1.6, 1.7, 1.8], None])
    def test_routing_key_and_hint_from_a_body_equal_the_decoded_payloads(self, mu):
        from repro.net import params_from_payload

        request = SolveRequest(problem=ring_problem(), request_id="fw")
        payload = request_to_payload(request)
        if mu is None:
            del payload["problem"]["mu"]
        else:
            payload["problem"]["mu"] = mu
        frame = encode_binary_frame(payload, 3)
        [(item, _)], _, error = wire._split_frames(frame, 0, True)
        [(decoded, _)], _ = decode_binary_frames(frame)
        assert error is None and set(item) == {"id", "packed"}
        assert routing_key(item) == routing_key(decoded) == structural_key(request.problem)
        assert shard_for(item, 3) == shard_for(decoded, 3)
        hint, want = params_from_payload(item), params_from_payload(decoded)
        if mu is None:
            assert hint is None and want is None
        else:
            assert hint.tobytes() == want.tobytes()

    def test_the_reader_forwards_and_the_decoder_decodes(self):
        request = SolveRequest(problem=ring_problem(), request_id="r")
        frame = encode_binary_frame(request_to_payload(request))
        a, b = socket_pair()
        try:
            [(item, _)], _ = BinaryFrameReader(b).feed(frame)
        finally:
            a.close()
            b.close()
        [(plain, _)], _ = decode_binary_frames(frame)
        assert isinstance(item["packed"], bytes) and item["id"] == "r"
        assert np.array_equal(wire.forwarded_cost(item), request.problem.cost_matrix)
        assert isinstance(plain["problem"]["cost_matrix"], np.ndarray)
        decoded = wire.decode_forwarded(item)
        assert decoded.keys() == plain.keys()
        assert np.array_equal(decoded["problem"]["cost_matrix"], plain["problem"]["cost_matrix"])
        assert wire.forwarded_cost(plain) is None and wire.decode_forwarded(plain) is plain


class TestManySmallFrames:
    """Pipelined bursts of tiny frames: the readers must consume their
    buffers by offset (O(bytes)), and must not lose or reorder frames."""

    COUNT = 4000

    def _blast(self, sock, blob):
        def send():
            try:
                sock.sendall(blob)
            finally:
                sock.close()

        thread = threading.Thread(target=send, daemon=True)
        thread.start()
        return thread

    def test_binary_reader_handles_a_burst(self):
        a, b = socket_pair()
        blob = b"".join(
            encode_binary_frame({"i": i}, i + 1) for i in range(self.COUNT)
        )
        thread = self._blast(a, blob)
        try:
            reader = BinaryFrameReader(b)
            got = []
            while True:
                frame = reader.read()
                if frame is None:
                    break
                got.append(frame)
            assert [p["i"] for p, _ in got] == list(range(self.COUNT))
            assert [rid for _, rid in got] == list(range(1, self.COUNT + 1))
            assert reader.bytes_read == len(blob)
        finally:
            thread.join(timeout=5.0)
            b.close()

    def test_pure_decoders_handle_a_burst(self):
        bin_blob = b"".join(
            encode_binary_frame({"i": i}) for i in range(self.COUNT)
        )
        bframes, brest = decode_binary_frames(bin_blob)
        assert len(bframes) == self.COUNT and brest == b""


class _ScriptedServer:
    """A fake server: one thread, scripted per connection.

    Each entry in ``script`` handles one accepted connection and is
    called with that connection's socket.
    """

    def __init__(self, *script):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.host, self.port = self.listener.getsockname()
        self.errors = []

        def run():
            for handle in script:
                conn, _ = self.listener.accept()
                conn.settimeout(5.0)
                try:
                    handle(conn)
                except Exception as exc:  # surfaced by the test body
                    self.errors.append(exc)
                    return

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=5.0)
        self.listener.close()
        assert not self.errors, self.errors


def _ok_reply(payload):
    return {
        "id": payload.get("id", ""), "status": "ok", "allocation": [1.0],
        "cost": 0.0, "iterations": 0, "converged": True,
    }


def _restart_reply(payload):
    return {
        "id": payload.get("id", ""), "status": "error",
        "reason": ERROR_WORKER_RESTARTED, "detail": "scripted",
    }


def _answer(conn, reader, make_reply):
    """Read one request frame and answer it, echoing its frame id."""
    payload, request_id = reader.read()
    send_binary_frame(conn, make_reply(payload), request_id)


class TestClientRetryBudget:
    """Transport failures and in-band worker restarts share ONE re-send
    budget (``retries``).  Regression: ``retry_restarts=True`` with
    ``retries=1`` used to never retry a restart, because the restart
    branch compared the attempt count *before* incrementing while the
    transport branch compared after."""

    def test_restart_is_retried_within_the_shared_budget(self):
        def serve(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _restart_reply)
            _answer(conn, reader, _ok_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(
                server.host, server.port, retries=1,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "ok"
                assert client.metrics["restarts_retried"] == 1
                assert client.metrics["retries"] == 1

    def test_restart_with_spent_budget_is_surfaced_structurally(self):
        def serve(conn):
            _answer(conn, BinaryFrameReader(conn), _restart_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(
                server.host, server.port, retries=0,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "error"
                assert response["reason"] == ERROR_WORKER_RESTARTED
                assert client.metrics["restarts_retried"] == 0

    def test_transport_and_restart_failures_draw_from_one_budget(self):
        # Budget of 2: one dropped connection + one restart error both
        # fit; the second restart answer is surfaced, not retried.
        def serve(conn):
            BinaryFrameReader(conn).read()
            conn.close()  # transport failure: mid-request drop

        def serve_restarts(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _restart_reply)
            _answer(conn, reader, _restart_reply)
            conn.close()

        with _ScriptedServer(serve, serve_restarts) as server:
            with NetClient(
                server.host, server.port, retries=2,
                retry_restarts=True, backoff_s=0.001,
            ) as client:
                response = client.request({"id": "r1"})
                assert response["status"] == "error"
                assert response["reason"] == ERROR_WORKER_RESTARTED
                assert client.metrics["retries"] == 2
                assert client.metrics["restarts_retried"] == 1


class TestClientConnectMetrics:
    def test_first_connections_are_connects_not_reconnects(self):
        def serve(conn):
            reader = BinaryFrameReader(conn)
            _answer(conn, reader, _ok_reply)
            _answer(conn, reader, _ok_reply)
            conn.close()

        with _ScriptedServer(serve) as server:
            with NetClient(server.host, server.port) as client:
                client.request({"id": "a"})
                client.request({"id": "b"})  # pooled connection is reused
                assert client.metrics["connects"] == 1
                assert client.metrics["reconnects"] == 0

    def test_replacing_a_dropped_connection_is_a_reconnect(self):
        def serve_drop(conn):
            BinaryFrameReader(conn).read()
            conn.close()

        def serve_ok(conn):
            _answer(conn, BinaryFrameReader(conn), _ok_reply)
            conn.close()

        with _ScriptedServer(serve_drop, serve_ok) as server:
            with NetClient(
                server.host, server.port, retries=1,
                backoff_s=0.001,
            ) as client:
                assert client.request({"id": "a"})["status"] == "ok"
                assert client.metrics["connects"] == 1
                assert client.metrics["reconnects"] == 1


class TestClientRefusesNonDictPayloads:
    """A payload the wire cannot frame is refused with a typed error
    before a connection is taken (no server listens here)."""

    @pytest.mark.parametrize("payload", [[1, 2], "ring", None, 3])
    def test_typed_error_and_no_connection(self, payload):
        client = NetClient("127.0.0.1", 9, retries=0, timeout_s=1.0)
        calls = [
            lambda: client.request(payload),
            lambda: client.solve_payload(payload),
            lambda: client.request_many([{"op": "ping"}, payload]),
            lambda: client.solve_payloads([payload]),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="must be a dict"):
                call()
        assert client.metrics["connects"] == client.metrics["reconnects"] == 0
        assert client.metrics["requests"] == 0


class TestRouting:
    """Routing is a function of the decoded frame alone."""

    def test_affinity_is_deterministic_and_structure_keyed(self):
        """The packed-ndarray form, the JSON-list form and the built
        problem's structural key agree, and parameter variants of one
        matrix share it."""
        r1 = SolveRequest(problem=ring_problem(), request_id="a")
        r2 = SolveRequest(problem=ring_problem(mu=2.5), alpha=0.1)  # same shape
        r3 = SolveRequest(problem=star_problem())
        as_list = request_to_payload(r1)
        [(packed, _)], _ = decode_binary_frames(encode_binary_frame(as_list))
        assert isinstance(packed["problem"]["cost_matrix"], np.ndarray)
        assert isinstance(as_list["problem"]["cost_matrix"], list)
        key = structural_key(r1.problem)
        assert routing_key(packed) == routing_key(as_list) == key
        assert routing_key(request_to_payload(r2)) == key
        assert shard_for(packed, 4) == shard_for(as_list, 4) == shard_of_key(key, 4)
        # Different structures may collide on a shard, but not on a key.
        assert routing_key(request_to_payload(r3)) != key

    def test_named_topology_keys_on_family_and_size(self):
        """Rate, mu and k never change the cost matrix, so they never
        change the shard; the codec's defaults (a ring of 4) apply."""
        def spec(**problem):
            return {"id": "x", "problem": problem, "alpha": 0.2}

        key = routing_key(spec(topology="ring", nodes=6))
        assert key is not None
        assert routing_key(spec(topology="ring", nodes=6, mu=2.5, rate=0.4, k=3.0)) == key
        assert routing_key(spec(topology="ring", nodes=7)) != key
        assert routing_key(spec(topology="star", nodes=6)) != key
        assert routing_key(spec()) == routing_key(spec(topology="ring", nodes=4))

    @pytest.mark.parametrize("payload", [
        {"id": "no-problem"},
        {"problem": [1, 2]},
        {"problem": {"cost_matrix": [[0.0, 1.0], [1.0]], "access_rates": [0.5, 0.5]}},
        {"problem": {"cost_matrix": "dense", "access_rates": [1.0]}},
        {"problem": {"access_rates": [0.5, 0.5]}},
    ])
    def test_payloads_naming_no_network_go_to_shard_0(self, payload):
        assert routing_key(payload) is None
        assert shard_for(payload, 3) == 0


class TestNamedTopologyBound:
    """A named topology may be no larger than the largest network an
    explicit request can carry in one frame."""

    CAP = 1446

    def test_cap_is_the_largest_packed_request_one_frame_carries(self):
        assert wire.MAX_PACKED_NODES == self.CAP

        def packed(n):
            return encode_binary_frame({
                "problem": {
                    "cost_matrix": np.zeros((n, n)), "access_rates": np.zeros(n),
                    "mu": np.ones(n),
                },
                "start": np.zeros(n),
            })

        assert len(packed(self.CAP)) <= wire.HEADER_BYTES + MAX_FRAME_BYTES
        with pytest.raises(BinaryFrameError, match="exceeds"):
            packed(self.CAP + 1)

    @pytest.mark.parametrize("nodes", [CAP + 1, 10**9])
    def test_larger_named_topologies_are_refused_in_band(self, nodes):
        # A line, not a ring: without the bound, line_graph(10**9) fails
        # at once on its n x n matrix, while ring_graph would first build
        # a 10**9-entry list of link costs.
        payload = {"id": "big", "problem": {"topology": "line", "nodes": nodes}}
        request, error = safe_parse(payload)
        assert request is None
        assert error == {
            "id": "big", "status": "error",
            "detail": f"ConfigurationError: topology nodes={nodes} exceeds "
                      f"{self.CAP}, the largest network one request frame can carry",
        }

    def test_unconvertible_numbers_are_in_band_errors(self):
        """``int(inf)`` raises OverflowError, not ValueError; it must not
        escape the parse (a worker would die of it)."""
        for payload in (
            {"problem": {"topology": "ring", "nodes": float("inf")}},
            {"problem": {"topology": "ring"}, "max_iterations": float("inf")},
            {"problem": {"topology": "ring", "rate": 10**400}},
        ):
            request, error = safe_parse(payload)
            assert request is None
            assert error["detail"].startswith("OverflowError:")


class TestWireCodecRoundTrip:
    def test_request_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        problem = FileAllocationProblem.from_topology(
            ring_graph(5), rng.uniform(0.01, 0.15, size=5), k=1.7,
            mu=rng.uniform(1.2, 3.0, size=5),
        )
        request = SolveRequest(
            problem=problem,
            alpha=0.2137,
            epsilon=3.3e-5,
            max_iterations=4242,
            initial_allocation=rng.dirichlet(np.ones(5)),
            request_id="round-trip",
            timeout_s=1.25,
            priority=3,
        )
        rebuilt = parse_request(request_to_payload(request))
        assert rebuilt.request_id == request.request_id
        assert rebuilt.alpha == request.alpha
        assert rebuilt.epsilon == request.epsilon
        assert rebuilt.max_iterations == request.max_iterations
        assert rebuilt.timeout_s == request.timeout_s
        assert rebuilt.priority == request.priority
        assert np.array_equal(
            rebuilt.initial_allocation, request.initial_allocation
        )
        # The solver-facing identity: same fingerprint means the remote
        # solve is bit-for-bit the local solve.
        assert request_fingerprint(rebuilt) == request_fingerprint(request)

    def test_non_mm1_problem_has_no_wire_form(self):
        problem = FileAllocationProblem(
            1.0 - np.eye(3), np.full(3, 1.0 / 3), k=1.0,
            delay_models=[MD1Delay(2.0)] * 3,
        )
        with pytest.raises(ConfigurationError, match="wire representation"):
            request_to_payload(SolveRequest(problem=problem))

    def test_response_round_trip_ok_and_rejected(self):
        ok = SolveResponse(
            request_id="r1",
            status="ok",
            allocation=np.array([0.25, 0.75]),
            cost=1.2345,
            iterations=17,
            converged=True,
            cache="warm",
            batch_size=3,
            latency_s=0.5,
        )
        rebuilt = response_from_dict(ok.as_dict())
        assert rebuilt.as_dict() == ok.as_dict()
        rejected = SolveResponse(
            request_id="r2", status="rejected", reason="queue_full", detail="d"
        )
        assert response_from_dict(rejected.as_dict()).as_dict() == rejected.as_dict()

    def test_error_marker_has_no_typed_form(self):
        with pytest.raises(ConfigurationError, match="no typed form"):
            response_from_dict({"status": "error", "detail": "boom"})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_start_is_an_in_band_error(self, bad):
        """A start vector with a NaN or inf entry is refused at parse time
        with an in-band error, so no engine ever starts from it."""
        payload = request_to_payload(
            SolveRequest(problem=ring_problem(), request_id="bad-start")
        )
        payload["start"] = [bad, 1.0, 0.0, 0.0]
        request, error = safe_parse(payload)
        assert request is None
        assert error["id"] == "bad-start" and error["status"] == "error"
        assert error["detail"].startswith("InfeasibleAllocationError: non-finite")


class TestCheckMetrics:
    """The docs-vs-emissions checker: every service.*/net.* metric the
    docs promise must be emitted somewhere in src/."""

    @staticmethod
    def run_checker(docs_dir, src_dir):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_metrics",
            Path(__file__).resolve().parent.parent / "tools" / "check_metrics.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(["--docs", str(docs_dir), "--src", str(src_dir)])

    def test_real_docs_pass_against_real_src(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        assert self.run_checker(root / "docs", root / "src") == 0

    def test_documented_but_unemitted_metric_fails(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Watch `net.requests` and `net.bogus.counter` on the dashboard.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc("net.requests")\n'
        )
        assert self.run_checker(docs, src) == 1

    def test_emitted_but_undocumented_metric_fails(self, tmp_path):
        """The reverse direction: every emission must be named in a doc,
        and a ``<name>`` placeholder documents an f-string's ``{...}``."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Watch `net.requests` and the per-shard `net.shard.<i>.routed`.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        emits = (
            'registry.counter_inc("net.requests")\n'
            'registry.counter_inc(f"net.shard.{s}.routed")\n'
        )
        (src / "emit.py").write_text(emits)
        assert self.run_checker(docs, src) == 0
        (src / "emit.py").write_text(emits + 'registry.counter_inc("net.silent")\n')
        assert self.run_checker(docs, src) == 1

    def test_fstring_placeholders_match_as_wildcards(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Dispositions land on `service.cache.hit` and "
            "`service.cache.demoted`.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc(f"service.cache.{status}")\n'
        )
        assert self.run_checker(docs, src) == 0

    def test_paths_calls_and_globs_are_not_mentions(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "See repro.net.binary and service.py; call service.solve(req) "
            "or net.stats(); the whole `service.*` family is merged. "
            "Config lives in service.cache.json for now.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text("x = 1\n")
        assert self.run_checker(docs, src) == 0

    def test_gossip_family_is_covered(self, tmp_path):
        """The net.gossip.* names match literal emissions and the
        per-peer f-string gauge; a misspelled one still fails."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "OPS.md").write_text(
            "Watch `net.gossip.rounds`, `net.gossip.records_merged` and "
            "the per-peer `net.gossip.peer.0.lag_s` gauge.\n"
        )
        src = tmp_path / "src"
        src.mkdir()
        (src / "emit.py").write_text(
            'registry.counter_inc("net.gossip.rounds")\n'
            'registry.counter_inc("net.gossip.records_merged")\n'
            'registry.gauge_set(f"net.gossip.peer.{peer.index}.lag_s", lag)\n'
        )
        assert self.run_checker(docs, src) == 0
        (docs / "OPS.md").write_text("Watch `net.gossip.roundz`.\n")
        assert self.run_checker(docs, src) == 1

    def test_real_gossip_metrics_are_emission_patterns(self):
        """Every metric the gossip subsystem claims to emit really shows
        up as an emission pattern in src/ (guards against renames)."""
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_metrics", root / "tools" / "check_metrics.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        patterns = module.emitted_patterns(root / "src")
        for name in (
            "net.gossip.rounds",
            "net.gossip.anti_entropy",
            "net.gossip.records_sent",
            "net.gossip.records_merged",
            "net.gossip.bytes",
            "net.gossip.deferred",
            "net.gossip.peer_down",
            "net.gossip.peers_live",
            "net.lookaside.expired",
        ):
            assert name in patterns, name
        import fnmatch

        assert any(
            "*" in p and fnmatch.fnmatchcase("net.gossip.peer.3.lag_s", p)
            for p in patterns
        )
