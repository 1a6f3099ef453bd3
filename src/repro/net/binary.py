"""The wire codec: struct-packed frames, ``np.frombuffer`` bodies.

Every frame on a :class:`~repro.net.server.NetServer` connection — client
requests, responses, control verbs, and gossip between servers — is a
binary frame:

* every frame starts with a **struct-packed header** —
  ``magic (4s) | version (B) | kind (B) | flags (H) | request id (Q) |
  body length (I)`` in little-endian byte order — so a reader always
  knows where the next frame begins without scanning for a delimiter;
* the **request id** is a transport-level correlation number: a
  pipelining client stamps each outgoing frame and matches responses by
  the echoed id, so many frames can be in flight per connection and the
  server may answer out of order (shards finish when they finish);
* solve requests and completed solves travel as **packed bodies**: the
  scalar fields in one struct, the float64 arrays (cost matrix, access
  rates, service rates, starting/served allocation) as raw little-endian
  bytes decoded with ``np.frombuffer`` — no per-element Python objects
  on the hot path;
* everything else (control verbs, hellos, errors, rejections, payloads
  with fields the packed layout does not know) rides as
  :data:`KIND_JSON` — a JSON body inside a binary frame — so a
  connection can carry *any* plain dict;
* the gossip mesh (:mod:`repro.net.gossip`) reuses the same 20-byte
  header: :data:`KIND_GOSSIP_DIGEST` and :data:`KIND_GOSSIP_PULL` carry
  compact JSON control bodies, while :data:`KIND_GOSSIP_RECORDS` packs
  batches of lookaside donor records — raw float64 parameter and
  allocation vectors — the same way solve bodies pack their arrays.

A :class:`BinaryFrameReader` **forwards** solve bodies instead of
decoding them: it checks a :data:`KIND_SOLVE` body's layout, reads its
id, and hands the body bytes on as ``{"id", "packed"}``.  The server's
event loop routes one on its cost-matrix slice (:func:`forwarded_cost`),
and the worker that answers it decodes it once
(:func:`decode_forwarded`).  :func:`decode_binary_frames` decodes every
body.

Decoding is total: any byte string either decodes to a dict or raises
:class:`BinaryFrameError` (a :class:`FrameError`).  A stream whose first
bytes differ from :data:`BINARY_MAGIC` is refused as soon as they
arrive, so a peer speaking another protocol gets an answer instead of a
wait for a full header.  Frames larger than :data:`MAX_FRAME_BYTES` are
refused from the header alone, before any body is buffered.

Parity is the contract: packing a request and unpacking it yields a
payload whose :func:`~repro.service.codec.parse_request` result
fingerprints identically to the original's, and an unpacked response
dict equals the dict :meth:`~repro.service.SolveResponse.as_dict`
produced (float64 survives bit-for-bit).
"""

from __future__ import annotations

import json
import math
import socket
import struct
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "MAX_FRAME_BYTES",
    "BinaryFrameError",
    "BinaryFrameReader",
    "FrameError",
    "decode_binary_frames",
    "decode_forwarded",
    "encode_binary_frame",
    "forwarded_cost",
    "send_binary_frame",
]

#: First four bytes of every binary frame.
BINARY_MAGIC = b"\xfaFAP"

#: Wire protocol version; bumped on any incompatible layout change.
BINARY_VERSION = 1

#: Body is UTF-8 JSON (control verbs, errors, unpackable payloads).
KIND_JSON = 0
#: Body is a packed solve request (scalars + raw float64 arrays).
KIND_SOLVE = 1
#: Body is a packed completed solve (scalars + raw float64 allocation).
KIND_RESULT = 2
#: Body is a JSON gossip digest (per-bucket tier fingerprints).
KIND_GOSSIP_DIGEST = 3
#: Body is a JSON gossip pull (per-bucket epoch vectors).
KIND_GOSSIP_PULL = 4
#: Body is a packed batch of lookaside donor records (raw float64
#: parameter/allocation vectors — the bulk bytes of the gossip mesh).
KIND_GOSSIP_RECORDS = 5

_HEADER = struct.Struct("<4sBBHQI")
HEADER_BYTES = _HEADER.size

# Packed solve request: alpha, epsilon, k, timeout_s (NaN = unset),
# max_iterations, n, priority, flags, id/name/start-name byte lengths.
_SOLVE_FRONT = struct.Struct("<ddddqiiHHHH")
_SOLVE_MU_SCALAR = 0x1  # mu is one float broadcast to every node
_SOLVE_MU_NONE = 0x2  # problem spec carried no mu at all
_SOLVE_START_VECTOR = 0x4  # start is an n-vector (else a named start)

# Packed completed solve: cost, latency_s, iterations, batch_size,
# flags (converged + cache disposition), id byte length; the allocation
# is the rest of the body.
_RESULT_FRONT = struct.Struct("<ddqiHH")
_RESULT_CONVERGED = 0x1
_CACHE_CODES = {"miss": 0, "hit": 1, "warm": 2}
_CACHE_NAMES = {code: name for name, code in _CACHE_CODES.items()}

_RECV_CHUNK = 262144

#: Hard cap on one frame's body; a request is ~kilobytes, so this is
#: three orders of magnitude of headroom.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The largest n whose explicit solve request fits in one frame: a packed
#: body of 8·(n² + 3n) + 56 bytes (the ``_SOLVE_FRONT`` header, the cost
#: matrix, and the rates, mu and start vectors).  A named topology may
#: have no more nodes (:mod:`repro.service.codec`).
MAX_PACKED_NODES = (
    math.isqrt(9 + 4 * ((MAX_FRAME_BYTES - _SOLVE_FRONT.size) // 8)) - 3
) // 2

# Packed gossip-record batch: server-id byte length + record count, then
# per record a front struct — epoch, remaining ttl (NaN = none),
# iterations, n, key/origin byte lengths — followed by the key and origin
# strings and the raw float64 params (2n+1) and allocation (n) vectors.
_GOSSIP_BATCH_FRONT = struct.Struct("<HI")
_GOSSIP_RECORD_FRONT = struct.Struct("<qdqiHH")
_GOSSIP_OP_KINDS = {
    "gossip_digest": KIND_GOSSIP_DIGEST,
    "gossip_pull": KIND_GOSSIP_PULL,
}

_PACKED_REQUEST_KEYS = {
    "id", "problem", "alpha", "epsilon", "max_iterations", "start",
    "timeout_s", "priority",
}
_PACKED_PROBLEM_KEYS = {"cost_matrix", "access_rates", "mu", "k", "name"}
_PACKED_RESPONSE_KEYS = {
    "id", "status", "allocation", "cost", "iterations", "converged",
    "cache", "batch_size", "latency_s",
}


class FrameError(ReproError):
    """The byte stream violated the framing protocol."""


class BinaryFrameError(FrameError):
    """The byte stream violated the binary framing protocol (bad magic,
    unknown version or kind, oversized or truncated body, corrupt packed
    layout)."""


def _f64(values) -> np.ndarray:
    # No ascontiguousarray: it would promote 0-d scalars to 1-d (breaking
    # the scalar-mu layout flag), and ``tobytes()`` emits C-order bytes
    # whatever the source layout.
    return np.asarray(values, dtype=np.float64)


def _pack_solve_body(payload: Dict) -> Optional[bytes]:
    """The packed body for a solve-request payload, or ``None`` when the
    payload has fields the packed layout cannot carry (it then travels
    as :data:`KIND_JSON` instead — nothing is ever dropped)."""
    if not _PACKED_REQUEST_KEYS.issuperset(payload):
        return None
    problem = payload.get("problem")
    if not isinstance(problem, dict) or not _PACKED_PROBLEM_KEYS.issuperset(problem):
        return None
    if "cost_matrix" not in problem or "access_rates" not in problem:
        return None
    try:
        cost = _f64(problem["cost_matrix"])
        rates = _f64(problem["access_rates"])
    except (TypeError, ValueError, OverflowError):
        return None
    n = rates.size
    if cost.shape != (n, n) or rates.ndim != 1:
        return None

    flags = 0
    mu = problem.get("mu")
    if mu is None:
        flags |= _SOLVE_MU_NONE
        mu_arr = np.empty(0, dtype=np.float64)
    else:
        try:
            mu_arr = _f64(mu)
        except (TypeError, ValueError, OverflowError):
            return None
        if mu_arr.ndim == 0:
            flags |= _SOLVE_MU_SCALAR
            mu_arr = mu_arr.reshape(1)
        elif mu_arr.shape != (n,):
            return None

    start = payload.get("start", "uniform")
    start_name = b""
    if isinstance(start, str):
        start_arr = np.empty(0, dtype=np.float64)
        start_name = start.encode("utf-8")
    else:
        try:
            start_arr = _f64(start)
        except (TypeError, ValueError, OverflowError):
            return None
        if start_arr.shape != (n,):
            return None
        flags |= _SOLVE_START_VECTOR

    timeout = payload.get("timeout_s")
    id_bytes = str(payload.get("id", "")).encode("utf-8")
    name_bytes = str(problem.get("name", "")).encode("utf-8")
    if max(len(id_bytes), len(name_bytes), len(start_name)) > 0xFFFF:
        return None
    try:
        front = _SOLVE_FRONT.pack(
            float(payload.get("alpha", 0.3)),
            float(payload.get("epsilon", 1e-3)),
            float(problem.get("k", 1.0)),
            float("nan") if timeout is None else float(timeout),
            int(payload.get("max_iterations", 10_000)),
            n,
            int(payload.get("priority", 0)),
            flags,
            len(id_bytes),
            len(name_bytes),
            len(start_name),
        )
    except (TypeError, ValueError, OverflowError, struct.error):
        return None
    return b"".join(
        (
            front,
            id_bytes,
            name_bytes,
            start_name,
            cost.tobytes(),
            rates.tobytes(),
            mu_arr.tobytes(),
            start_arr.tobytes(),
        )
    )


def _solve_layout(body: bytes) -> Tuple[tuple, str, str, str, int]:
    """Every check of a packed solve body but building its arrays:
    ``(front fields, id, name, start name, offset of the cost matrix)``.
    Raises :class:`BinaryFrameError` on a short or mis-sized body or a
    negative node count, and ``UnicodeDecodeError`` on an id, a name or
    (for a named start) a start name that is not UTF-8."""
    if len(body) < _SOLVE_FRONT.size:
        raise BinaryFrameError(
            f"solve body of {len(body)} bytes is shorter than its header"
        )
    front = _SOLVE_FRONT.unpack_from(body)
    n, flags, id_len, name_len, start_len = front[5], *front[7:]
    if n < 0:
        raise BinaryFrameError(f"solve body declares negative node count {n}")
    pos = _SOLVE_FRONT.size
    strings = []
    for length in (id_len, name_len, start_len):
        strings.append(body[pos : pos + length])
        pos += length
    id_bytes, name_bytes, start_name = strings
    mu_count = 0 if flags & _SOLVE_MU_NONE else (1 if flags & _SOLVE_MU_SCALAR else n)
    start_count = n if flags & _SOLVE_START_VECTOR else 0
    want = pos + 8 * (n * n + n + mu_count + start_count)
    if len(body) != want:
        raise BinaryFrameError(
            f"solve body is {len(body)} bytes, layout requires {want}"
        )
    name = name_bytes.decode("utf-8")
    request_id = id_bytes.decode("utf-8")
    start = "" if start_count else start_name.decode("utf-8")
    return front, request_id, name, start, pos


def _unpack_solve_body(body: bytes) -> Dict:
    """The packed solve body back into a wire-payload dict.

    Array fields come back as ``np.frombuffer`` views over ``body`` —
    zero copies on the hot path; ``body`` must therefore be an immutable
    ``bytes`` snapshot (the readers below guarantee it).
    """
    front, request_id, name, start_name, pos = _solve_layout(body)
    alpha, epsilon, k, timeout, max_iterations, n, priority, flags = front[:8]
    mu_count = 0 if flags & _SOLVE_MU_NONE else (1 if flags & _SOLVE_MU_SCALAR else n)

    def take(count: int) -> np.ndarray:
        nonlocal pos
        arr = np.frombuffer(body, dtype=np.float64, count=count, offset=pos)
        pos += 8 * count
        return arr

    cost = take(n * n).reshape(n, n)
    rates = take(n)
    mu_arr = take(mu_count)

    problem: Dict = {
        "cost_matrix": cost,
        "access_rates": rates,
        "k": k,
        "name": name,
    }
    if not flags & _SOLVE_MU_NONE:
        problem["mu"] = float(mu_arr[0]) if flags & _SOLVE_MU_SCALAR else mu_arr
    payload: Dict = {
        "id": request_id,
        "problem": problem,
        "alpha": alpha,
        "epsilon": epsilon,
        "max_iterations": max_iterations,
        "start": take(n) if flags & _SOLVE_START_VECTOR else start_name,
        "priority": priority,
    }
    if not np.isnan(timeout):
        payload["timeout_s"] = timeout
    return payload


def _forward_solve_body(body: bytes) -> Dict:
    """A packed solve body checked as :func:`_unpack_solve_body` checks
    it, but kept packed: ``{"id", "packed"}``."""
    _front, request_id, _name, _start, _pos = _solve_layout(body)
    return {"id": request_id, "packed": body}


def _forwarded_body(payload: Dict) -> Optional[bytes]:
    """The packed body of a forwarded solve, or ``None`` for any other
    payload (no JSON value is ``bytes``)."""
    body = payload.get("packed")
    return body if type(body) is bytes else None


def forwarded_cost(payload: Dict) -> Optional[np.ndarray]:
    """The cost matrix of a forwarded solve, as a read-only view over its
    body (the bytes :func:`decode_forwarded` would put in the payload),
    or ``None`` for any other payload."""
    body = _forwarded_body(payload)
    if body is None:
        return None
    front = _SOLVE_FRONT.unpack_from(body)
    n = front[5]
    offset = _SOLVE_FRONT.size + sum(front[8:])  # past the id, name and start name
    return np.frombuffer(body, dtype=np.float64, count=n * n, offset=offset).reshape(n, n)


def decode_forwarded(payload: Dict) -> Dict:
    """A forwarded solve decoded into its wire-payload dict; any other
    payload unchanged.  A body that does not decode (the reader checked
    it, so it should not happen) becomes an in-band error marker."""
    body = _forwarded_body(payload)
    if body is None:
        return payload
    try:
        return _unpack_solve_body(body)
    except (BinaryFrameError, ValueError) as exc:
        return {"id": payload.get("id", ""), "status": "error", "detail": str(exc)}


def _pack_result_body(payload: Dict) -> Optional[bytes]:
    """The packed body for a completed-solve response, or ``None`` for
    shapes the layout cannot carry (rejections, errors, extra fields)."""
    if payload.get("status") != "ok":
        return None
    if not _PACKED_RESPONSE_KEYS.issuperset(payload):
        return None
    cache = _CACHE_CODES.get(payload.get("cache", "miss"))
    if cache is None:
        return None
    try:
        allocation = _f64(payload["allocation"])
    except (KeyError, TypeError, ValueError):
        return None
    if allocation.ndim != 1:
        return None
    id_bytes = str(payload.get("id", "")).encode("utf-8")
    if len(id_bytes) > 0xFFFF:
        return None
    flags = cache << 1
    if payload.get("converged"):
        flags |= _RESULT_CONVERGED
    try:
        front = _RESULT_FRONT.pack(
            float(payload["cost"]),
            float(payload.get("latency_s", 0.0)),
            int(payload["iterations"]),
            int(payload.get("batch_size", 0)),
            flags,
            len(id_bytes),
        )
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    return front + id_bytes + allocation.tobytes()


def _unpack_result_body(body: bytes) -> Dict:
    """The packed result body back into the exact dict the JSON codec
    would have delivered (``allocation`` as a list of Python floats)."""
    if len(body) < _RESULT_FRONT.size:
        raise BinaryFrameError(
            f"result body of {len(body)} bytes is shorter than its header"
        )
    cost, latency, iterations, batch_size, flags, id_len = _RESULT_FRONT.unpack_from(
        body
    )
    pos = _RESULT_FRONT.size
    id_bytes = body[pos : pos + id_len]
    pos += id_len
    if pos > len(body) or (len(body) - pos) % 8:
        raise BinaryFrameError("result allocation is not a whole float64 array")
    allocation = np.frombuffer(body, dtype=np.float64, offset=pos)
    cache = _CACHE_NAMES.get(flags >> 1)
    if cache is None:
        raise BinaryFrameError(f"result carries unknown cache code {flags >> 1}")
    return {
        "id": id_bytes.decode("utf-8"),
        "status": "ok",
        "allocation": allocation.tolist(),
        "cost": cost,
        "iterations": iterations,
        "converged": bool(flags & _RESULT_CONVERGED),
        "cache": cache,
        "batch_size": batch_size,
        "latency_s": latency,
    }


def _pack_gossip_records_body(payload: Dict) -> bytes:
    """The packed body of a ``gossip_records`` batch.  Unlike the solve
    and result layouts there is no JSON fallback — records carry ndarray
    fields JSON cannot represent — so a malformed record raises."""
    records = payload.get("records", [])
    server = str(payload.get("server", "")).encode("utf-8")
    if len(server) > 0xFFFF:
        raise BinaryFrameError("gossip server id exceeds 65535 bytes")
    parts = [_GOSSIP_BATCH_FRONT.pack(len(server), len(records)), server]
    for record in records:
        try:
            key = str(record["key"]).encode("utf-8")
            origin = str(record.get("origin", "")).encode("utf-8")
            n = int(record["n"])
            params = _f64(record["params"]).ravel()
            allocation = _f64(record["allocation"]).ravel()
            ttl = record.get("ttl_s")
            front = _GOSSIP_RECORD_FRONT.pack(
                int(record.get("epoch", 0)),
                float("nan") if ttl is None else float(ttl),
                int(record.get("iterations", 0)),
                n,
                len(key),
                len(origin),
            )
        except (KeyError, TypeError, ValueError, struct.error) as exc:
            raise BinaryFrameError(f"unpackable gossip record: {exc}") from None
        if params.size != 2 * n + 1 or allocation.size != n:
            raise BinaryFrameError(
                f"gossip record for n={n} carries {params.size} params and "
                f"{allocation.size} allocation entries"
            )
        parts += [front, key, origin, params.tobytes(), allocation.tobytes()]
    return b"".join(parts)


def _unpack_gossip_records_body(body: bytes) -> Dict:
    """The packed batch back into ``{"op": "gossip_records", ...}`` with
    ``np.frombuffer`` views for the float64 vectors."""
    if len(body) < _GOSSIP_BATCH_FRONT.size:
        raise BinaryFrameError(
            f"gossip batch of {len(body)} bytes is shorter than its header"
        )
    server_len, count = _GOSSIP_BATCH_FRONT.unpack_from(body)
    pos = _GOSSIP_BATCH_FRONT.size
    server = body[pos : pos + server_len].decode("utf-8")
    pos += server_len
    records = []
    for _ in range(count):
        if len(body) - pos < _GOSSIP_RECORD_FRONT.size:
            raise BinaryFrameError("gossip batch truncated mid-record")
        epoch, ttl, iterations, n, key_len, origin_len = (
            _GOSSIP_RECORD_FRONT.unpack_from(body, pos)
        )
        if n < 0:
            raise BinaryFrameError(f"gossip record declares negative size {n}")
        pos += _GOSSIP_RECORD_FRONT.size
        key = body[pos : pos + key_len].decode("utf-8")
        pos += key_len
        origin = body[pos : pos + origin_len].decode("utf-8")
        pos += origin_len
        want = 8 * (3 * n + 1)
        if len(body) - pos < want:
            raise BinaryFrameError(
                f"gossip record for n={n} is missing its float64 vectors"
            )
        params = np.frombuffer(body, dtype=np.float64, count=2 * n + 1, offset=pos)
        pos += 8 * (2 * n + 1)
        allocation = np.frombuffer(body, dtype=np.float64, count=n, offset=pos)
        pos += 8 * n
        records.append({
            "key": key,
            "n": n,
            "params": params,
            "allocation": allocation,
            "iterations": iterations,
            "origin": origin,
            "epoch": epoch,
            "ttl_s": None if np.isnan(ttl) else ttl,
        })
    if pos != len(body):
        raise BinaryFrameError(
            f"gossip batch has {len(body) - pos} trailing bytes"
        )
    return {"op": "gossip_records", "server": server, "records": records}


def encode_binary_frame(payload: Dict, request_id: int = 0) -> bytes:
    """One payload dict as a binary frame stamped with ``request_id``.

    Solve requests and completed solves take the packed layouts; every
    other dict (and any payload the packed layouts cannot represent)
    travels as a JSON body inside the binary frame.
    """
    kind = KIND_JSON
    body: Optional[bytes] = None
    op = payload.get("op")
    if op == "gossip_records":
        kind = KIND_GOSSIP_RECORDS
        body = _pack_gossip_records_body(payload)
    elif op in _GOSSIP_OP_KINDS:
        kind = _GOSSIP_OP_KINDS[op]
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    elif "problem" in payload:
        body = _pack_solve_body(payload)
        if body is not None:
            kind = KIND_SOLVE
    elif payload.get("status") == "ok" and "allocation" in payload:
        body = _pack_result_body(payload)
        if body is not None:
            kind = KIND_RESULT
    if body is None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise BinaryFrameError(
            f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    header = _HEADER.pack(
        BINARY_MAGIC, BINARY_VERSION, kind, 0, request_id & 0xFFFFFFFFFFFFFFFF,
        len(body),
    )
    return header + body


def _decode_body(kind: int, body: bytes, forward: bool = False) -> Dict:
    """One frame body as a payload dict (a solve body kept packed when
    ``forward``); raises :class:`BinaryFrameError` (and nothing else) on
    any body that does not decode."""
    try:
        if kind == KIND_SOLVE:
            return _forward_solve_body(body) if forward else _unpack_solve_body(body)
        if kind == KIND_RESULT:
            return _unpack_result_body(body)
        if kind == KIND_GOSSIP_RECORDS:
            return _unpack_gossip_records_body(body)
    except ValueError as exc:  # bad UTF-8 in a packed string, and the like
        raise BinaryFrameError(f"corrupt kind-{kind} body: {exc}") from None
    if kind in (KIND_JSON, KIND_GOSSIP_DIGEST, KIND_GOSSIP_PULL):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise BinaryFrameError(f"frame body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BinaryFrameError(
                f"frame body must be a JSON object, got {type(payload).__name__}"
            )
        return payload
    raise BinaryFrameError(f"unknown frame kind {kind}")


def _parse_header(buffer, pos: int) -> Optional[Tuple[int, int, int]]:
    """``(kind, request_id, body_length)`` once the header is complete,
    ``None`` while more bytes are needed.  Raises on a corrupt header —
    on a wrong magic as soon as the bytes buffered so far differ from
    :data:`BINARY_MAGIC`, so another protocol is refused without
    waiting for a full header's worth of bytes."""
    if len(buffer) - pos < HEADER_BYTES:
        head = bytes(buffer[pos : pos + len(BINARY_MAGIC)])
        if not BINARY_MAGIC.startswith(head):
            raise BinaryFrameError(f"bad frame magic {head!r}")
        return None
    magic, version, kind, _flags, request_id, length = _HEADER.unpack_from(
        buffer, pos
    )
    if magic != BINARY_MAGIC:
        raise BinaryFrameError(f"bad frame magic {bytes(magic)!r}")
    if version != BINARY_VERSION:
        raise BinaryFrameError(
            f"unsupported protocol version {version} (this side speaks "
            f"{BINARY_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise BinaryFrameError(
            f"declared frame of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return kind, request_id, length


def _split_frames(
    buffer, pos: int = 0, forward: bool = False
) -> Tuple[List[Tuple[Dict, int]], int, Optional[BinaryFrameError]]:
    """The wire's one frame splitter: ``(frames, new_pos, error)`` for
    the complete ``(payload, request_id)`` frames in ``buffer[pos:]``,
    the offset past the last of them, and the first frame error (or
    ``None``).  Frames before a bad one are still returned: they arrived
    first and deserve answers.  With ``forward``, solve bodies stay
    packed (:func:`_forward_solve_body`), as a reader yields them."""
    frames: List[Tuple[Dict, int]] = []
    try:
        while True:
            parsed = _parse_header(buffer, pos)
            if parsed is None:
                break
            kind, request_id, length = parsed
            start = pos + HEADER_BYTES
            end = start + length
            if len(buffer) < end:
                break
            frames.append(
                (_decode_body(kind, bytes(buffer[start:end]), forward), request_id)
            )
            pos = end
    except BinaryFrameError as exc:
        return frames, pos, exc
    return frames, pos, None


def decode_binary_frames(buffer: bytes) -> Tuple[List[Tuple[Dict, int]], bytes]:
    """Every complete ``(payload, request_id)`` in ``buffer`` plus the
    unconsumed remainder; raises the first frame error."""
    frames, pos, error = _split_frames(buffer)
    if error is not None:
        raise error
    return frames, bytes(buffer[pos:])


def send_binary_frame(sock: socket.socket, payload: Dict, request_id: int = 0) -> int:
    """Encode and send one binary frame; returns the bytes put on the wire."""
    data = encode_binary_frame(payload, request_id)
    sock.sendall(data)
    return len(data)


class BinaryFrameReader:
    """Buffered binary-frame reader over one socket.

    :meth:`read` blocks for the next ``(payload, request_id)`` pair, or
    ``None`` on a clean EOF at a frame boundary.  :meth:`feed` is the
    half an event loop uses: it takes one received chunk and returns the
    frames it completed.  The receive buffer is a ``bytearray`` consumed
    by offset — O(bytes), not O(frames²), under pipelining.  Solve
    frames come out forwarded, ``{"id", "packed"}`` (see the module
    docstring); every other kind decoded.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()
        self._pos = 0
        self._ready = deque()
        self._error: Optional[BinaryFrameError] = None
        #: Total bytes consumed off the socket (for ``net.bytes_in``).
        self.bytes_read = 0

    def feed(
        self, chunk: bytes
    ) -> Tuple[List[Tuple[Dict, int]], Optional[BinaryFrameError]]:
        """Buffer ``chunk``; ``(frames, first frame error or None)``."""
        self.bytes_read += len(chunk)
        buffer = self._buffer
        buffer += chunk
        frames, pos, error = _split_frames(buffer, self._pos, True)
        if pos == len(buffer):
            buffer.clear()
            pos = 0
        elif pos > _RECV_CHUNK:
            del buffer[:pos]
            pos = 0
        self._pos = pos
        return frames, error

    def read(self) -> Optional[Tuple[Dict, int]]:
        while not self._ready:
            if self._error is not None:
                raise self._error
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                if len(self._buffer) - self._pos:
                    raise BinaryFrameError(
                        "connection closed mid-frame "
                        f"({len(self._buffer) - self._pos} buffered bytes)"
                    )
                return None
            frames, self._error = self.feed(chunk)
            self._ready.extend(frames)
        return self._ready.popleft()
