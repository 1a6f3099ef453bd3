"""The sharded TCP front end over the allocation service.

:class:`NetServer` is the piece that turns ``repro.service`` from an
in-process library into something real clients connect to:

* one **event-loop thread** (:mod:`selectors`) owns every socket —
  accept, read, frame parsing, and response writes all happen
  non-blocking in one place, so a thousand idle connections cost a
  thousand registrations, not a thousand threads, and a pipelining
  client can keep many requests in flight per connection;
* every connection speaks the **binary wire** (:mod:`repro.net.binary`:
  struct-packed headers, raw float64 bodies, plain dicts as JSON bodies
  inside the same frames); bytes that do not open with
  :data:`~repro.net.binary.BINARY_MAGIC` are refused in-band at once;
* :func:`~repro.net.router.shard_for` routes each request to a
  **shard** by the network it names, read off the frame (the loop never
  parses a request, and keeps a packed solve body packed: it reads the
  header, the id and the cost-matrix slice, and the worker decodes the
  body once), each shard a *bounded* FIFO queue
  owned by one dispatch thread and served by one **worker process**
  (:mod:`repro.net.worker`) running its own
  :class:`~repro.service.AllocationService` with its own cache — so
  repeats of a problem hit the cache that stored them, and same-shape
  requests micro-batch together.  A full shard queue answers
  immediately with a structured
  ``{"status": "rejected", "reason": "overloaded"}`` instead of letting
  a slow worker grow the queue (and every queued client's deadline)
  without bound;
* with a shared ``secret``, connections must pass an **HMAC
  challenge/response** (hello → nonce → ``HMAC-SHA256(secret, nonce)``)
  before any other frame is served; failures are answered in-band and
  the connection is closed;
* with ``peers``, the loop also runs a
  :class:`~repro.net.gossip.GossipAgent`: outbound links to the other
  servers of a static mesh (non-blocking connects, the same HMAC
  handshake, exponential backoff on dead peers) over which lookaside
  donor records are rumor-pushed and periodically reconciled by digest
  exchange — one server's converged solution becomes every server's
  warm start (see :mod:`repro.net.gossip`);
* **robustness is structural**: a dead worker is respawned and exactly
  the requests in flight with it get in-band ``worker_restarted``
  errors; a draining server (SIGTERM) finishes in-flight work and
  answers queued/new requests with structured ``shutting_down``
  rejections; a frame that does not decode, or whose handling fails,
  fails one connection (or peer link), never the server.

Control verbs ride the same frame stream: ``{"op": "stats"}`` returns
the merged ``service.*`` metrics of every worker plus the server's own
``net.*`` family (connections, bytes, per-shard routing and queue
depth, worker restarts); ``{"op": "ping"}`` is a liveness check;
``{"op": "hello"}`` starts authentication.
"""

from __future__ import annotations

import errno
import hashlib
import hmac
import queue
import secrets as _secrets
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.net.binary import BinaryFrameError, BinaryFrameReader, encode_binary_frame
from repro.net.gossip import GOSSIP_OPS, GossipAgent
from repro.net.lookaside import LookasideTier
from repro.net.peers import parse_peers
from repro.net.router import shard_for
from repro.net.worker import ERROR_WORKER_RESTARTED, WorkerCrashed, WorkerHandle
from repro.service import ServiceConfig

__all__ = [
    "NetServer",
    "REJECT_OVERLOADED",
    "REJECT_SHUTTING_DOWN",
]

#: Rejection reason for requests that arrive at (or are queued in) a
#: draining server.
REJECT_SHUTTING_DOWN = "shutting_down"

#: Rejection reason for requests that arrive at a full shard queue — the
#: transport's backpressure signal (the per-worker admission queue has
#: its own ``queue_full``).
REJECT_OVERLOADED = "overloaded"

_STOP = object()

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE
_RECV_CHUNK = 262144


def _unhandled(exc: Exception) -> BinaryFrameError:
    """A frame that decoded but could not be handled, as a frame error —
    answered like any malformed frame instead of escaping the loop."""
    return BinaryFrameError(f"frame could not be handled ({type(exc).__name__}: {exc})")


@dataclass
class _WorkItem:
    """One routed request waiting in a shard queue."""

    payload: Dict
    request_id: str
    reply: Callable[[Dict], None]


#: How long an outbound peer connect/handshake may take before the link
#: is declared failed and backed off.
_PEER_CONNECT_TIMEOUT_S = 5.0


class _PeerLink:
    """Event-loop state for one *outbound* gossip connection.

    Splits its input with a :class:`~repro.net.binary.BinaryFrameReader`
    like :class:`_Connection`, but is loop-thread confined — no
    out-buffer lock — and walks a small handshake state machine:
    ``connecting`` → (``hello`` → ``auth``, when the mesh has a shared
    secret) → ``ready``.
    """

    __slots__ = ("index", "sock", "frames", "out", "state", "deadline", "dead")

    def __init__(self, index: int, sock: socket.socket, deadline: float):
        self.index = index
        self.sock = sock
        self.frames = BinaryFrameReader(sock)
        self.out = bytearray()
        self.state = "connecting"
        self.deadline = deadline
        self.dead = False


class _Connection:
    """Event-loop state for one accepted socket."""

    __slots__ = (
        "sock", "frames", "out", "out_lock", "authed", "nonce", "closing", "dead",
    )

    def __init__(self, sock: socket.socket, *, authed: bool):
        self.sock = sock
        self.frames = BinaryFrameReader(sock)
        self.out = bytearray()
        self.out_lock = threading.Lock()
        self.authed = authed
        self.nonce: Optional[str] = None
        self.closing = False  # flush pending writes, then close
        self.dead = False  # closed; replies are dropped


class NetServer:
    """Sharded socket transport over per-worker allocation services.

    Parameters
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (read
        :attr:`address` after :meth:`start`).
    workers:
        Worker *processes*, each owning one
        :class:`~repro.service.AllocationService` + cache, and one shard
        queue (requests route to shards by their network; see
        :mod:`repro.net.router`).
    secret:
        Optional shared secret.  When set, every connection must pass
        the HMAC challenge/response handshake (``hello`` → ``nonce`` →
        ``auth`` carrying ``HMAC-SHA256(secret, nonce)``) before any
        other frame is served.
    service:
        The :class:`~repro.service.ServiceConfig` every worker builds its
        service from, built once here too so a bad setting raises before
        any worker starts.  Its ``queue_depth`` also bounds each *shard*
        queue (beyond it, requests get ``overloaded`` rejections), and
        its ``max_batch`` caps the requests a shard ships at once.
    lookaside:
        Enable the cross-shard :class:`~repro.net.lookaside.LookasideTier`:
        converged solves publish compact donor records back through the
        worker pipes, and dispatches carry the tier's best donor as a
        hint so a request routed to one shard can warm-start from
        another shard's solution when fingerprints drift across affinity
        boundaries.  Off by default (shards stay fully disjoint).
    lookaside_capacity:
        Donor records retained by the tier.
    lookaside_ttl_s:
        Optional lifetime for tier records.  An expired record is never
        handed out as a hint nor gossiped, and is lazily swept
        (``net.lookaside.expired``).
    peers:
        Static gossip mesh membership: ``"host:port,host:port"`` (or a
        list of such strings / ``(host, port)`` pairs) naming the *other*
        servers.  When set, a :class:`~repro.net.gossip.GossipAgent` runs
        on the event loop: donor records published to this server's
        lookaside tier are rumor-pushed to every live peer and the tiers
        are periodically reconciled by digest exchange, so one server's
        converged solution warm-starts the whole mesh.  Requires
        ``lookaside=True``
        (:class:`~repro.exceptions.ConfigurationError` otherwise).  Peer
        links reuse the HMAC handshake when ``secret`` is set — every
        server in a mesh must share the same secret.
    gossip_interval_s:
        Gossip round period (heartbeats + rumor pushes per round; a
        digest to one peer every fourth round).
    gossip_budget:
        Outbound gossip byte budget per second (token bucket shared by
        rumors, digests, and record transfers).
    server_id:
        Mesh identity stamped as ``origin`` on records this server
        publishes (default ``"host:port"`` of the bound listener).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        server-side ``net.*`` family; one is created if omitted.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        secret: Optional[str] = None,
        service: Optional[ServiceConfig] = None,
        lookaside: bool = False,
        lookaside_capacity: int = 512,
        lookaside_ttl_s: Optional[float] = None,
        peers=None,
        gossip_interval_s: float = 1.0,
        gossip_budget: int = 262144,
        server_id: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        context=None,
    ):
        self.host = host
        self.port = int(port)
        self.num_workers = max(1, int(workers))
        self.registry = registry if registry is not None else MetricsRegistry()
        self.service_config = service if service is not None else ServiceConfig()
        self.service_config.build()  # a bad setting fails here, not in every worker
        self.lookaside = (
            LookasideTier(
                lookaside_capacity,
                ttl_s=lookaside_ttl_s,
                registry=self.registry,
            )
            if lookaside
            else None
        )
        self.peer_addresses = parse_peers(peers)
        if self.peer_addresses and self.lookaside is None:
            raise ConfigurationError(
                "peers require the lookaside tier: gossip replicates donor "
                "records, and without --lookaside there is nothing to "
                "replicate (start with --lookaside as well)"
            )
        self.server_id = server_id
        self.gossip_interval_s = float(gossip_interval_s)
        self.gossip_budget = int(gossip_budget)
        self._secret = secret.encode("utf-8") if isinstance(secret, str) else secret
        # Hot-path metric names, built once: the routing path touches two
        # per-shard series per request.
        self._routed_counters = [
            f"net.shard.{s}.routed" for s in range(self.num_workers)
        ]
        self._depth_gauges = [
            f"net.shard.{s}.queue_depth" for s in range(self.num_workers)
        ]
        self._context = context
        self._workers: List[WorkerHandle] = []
        self._queues: List["queue.Queue"] = []
        self._shard_threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_stop = threading.Event()
        self._wake_recv: Optional[socket.socket] = None
        self._wake_send: Optional[socket.socket] = None
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        self._write_pending: set = set()
        self._write_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._draining = False
        self._started = False
        self._stopped = threading.Event()
        self._gossip: Optional[GossipAgent] = None
        self._peer_links: List[Optional[_PeerLink]] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "NetServer":
        """Spawn workers and shard threads, bind, and start the loop."""
        with self._state_lock:
            if self._started:
                return self
            self._started = True
        self._workers = [
            WorkerHandle(
                i, self.service_config,
                lookaside=self.lookaside is not None, context=self._context,
            )
            for i in range(self.num_workers)
        ]
        for shard in range(self.num_workers):
            self._queues.append(queue.Queue(maxsize=self.service_config.queue_depth))
            thread = threading.Thread(
                target=self._shard_loop, args=(shard,),
                name=f"repro-net-shard-{shard}", daemon=True,
            )
            self._shard_threads.append(thread)
            thread.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        if self.server_id is None:
            self.server_id = f"{self.host}:{self.port}"
        if self.lookaside is not None:
            self.lookaside.origin = self.server_id
        if self.peer_addresses:
            self._gossip = GossipAgent(
                self.server_id,
                self.lookaside,
                self.peer_addresses,
                interval_s=self.gossip_interval_s,
                budget_bytes_per_s=self.gossip_budget,
                registry=self.registry,
            )
            self._gossip.sender = self._gossip_send
            self._peer_links = [None] * len(self.peer_addresses)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, _READ, data="listener")
        self._selector.register(self._wake_recv, _READ, data="wake")
        self._loop_thread = threading.Thread(
            target=self._loop, name="repro-net-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ephemeral port 0)."""
        return (self.host, self.port)

    def worker_pids(self) -> List[int]:
        """Live worker pids (test hook for crash-recovery scenarios)."""
        return [w.pid for w in self._workers]

    def shutdown(self, *, timeout_s: float = 10.0) -> None:
        """Graceful drain: in-flight requests finish, queued and new ones
        are rejected with structured ``shutting_down`` responses, workers
        exit, and the listener closes.  Idempotent and thread-safe."""
        with self._state_lock:
            if not self._started or self._stopped.is_set():
                self._stopped.set()
                return
            already = self._draining
            self._draining = True
        if already:
            self._stopped.wait(timeout_s)
            return
        for q in self._queues:
            q.put(_STOP)
        for thread in self._shard_threads:
            thread.join(timeout=timeout_s)
        for worker in self._workers:
            worker.shutdown()
        # In-flight replies are already queued on their connections; the
        # loop flushes what it can before closing everything.
        self._loop_stop.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=timeout_s)
        self._stopped.set()

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes (e.g. from a signal)."""
        self._stopped.wait()

    def install_signal_handlers(self, signals=(signal.SIGTERM, signal.SIGINT)) -> None:
        """SIGTERM/SIGINT → graceful drain (call from the main thread)."""

        def _handler(signum, frame):
            threading.Thread(
                target=self.shutdown, name="repro-net-drain", daemon=True
            ).start()

        for sig in signals:
            signal.signal(sig, _handler)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the event loop --------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except (OSError, AttributeError):
            pass

    def _loop(self) -> None:
        sel = self._selector
        try:
            while not self._loop_stop.is_set():
                timeout = 1.0
                if self._gossip is not None and not self._draining:
                    # Wake exactly when the next gossip round is due (with
                    # a small floor so a due round never busy-spins).
                    timeout = min(1.0, max(
                        0.005,
                        self._gossip.seconds_until_due(time.monotonic()),
                    ))
                events = sel.select(timeout=timeout)
                for key, mask in events:
                    if key.data == "listener":
                        self._accept_ready()
                    elif key.data == "wake":
                        self._drain_wake()
                    elif isinstance(key.data, _PeerLink):
                        link = key.data
                        if mask & _WRITE and not link.dead:
                            self._peer_writable(link)
                        if mask & _READ and not link.dead:
                            self._peer_readable(link)
                    else:
                        conn = key.data
                        if mask & _WRITE:
                            self._flush(conn)
                        if mask & _READ and not conn.dead and not conn.closing:
                            self._read_ready(conn)
                with self._write_lock:
                    pending, self._write_pending = self._write_pending, set()
                for conn in pending:
                    self._flush(conn)
                if self._gossip is not None and not self._draining:
                    self._gossip_tick()
        finally:
            self._final_flush()

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _final_flush(self) -> None:
        """Best-effort delivery of already-queued replies at loop exit,
        then close every socket.  Sockets briefly revert to blocking
        sends with a short timeout so a reachable client gets its bytes
        without letting an unreachable one stall the drain."""
        with self._conn_lock:
            conns = list(self._connections)
        for conn in conns:
            with conn.out_lock:
                data, conn.out = bytes(conn.out), bytearray()
            if data and not conn.dead:
                try:
                    conn.sock.settimeout(1.0)
                    conn.sock.sendall(data)
                except OSError:
                    pass
            self._close_conn(conn)
        for link in self._peer_links:
            if link is not None and not link.dead:
                self._peer_fail(link, "server shutting down", quiet=True)
        for sock in (self._listener, self._wake_recv, self._wake_send):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        try:
            self._selector.close()
        except OSError:
            pass

    # -- accepting and reading -------------------------------------------------

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            if self._draining:
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, authed=self._secret is None)
            self.registry.counter_inc("net.connections")
            with self._conn_lock:
                self._connections.add(conn)
                self.registry.gauge_set(
                    "net.connections_active", float(len(self._connections))
                )
            self._selector.register(sock, _READ, data=conn)

    def _read_ready(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not chunk:
            self._close_conn(conn)
            return
        self.registry.counter_inc("net.bytes_in", len(chunk))
        frames, error = conn.frames.feed(chunk)
        for payload, corr_id in frames:
            try:
                self._handle_payload(conn, payload, corr_id)
            except Exception as exc:  # a bad frame fails its connection only
                error = _unhandled(exc)
                break
            if conn.closing or conn.dead:
                return
        if error is not None:
            self.registry.counter_inc("net.bad_frames")
            self._fail_conn(
                conn,
                {"status": "error", "reason": "bad_frame", "detail": str(error)},
            )

    # -- writing ---------------------------------------------------------------

    def _reply(self, conn: _Connection, corr_id: int, payload: Dict) -> Optional[int]:
        """Queue one response on ``conn`` (thread-safe; shard threads and
        the loop both land here) and nudge the loop to flush it.  Returns
        the bytes queued (``None`` when nothing was sent) so gossip
        replies can be budget-accounted."""
        if conn.dead:
            return None
        try:
            data = encode_binary_frame(payload, corr_id)
        except BinaryFrameError:
            return None  # response too large to frame; nothing useful to send
        with conn.out_lock:
            conn.out += data
        self.registry.counter_inc("net.responses")
        if threading.current_thread() is self._loop_thread:
            self._flush(conn)
        else:
            with self._write_lock:
                # One wake byte is enough to pop the loop out of select();
                # while the pending set is non-empty a wake is already in
                # flight, so burst replies cost one syscall, not one each.
                need_wake = not self._write_pending
                self._write_pending.add(conn)
            if need_wake:
                self._wake()
        return len(data)

    def _fail_conn(self, conn: _Connection, payload: Dict) -> None:
        """Answer in-band, then close once the reply has been flushed."""
        conn.closing = True
        self._reply(conn, 0, payload)

    def _flush(self, conn: _Connection) -> None:
        """Write as much queued output as the socket accepts (loop thread
        only); keeps WRITE interest registered while bytes remain."""
        if conn.dead:
            return
        error = False
        with conn.out_lock:
            while conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    error = True
                    break
                self.registry.counter_inc("net.bytes_out", sent)
                del conn.out[:sent]
            remaining = len(conn.out)
        if error or (remaining == 0 and conn.closing):
            self._close_conn(conn)
            return
        try:
            self._selector.modify(
                conn.sock, _READ | _WRITE if remaining else _READ, data=conn
            )
        except (KeyError, ValueError, OSError):
            pass

    def _close_conn(self, conn: _Connection) -> None:
        if conn.dead:
            return
        conn.dead = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        with self._conn_lock:
            self._connections.discard(conn)
            self.registry.gauge_set(
                "net.connections_active", float(len(self._connections))
            )

    # -- gossip peer links (loop thread only) ----------------------------------

    def _gossip_tick(self) -> None:
        """Per-iteration gossip housekeeping: (re)connect due peers, fail
        stalled handshakes and silent links, then let the agent run its
        round timer."""
        now = time.monotonic()
        agent = self._gossip
        for peer in agent.peers:
            link = self._peer_links[peer.index]
            if link is None or link.dead:
                if peer.due(now):
                    self._peer_connect(peer.index)
            elif link.state != "ready" and now > link.deadline:
                self._peer_fail(link, "connect/handshake timed out")
            elif link.state == "ready" and agent.peer_stale(peer.index, now):
                self._peer_fail(link, "heartbeat timeout")
        agent.tick(now)

    def _peer_connect(self, index: int) -> None:
        peer = self._gossip.peers[index]
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        link = _PeerLink(index, sock, time.monotonic() + _PEER_CONNECT_TIMEOUT_S)
        try:
            err = sock.connect_ex((peer.host, peer.port))
        except OSError:
            err = -1
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            try:
                sock.close()
            except OSError:
                pass
            self._gossip.peer_failed(index)
            return
        self._peer_links[index] = link
        self._selector.register(sock, _READ | _WRITE, data=link)

    def _peer_writable(self, link: _PeerLink) -> None:
        if link.state == "connecting":
            err = link.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self._peer_fail(link, f"connect failed (errno {err})")
                return
            if self._secret is not None:
                link.state = "hello"
                self._link_queue(link, {"op": "hello"})
            else:
                self._link_ready(link)
        self._link_flush(link)

    def _peer_readable(self, link: _PeerLink) -> None:
        try:
            chunk = link.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError as exc:
            self._peer_fail(link, f"read failed ({exc})")
            return
        if not chunk:
            self._peer_fail(link, "peer closed the connection")
            return
        self.registry.counter_inc("net.bytes_in", len(chunk))
        frames, error = link.frames.feed(chunk)
        for payload, _corr_id in frames:
            self._gossip.note_peer_frame(link.index)
            try:
                self._link_frame(link, payload)
            except Exception as exc:  # a bad frame fails its link only
                error = _unhandled(exc)
                break
            if link.dead:
                return
        if error is not None:
            self._peer_fail(link, f"bad frame from peer ({error})")

    def _link_frame(self, link: _PeerLink, payload: Dict) -> None:
        """Walk the handshake, then hand gossip traffic to the agent."""
        status = payload.get("status")
        if link.state == "hello":
            if status == "challenge" and isinstance(payload.get("nonce"), str):
                mac = hmac.new(
                    self._secret,
                    bytes.fromhex(payload["nonce"]),
                    hashlib.sha256,
                ).hexdigest()
                link.state = "auth"
                self._link_queue(link, {"op": "auth", "mac": mac})
            elif status == "ok":
                self._link_ready(link)  # peer runs with no secret
            else:
                self._peer_fail(link, f"handshake refused ({status!r})")
        elif link.state == "auth":
            if status == "ok":
                self._link_ready(link)
            else:
                self._peer_fail(link, f"authentication failed ({status!r})")
        elif status == "error":
            # The peer answered a gossip frame with a protocol error —
            # e.g. gossip disabled over there.  Back off rather than spin.
            self._peer_fail(
                link, f"peer rejected gossip ({payload.get('reason') or payload.get('detail')})"
            )
        else:
            self._gossip.handle_remote(
                payload, partial(self._link_queue, link)
            )

    def _link_ready(self, link: _PeerLink) -> None:
        link.state = "ready"
        self._gossip.peer_connected(link.index)

    def _gossip_send(self, index: int, payload: Dict) -> Optional[int]:
        """The agent's ``sender``: frame onto the ready link, or ``None``."""
        link = self._peer_links[index] if index < len(self._peer_links) else None
        if link is None or link.dead or link.state != "ready":
            return None
        return self._link_queue(link, payload)

    def _link_queue(self, link: _PeerLink, payload: Dict) -> Optional[int]:
        """Encode and queue one frame on a peer link (loop thread only).
        Returns the bytes queued, or ``None`` when framing failed."""
        if link.dead:
            return None
        try:
            data = encode_binary_frame(payload, 0)
        except BinaryFrameError as exc:
            self.registry.counter_inc("net.bad_frames")
            self.registry.event(
                "net_gossip_encode_error",
                peer=self._gossip.peers[link.index].address,
                detail=str(exc),
            )
            return None
        link.out += data
        self._link_flush(link)
        return len(data)

    def _link_flush(self, link: _PeerLink) -> None:
        if link.dead:
            return
        while link.out:
            try:
                sent = link.sock.send(link.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._peer_fail(link, f"write failed ({exc})")
                return
            self.registry.counter_inc("net.bytes_out", sent)
            del link.out[:sent]
        want = _READ | _WRITE if (link.out or link.state == "connecting") else _READ
        try:
            self._selector.modify(link.sock, want, data=link)
        except (KeyError, ValueError, OSError):
            pass

    def _peer_fail(self, link: _PeerLink, reason: str, *, quiet: bool = False) -> None:
        """Tear down one peer link and let the agent schedule the retry."""
        if link.dead:
            return
        link.dead = True
        try:
            self._selector.unregister(link.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            link.sock.close()
        except OSError:
            pass
        if link.index < len(self._peer_links):
            self._peer_links[link.index] = None
        if self._gossip is not None and not quiet:
            self._gossip.peer_failed(link.index)

    # -- frame handling --------------------------------------------------------

    def _handle_payload(self, conn: _Connection, payload: Dict, corr_id: int) -> None:
        op = payload.get("op")
        if op is not None:
            self._handle_op(conn, payload, corr_id, str(op))
            return
        if self._secret is not None and not conn.authed:
            self.registry.counter_inc("net.rejected.auth_required")
            self._fail_conn(conn, {
                "id": str(payload.get("id", "")),
                "status": "error", "reason": "auth_required",
                "detail": "this server requires the shared-secret handshake "
                          "(send {'op': 'hello'} first)",
            })
            return
        self.registry.counter_inc("net.requests")
        request_id = str(payload.get("id", ""))
        if self._draining:
            self._reply(conn, corr_id, self._shutting_down(request_id))
            return
        shard = shard_for(payload, self.num_workers)
        self.registry.counter_inc(self._routed_counters[shard])
        item = _WorkItem(
            payload=payload,
            request_id=request_id,
            reply=partial(self._reply, conn, corr_id),
        )
        q = self._queues[shard]
        try:
            q.put_nowait(item)
        except queue.Full:
            self.registry.counter_inc("net.rejected.overloaded")
            self._reply(conn, corr_id, {
                "id": request_id,
                "status": "rejected",
                "reason": REJECT_OVERLOADED,
                "detail": f"shard {shard} queue is full "
                          f"({self.service_config.queue_depth} requests already waiting)",
            })
            return
        self.registry.gauge_set(self._depth_gauges[shard], float(q.qsize()))

    def _handle_op(
        self, conn: _Connection, payload: Dict, corr_id: int, op: str
    ) -> None:
        self.registry.counter_inc(f"net.ops.{op}")
        if op == "hello":
            self._handle_hello(conn, corr_id)
        elif op == "auth":
            self._handle_auth(conn, payload, corr_id)
        elif self._secret is not None and not conn.authed:
            self.registry.counter_inc("net.rejected.auth_required")
            self._fail_conn(conn, {
                "op": op, "status": "error", "reason": "auth_required",
                "detail": "authenticate before using control verbs",
            })
        elif op == "stats":
            # stats() blocks on worker pipes; never stall the loop for it.
            threading.Thread(
                target=lambda: self._reply(
                    conn, corr_id,
                    {"op": "stats", "status": "ok", "stats": self.stats()},
                ),
                name="repro-net-stats", daemon=True,
            ).start()
        elif op == "ping":
            self._reply(conn, corr_id, {"op": "ping", "status": "ok"})
        elif op in GOSSIP_OPS:
            if self._gossip is None:
                self._reply(conn, corr_id, {
                    "op": op, "status": "error", "reason": "gossip_disabled",
                    "detail": "this server is not in a gossip mesh "
                              "(start it with --peers)",
                })
            else:
                self._gossip.handle_remote(
                    payload, partial(self._reply, conn, corr_id)
                )
        else:
            self._reply(conn, corr_id, {
                "op": op, "status": "error",
                "detail": f"unknown control verb {op!r}",
            })

    def _handle_hello(self, conn: _Connection, corr_id: int) -> None:
        reply = {
            "op": "hello",
            "status": "ok",
            "auth": self._secret is not None,
        }
        if self._secret is not None and not conn.authed:
            conn.nonce = _secrets.token_hex(16)
            reply["status"] = "challenge"
            reply["nonce"] = conn.nonce
        self._reply(conn, corr_id, reply)

    def _handle_auth(self, conn: _Connection, payload: Dict, corr_id: int) -> None:
        if self._secret is None or conn.authed:
            self._reply(conn, corr_id, {"op": "auth", "status": "ok"})
            return
        mac = payload.get("mac")
        want = hmac.new(
            self._secret, bytes.fromhex(conn.nonce), hashlib.sha256
        ).hexdigest() if conn.nonce is not None else None
        if want is not None and isinstance(mac, str) and hmac.compare_digest(mac, want):
            conn.authed = True
            conn.nonce = None
            self.registry.counter_inc("net.auth_ok")
            self._reply(conn, corr_id, {"op": "auth", "status": "ok"})
            return
        self.registry.counter_inc("net.rejected.auth_failed")
        self._fail_conn(conn, {
            "op": "auth", "status": "error", "reason": "auth_failed",
            "detail": "bad credentials" if conn.nonce is not None
            else "no challenge outstanding (send {'op': 'hello'} first)",
        })

    # -- routing and dispatch --------------------------------------------------

    def _shard_loop(self, shard: int) -> None:
        q = self._queues[shard]
        worker = self._workers[shard]
        depth_gauge = self._depth_gauges[shard]
        while True:
            item = q.get()
            if item is _STOP:
                self._reject_remaining(q)
                return
            batch = [item]
            # Opportunistic batching: everything already queued (up to the
            # worker's max_batch) ships as one group so the worker's
            # micro-batcher can fuse compatible requests.
            stop_seen = False
            while len(batch) < self.service_config.max_batch:
                try:
                    extra = q.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop_seen = True
                    break
                batch.append(extra)
            self.registry.gauge_set(depth_gauge, float(q.qsize()))
            if self._draining:
                for it in batch:
                    it.reply(self._shutting_down(it.request_id))
            else:
                self._dispatch(worker, batch)
            if stop_seen:
                self._reject_remaining(q)
                return

    def _dispatch(self, worker: WorkerHandle, batch: List[_WorkItem]) -> None:
        payloads = [item.payload for item in batch]
        try:
            if self.lookaside is not None:
                hints = [self.lookaside.donor_for_payload(p) for p in payloads]
                message = ("solve", payloads, hints)
            else:
                message = ("solve", payloads)
            reply = worker.roundtrip(message)
            kind, results = reply[0], reply[1] if len(reply) > 1 else None
        except WorkerCrashed as exc:
            self.registry.counter_inc("net.worker_restarts")
            self.registry.counter_inc("net.requests_lost", len(batch))
            self.registry.event(
                "net_worker_restart", worker=worker.index, lost=len(batch)
            )
            for item in batch:
                item.reply(
                    {
                        "id": item.request_id,
                        "status": "error",
                        "reason": ERROR_WORKER_RESTARTED,
                        "detail": str(exc),
                    }
                )
            return
        except Exception as exc:  # noqa: BLE001 - the shard thread must outlive any payload
            # The payloads arrive unparsed, and one may fail on the way to
            # the worker (say, nested too deep to pickle).  Retry one by
            # one, so only the request at fault is answered with the error.
            if len(batch) > 1:
                for item in batch:
                    self._dispatch(worker, [item])
                return
            batch[0].reply({
                "id": batch[0].request_id,
                "status": "error",
                "detail": f"dispatch failed: {type(exc).__name__}: {exc}",
            })
            return
        if kind != "results" or not isinstance(results, list) or len(results) != len(batch):
            for item in batch:
                item.reply(
                    {
                        "id": item.request_id,
                        "status": "error",
                        "detail": f"worker protocol violation (reply {kind!r})",
                    }
                )
            return
        if self.lookaside is not None and len(reply) > 2:
            for record in reply[2]:
                self.lookaside.insert(record)
        for item, result in zip(batch, results):
            item.reply(result)

    def _reject_remaining(self, q: "queue.Queue") -> None:
        """Drain a stopping shard queue with structured rejections."""
        while True:
            try:
                item = q.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            item.reply(self._shutting_down(item.request_id))

    def _shutting_down(self, request_id: str) -> Dict:
        self.registry.counter_inc("net.rejected.shutting_down")
        return {
            "id": request_id,
            "status": "rejected",
            "reason": REJECT_SHUTTING_DOWN,
            "detail": "server is draining; request was not dispatched",
        }

    # -- observability ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Merged operational snapshot: every worker's ``service.*``
        metrics folded together, the server's ``net.*`` family, and
        per-shard / per-worker breakdowns."""
        merged = MetricsRegistry()
        workers = []
        for worker in self._workers:
            entry = {
                "index": worker.index,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
            }
            if not worker.closed:
                try:
                    kind, snapshot = worker.roundtrip(("stats",))
                    if kind == "stats":
                        merged.merge_snapshot(snapshot)
                        entry["cache_size"] = snapshot.get("gauges", {}).get(
                            "service.cache.size", 0.0
                        )
                except WorkerCrashed:
                    self.registry.counter_inc("net.worker_restarts")
                    entry["alive"] = worker.alive
            workers.append(entry)
        for shard, q in enumerate(self._queues):
            self.registry.gauge_set(self._depth_gauges[shard], float(q.qsize()))
        merged.merge_snapshot(self.registry.snapshot())
        snapshot = merged.snapshot()
        snapshot["workers"] = workers
        snapshot["shards"] = [
            {
                "shard": shard,
                "queue_depth": q.qsize(),
                "routed": int(
                    self.registry.counters.get(self._routed_counters[shard], 0)
                ),
            }
            for shard, q in enumerate(self._queues)
        ]
        snapshot["lookaside"] = (
            len(self.lookaside) if self.lookaside is not None else None
        )
        snapshot["auth"] = self._secret is not None
        snapshot["server_id"] = self.server_id
        snapshot["gossip"] = (
            self._gossip.stats() if self._gossip is not None else None
        )
        snapshot["draining"] = self._draining
        return snapshot

    def __repr__(self) -> str:
        state = (
            "draining" if self._draining else ("serving" if self._started else "new")
        )
        return (
            f"NetServer({self.host}:{self.port}, {state}, "
            f"workers={self.num_workers})"
        )
