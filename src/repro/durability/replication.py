"""Cross-process replication: the changefeed over a socket.

The missing half of horizontal read scaling: a
:class:`ChangefeedServer` runs next to the primary
:class:`~repro.service.GraphRepairService` and streams each published
tenant's committed-delta feed to any number of connected replicas — in other
processes, or other machines — while a :class:`ReadReplica` maintains a live,
exactly-replayed copy of the tenant graph and serves match/query traffic
from it.  The primary keeps repairing; reads scale out.

Wire protocol (all messages are length-prefixed compact-JSON frames,
``[u32 length][payload]``, values encoded by
:mod:`repro.durability.codec`):

* client → server, once: ``{"v": 1, "tenant": "kg", "after": 0}``
* server → client: ``{"type": "snapshot", "sequence": G, "graph": {...}}``
  (skipped when ``after`` is already current), then an unbounded stream of
  ``{"type": "record", "record": {...}}`` — global sequences, dense.

The server captures the snapshot **under the tenant session's lock** (via
the public ``transaction()`` context manager, which holds it) after having
subscribed to the feed, so the snapshot sequence and the record stream can
neither miss nor double-apply a commit: records at or below the snapshot
sequence are de-duplicated client-side by sequence number.

**Scoped replicas.**  A replica may subscribe to a *node subset* (e.g. one
region of a huge tenant).  It then reuses the warm-pool projection machinery
— :class:`repro.parallel.replica.ReplicaView` over
:func:`~repro.parallel.replica.project_delta` — to filter each record down
to its slice, adopting created nodes that attach to it; when a change cannot
be expressed on the slice (a boundary-crossing edge, a straddling merge) the
view goes stale and the replica transparently **rebinds**: reconnects,
takes a fresh snapshot, re-derives its slice, and streams on.
"""

from __future__ import annotations

import socket
import struct
import threading
from queue import Empty, Queue
from typing import Any, Callable, Iterable

from repro.exceptions import ReplicationError
from repro.graph.property_graph import PropertyGraph
from repro.matching.matcher import Matcher, MatcherConfig
from repro.parallel.replica import ReplicaView
from repro.durability import codec

_LEN = struct.Struct("<I")
#: refuse absurd frames instead of attempting a multi-GiB recv
_MAX_FRAME = 512 * 1024 * 1024


def send_frame(sock: socket.socket, document: dict[str, Any]) -> None:
    payload = codec.dumps(document)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_FRAME:
        raise ReplicationError(f"frame of {length} bytes exceeds the limit")
    payload = _recv_exact(sock, length, eof_ok=False)
    return codec.loads(payload)


def _recv_exact(sock: socket.socket, count: int, eof_ok: bool) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            if remaining == count and eof_ok:
                raise  # idle at a frame boundary — the caller's business
            # a half-read frame cannot be resumed by the caller's retry loop
            raise ReplicationError("timed out mid-frame") from None
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ReplicationError("peer closed the stream mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _TenantFeed:
    """One published tenant: its session plus the global-sequence offset."""

    def __init__(self, session, base_sequence: int) -> None:
        self.session = session
        self.base_sequence = base_sequence


class ChangefeedServer:
    """Streams published tenants' committed-delta feeds to replicas.

    Runs an accept loop on a daemon thread plus one streaming thread per
    connected replica.  ``base_sequence`` at :meth:`publish` aligns the
    stream with the tenant's durable log (pass the
    :class:`~repro.durability.recovery.TenantDurability` base for restored
    tenants); without durability it defaults to 0 and global == session
    sequences.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._tenants: dict[str, _TenantFeed] = {}
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-changefeed-accept",
            daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` replicas connect to."""
        return self._listener.getsockname()[:2]

    def publish(self, name: str, session, base_sequence: int = 0) -> None:
        """Start streaming ``session``'s feed as tenant ``name``."""
        with self._lock:
            if name in self._tenants:
                raise ReplicationError(f"tenant {name!r} is already published")
            self._tenants[name] = _TenantFeed(session, base_sequence)

    def unpublish(self, name: str) -> None:
        with self._lock:
            self._tenants.pop(name, None)

    def close(self) -> None:
        """Stop accepting and tear down every stream.  Idempotent."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChangefeedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # server internals
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="repro-changefeed-stream")
            self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        unsubscribe = None
        try:
            conn.settimeout(30.0)
            request = recv_frame(conn)
            if request is None:
                return
            codec.check_version(request, kind="subscription request")
            name = request.get("tenant")
            after = int(request.get("after", 0))
            with self._lock:
                feed = self._tenants.get(name)
            if feed is None:
                send_frame(conn, {"type": "error",
                                  "message": f"unknown tenant {name!r}"})
                return
            session, base = feed.session, feed.base_sequence

            live: Queue = Queue()
            unsubscribe = session.on_commit(live.put)
            # capture the cut under the session lock: the transaction()
            # context holds it, so `capture_seq` and the snapshot agree and
            # every record after the cut is already flowing into `live`
            with session.transaction() as graph:
                capture_seq = base + session.last_sequence
                snapshot_doc = None
                if after < capture_seq or after == 0:
                    snapshot_doc = codec.encode_graph(graph)
            if snapshot_doc is not None:
                send_frame(conn, {"type": "snapshot", "v": codec.FORMAT_VERSION,
                                  "sequence": capture_seq,
                                  "graph": snapshot_doc})
                sent_through = capture_seq
            else:
                sent_through = after
            conn.settimeout(0.2)
            while not self._closed.is_set():
                try:
                    record = live.get(timeout=0.2)
                except Empty:
                    # liveness probe: detect a gone replica without records
                    if self._peer_gone(conn):
                        return
                    continue
                global_seq = base + record.sequence
                if global_seq <= sent_through:
                    continue  # published before the cut, already in snapshot
                conn.settimeout(30.0)  # the 0.2s probe timeout is recv-only
                send_frame(conn, {
                    "type": "record",
                    "record": codec.encode_record(global_seq, record.source,
                                                  record.delta)})
                sent_through = global_seq
        except (ReplicationError, OSError):
            pass  # replica went away; nothing to clean but the subscription
        finally:
            if unsubscribe is not None:
                unsubscribe()
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _peer_gone(conn: socket.socket) -> bool:
        try:
            conn.setblocking(False)
            chunk = conn.recv(1)
            return chunk == b""  # orderly shutdown from the peer
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True
        finally:
            conn.setblocking(True)
            conn.settimeout(0.2)


class ReadReplica:
    """A live, exactly-replayed copy of one tenant graph in this process.

    Connects, applies the snapshot, then replays records as they arrive.
    :meth:`catch_up` drains the stream to a target sequence (or until the
    stream idles); :meth:`find_matches` / :meth:`matcher` serve read traffic
    from the replica graph — in a separate process from the primary, this is
    the horizontal read path.

    With ``scope`` (a node-id set) the replica holds only the induced
    subgraph over its slice and projects each record through
    :class:`~repro.parallel.replica.ReplicaView`; an inexpressible change
    triggers a transparent rebind (fresh snapshot, re-derived slice).
    """

    def __init__(self, address: tuple[str, int], tenant: str,
                 scope: Iterable[str] | None = None,
                 timeout: float = 30.0) -> None:
        self.address = (address[0], int(address[1]))
        self.tenant = tenant
        self.scope = set(scope) if scope is not None else None
        self.timeout = timeout
        self.graph: PropertyGraph | None = None
        self.sequence = 0
        #: records applied (scoped mode: records *projected*, shipped or not)
        self.records_applied = 0
        self.rebinds = 0
        self._view: ReplicaView | None = None
        self._sock: socket.socket | None = None
        self._connect()

    # ------------------------------------------------------------------
    # stream handling
    # ------------------------------------------------------------------

    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection(self.address, timeout=self.timeout)
        send_frame(sock, {"v": codec.FORMAT_VERSION, "tenant": self.tenant,
                          "after": 0})
        message = recv_frame(sock)
        if message is None:
            raise ReplicationError("primary closed the stream before the "
                                   "snapshot")
        if message.get("type") == "error":
            raise ReplicationError(message.get("message", "subscription "
                                                          "refused"))
        if message.get("type") != "snapshot":
            raise ReplicationError(
                f"expected a snapshot frame, got {message.get('type')!r}")
        graph = codec.decode_graph(message["graph"])
        self.sequence = int(message["sequence"])
        if self.scope is not None:
            members = self.scope & set(graph.node_ids())
            self._view = ReplicaView(members)
            graph = graph.subgraph(members, name=f"{self.tenant}-scope")
        self.graph = graph
        self.graph.name = self.graph.name or self.tenant
        self._sock = sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ReadReplica":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def catch_up(self, until_sequence: int | None = None,
                 timeout: float = 30.0, idle: float = 0.3) -> int:
        """Apply buffered records; returns the replica's global sequence.

        With ``until_sequence`` the call blocks (up to ``timeout``) until the
        replica has applied that sequence, raising
        :class:`~repro.exceptions.ReplicationError` on timeout; without it,
        it drains until the stream has been idle for ``idle`` seconds.
        """
        deadline = threading.Event()
        timer = threading.Timer(timeout, deadline.set)
        timer.daemon = True
        timer.start()
        try:
            while True:
                if until_sequence is not None \
                        and self.sequence >= until_sequence:
                    return self.sequence
                self._sock.settimeout(idle if until_sequence is None else 0.2)
                try:
                    message = recv_frame(self._sock)
                except socket.timeout:
                    if until_sequence is None:
                        return self.sequence
                    if deadline.is_set():
                        raise ReplicationError(
                            f"timed out at sequence {self.sequence}, waiting "
                            f"for {until_sequence}") from None
                    continue
                if message is None:
                    if until_sequence is None:
                        return self.sequence
                    raise ReplicationError(
                        "primary closed the stream at sequence "
                        f"{self.sequence}, before {until_sequence}")
                self._apply(message)
        finally:
            timer.cancel()

    def _apply(self, message: dict[str, Any]) -> None:
        if message.get("type") != "record":
            raise ReplicationError(
                f"unexpected frame type {message.get('type')!r} mid-stream")
        sequence, _source, delta = codec.decode_record(message["record"])
        if sequence <= self.sequence:
            return  # duplicate of the snapshot cut
        if sequence != self.sequence + 1:
            raise ReplicationError(
                f"gap in the stream: expected {self.sequence + 1}, got "
                f"{sequence}")
        if self._view is None:
            delta and self._replay(delta)
        else:
            projection = self._view.project(delta)
            if projection.stale:
                self.rebinds += 1
                self._connect()  # fresh snapshot; sequence resets forward
                return
            if projection.shipped:
                self._replay(projection.shipped)
        self.sequence = sequence
        self.records_applied += 1

    def _replay(self, delta) -> None:
        from repro.graph.delta import replay_delta

        replay_delta(self.graph, delta)

    # ------------------------------------------------------------------
    # serving reads
    # ------------------------------------------------------------------

    def matcher(self) -> Matcher:
        """A fresh optimised matcher over the replica graph (the caller
        closes it)."""
        return Matcher(self.graph, MatcherConfig.optimized())

    def find_matches(self, pattern) -> list:
        with_matcher = self.matcher()
        try:
            return with_matcher.find_matches(pattern)
        finally:
            with_matcher.close()

    def match_keys(self, patterns: Iterable) -> dict[str, list]:
        """Sorted match keys per pattern name — the comparable read result
        the replica-equivalence tests and probes assert on."""
        keys: dict[str, list] = {}
        matcher = self.matcher()
        try:
            for pattern in patterns:
                keys[pattern.name] = sorted(
                    repr(match.key()) for match in matcher.find_matches(pattern))
        finally:
            matcher.close()
        return keys


def replica_match_probe(address: tuple[str, int], tenant: str, rules,
                        until_sequence: int, result_queue) -> None:
    """Spawn-process entry point: connect a replica, catch up to
    ``until_sequence``, serve one match pass, report the keys back.

    Top-level (spawn-picklable) so the separate-process replica tests and
    the crash-recovery smoke drive a *real* second process:
    ``Process(target=replica_match_probe, args=(addr, "kg", rules, seq, q))``.
    """
    try:
        with ReadReplica(address, tenant) as replica:
            replica.catch_up(until_sequence=until_sequence)
            result_queue.put(("ok", {
                "sequence": replica.sequence,
                "nodes": replica.graph.num_nodes,
                "edges": replica.graph.num_edges,
                "match_keys": replica.match_keys(
                    [rule.pattern for rule in rules]),
            }))
    except BaseException as exc:  # surface the failure to the parent
        result_queue.put(("error", f"{type(exc).__name__}: {exc}"))
