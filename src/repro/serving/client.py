"""Client plumbing for the PIR shard service: the engine-facing remote layer.

A remote shard is an ordinary :class:`~repro.pir.sharded.PirShard`
connection — the two-server XOR client (validation, the mask draw from the
shard's seeded stream, the adversary log) is the same code as in process —
whose transport is a :class:`TcpShardTransport`: it speaks the
:mod:`repro.serving.wire` protocol to one
:class:`~repro.serving.server.ShardServer` over a small pool of persistent
TCP connections, ships both servers' masks in one request and XOR-combines
the validated answers.  So the returned pages, the adversary-view logs and
the RNG consumption are bit-identical to local serving by construction, and
the wire carries only masks, never page numbers.

:class:`RemotePirSimulator` is the drop-in
:class:`~repro.pir.sharded.ShardedPirSimulator` whose shard connections are
remote: the query engine builds one per worker context when constructed
with ``serving=...``, and every result, trace and simulated cost matches
in-process serving exactly (property-tested; invariant I2).

``BUSY`` responses (the server's admission control) are retried with a
short backoff — backpressure slows a client down but never changes results.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import PirError

# not called here (remote draws run in ``pir.kernels.draw_shares``): the frozen
# e2e tracer binds this module's name until ROADMAP item 3 replaces its patch list
from ..pir.batch import random_subset_masks  # noqa: F401
from ..pir.sharded import ShardedPageStore, ShardedPirSimulator
from ..pir.scp import SecureCoprocessor
from ..pir.xor_pir import xor_bytes
from ..storage import Database
from . import wire

#: How often a BUSY answer is retried before giving up.
DEFAULT_BUSY_RETRIES = 200
#: Pause between BUSY retries (seconds).
DEFAULT_BUSY_BACKOFF_S = 0.002


class ShardConnection:
    """One persistent blocking connection to a shard server."""

    def __init__(self, address: Tuple[str, int], timeout: float = 30.0) -> None:
        self.address = (address[0], int(address[1]))
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def _ensure(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    self.address, timeout=self.timeout
                )
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:
                raise PirError(
                    f"cannot connect to shard server at "
                    f"{self.address[0]}:{self.address[1]}: {exc}"
                ) from exc
        return self._sock

    def request(self, payload: bytes) -> bytes:
        """One framed request/response round trip (in-order protocol)."""
        sock = self._ensure()
        try:
            sock.sendall(wire.encode_frame(payload))
            header = self._recv_exact(sock, wire.HEADER_SIZE)
            length = wire.decode_frame_length(header)
            return self._recv_exact(sock, length)
        except OSError as exc:
            self.close()
            raise PirError(f"request to shard server at {self.address} failed: {exc}") from exc
        except PirError:
            self.close()
            raise

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise PirError("shard server closed the connection mid-response")
            chunks.extend(chunk)
        return bytes(chunks)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class ConnectionPool:
    """A bounded pool of reusable connections to one shard server."""

    def __init__(
        self, address: Tuple[str, int], size: int = 2, timeout: float = 30.0
    ) -> None:
        if size < 1:
            raise PirError(f"connection pool size must be positive, got {size}")
        self.address = address
        self.size = size
        self.timeout = timeout
        self._idle: List[ShardConnection] = []
        self._lock = threading.Lock()

    @contextmanager
    def connection(self) -> Iterator[ShardConnection]:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = ShardConnection(self.address, timeout=self.timeout)
        try:
            yield conn
        except BaseException:
            conn.close()
            raise
        finally:
            with self._lock:
                if len(self._idle) < self.size:
                    self._idle.append(conn)
                    conn = None
        if conn is not None:
            conn.close()

    def request(self, payload: bytes) -> bytes:
        with self.connection() as conn:
            return conn.request(payload)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class TcpShardTransport:
    """Carries a shard read's shares to one shard server and back.

    The :class:`~repro.pir.sharded.ShardTransport` of a remote deployment:
    both shares ship in one ANSWER request over a small pool of persistent
    connections, and the answered blocks — outside input, so each is checked
    against the local view's page size — are XOR-combined here.
    """

    __slots__ = ("shard_id", "busy_retries", "busy_backoff_s", "_store", "_pool")

    def __init__(
        self,
        shard_id: int,
        store: ShardedPageStore,
        address: Tuple[str, int],
        timeout: float = 30.0,
        busy_retries: int = DEFAULT_BUSY_RETRIES,
        busy_backoff_s: float = DEFAULT_BUSY_BACKOFF_S,
    ) -> None:
        self.shard_id = shard_id
        self.busy_retries = busy_retries
        self.busy_backoff_s = busy_backoff_s
        self._store = store
        self._pool = ConnectionPool(address, timeout=timeout)

    def hello(self) -> wire.ShardInfo:
        """The remote server's self-description (layout sanity checks)."""
        return wire.decode_hello_response(self._pool.request(wire.encode_hello_request()))

    def answer_shares(
        self, file_name: str, masks_a: List[int], masks_b: List[int]
    ) -> List[bytes]:
        """One ANSWER round trip, absorbing BUSY backpressure with retries.

        The payload is encoded once and a ``BUSY`` retry re-sends it as is:
        redrawing would desynchronise the mask-RNG contract and hand the
        server a second, correlated view of the same pages.
        """
        payload = wire.encode_answer_request(file_name, masks_a + masks_b)
        attempts = 0
        while True:
            try:
                answers = wire.decode_answer_response(self._pool.request(payload))
                break
            except wire.ServerBusy:
                attempts += 1
                if attempts > self.busy_retries:
                    raise
                time.sleep(self.busy_backoff_s)
        count, page_size = len(masks_a), self._store.page_size(file_name)
        if [len(answer) for answer in answers] != [page_size] * (2 * count):
            raise PirError(
                f"shard server {self.shard_id} did not answer {2 * count} blocks "
                f"of {page_size} bytes for file {file_name!r}"
            )
        return [
            xor_bytes(answer_a, answer_b)
            for answer_a, answer_b in zip(answers[:count], answers[count:])
        ]

    def close(self) -> None:
        self._pool.close()


class RemotePirSimulator(ShardedPirSimulator):
    """A :class:`~repro.pir.sharded.ShardedPirSimulator` served over TCP.

    ``addresses`` lists one shard server per shard, in shard order (a
    :class:`~repro.serving.server.ShardCluster`'s ``addresses`` fits
    directly).  Validation, plan conformance, traces, the mask draws and the
    simulated cost model all run client-side, exactly as in process; only
    the XOR answering happens on the servers, behind each shard connection's
    :class:`TcpShardTransport`.  With the same ``kernel_seed``, results *and*
    adversary-view logs are bit-identical to in-process XOR serving
    (property-tested).

    ``check_layout`` performs a HELLO round against every server at
    construction and fails loudly when a server's shard layout (shard count,
    strategy, per-file slice sizes or page sizes) disagrees with the local
    view — a mismatched deployment must not silently serve wrong bytes.
    """

    def __init__(
        self,
        database: Database,
        addresses: Sequence[Tuple[str, int]],
        scp: Optional[SecureCoprocessor] = None,
        spec: SystemSpec = DEFAULT_SPEC,
        enforce_limits: bool = True,
        strategy: str = "round-robin",
        store: Optional[ShardedPageStore] = None,
        log_queries: bool = False,
        kernel_seed: int = 0,
        timeout: float = 30.0,
        check_layout: bool = True,
    ) -> None:
        addresses = [(host, int(port)) for host, port in addresses]
        if not addresses:
            raise PirError("remote serving needs at least one shard address")
        super().__init__(
            database,
            scp=scp,
            spec=spec,
            enforce_limits=enforce_limits,
            num_shards=len(addresses),
            strategy=strategy,
            store=store,
            xor_kernel=None,
            log_queries=log_queries,
            kernel_seed=kernel_seed,
        )
        self.addresses = addresses
        self.transports = [
            TcpShardTransport(shard.shard_id, self.store, address, timeout=timeout)
            for shard, address in zip(self.shards, addresses)
        ]
        for shard, transport in zip(self.shards, self.transports):
            shard.transport = transport
        #: Carries all but one of a round's shard round trips (lazy threads).
        self._fanout = ThreadPoolExecutor(
            max_workers=max(1, len(addresses) - 1),
            thread_name_prefix="repro-shard-fanout",
        )
        if check_layout:
            try:
                self.check_layout()
            except BaseException:
                self.close()  # the HELLO'd sockets must not outlive the failure
                raise

    def check_layout(self) -> None:
        """HELLO every server and verify it matches the local shard view."""
        for transport in self.transports:
            shard_id = transport.shard_id
            info = transport.hello()
            if info.num_shards != self.store.num_shards:
                raise PirError(
                    f"shard server {shard_id} serves a {info.num_shards}-shard "
                    f"layout; the client expects {self.store.num_shards}"
                )
            if info.shard_id != shard_id:
                raise PirError(
                    f"address {shard_id} answered as shard {info.shard_id}"
                )
            if info.strategy != self.store.strategy:
                raise PirError(
                    f"shard server {shard_id} shards by {info.strategy!r}; "
                    f"the client expects {self.store.strategy!r}"
                )
            local_files = {
                name: (
                    self.store.shard_num_pages(shard_id, name),
                    self.store.page_size(name),
                )
                for name in self.store.maps
                if self.store.shard_num_pages(shard_id, name) > 0
            }
            remote_files = {
                file_info.name: (file_info.num_pages, file_info.page_size)
                for file_info in info.files
            }
            if local_files != remote_files:
                raise PirError(
                    f"shard server {shard_id} holds a different page "
                    "layout than the local database view"
                )

    def close(self) -> None:
        """Stop the helper threads, close the connections (servers keep running)."""
        if self._fanout is not None:
            self._fanout.shutdown(wait=True)
        for transport in self.transports:
            transport.close()
