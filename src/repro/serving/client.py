"""Client plumbing for the PIR shard service: the engine-facing remote layer.

:class:`RemotePirShard` speaks the :mod:`repro.serving.wire` protocol to one
:class:`~repro.serving.server.ShardServer` over a small pool of persistent
TCP connections, presenting exactly the surface of the in-process
:class:`~repro.pir.sharded.PirShard` connection.  The two-server XOR client
runs *here*: masks are drawn from the same deterministically seeded RNG
stream as in-process XOR serving (``random_subset_masks`` over the shard's
block space), both servers' masks ship in one request, and the answers are
XOR-combined client-side — so the returned pages, the adversary-view logs
and the RNG consumption are bit-identical to local serving, and the wire
carries only masks, never page numbers.

:class:`RemotePirSimulator` is the drop-in
:class:`~repro.pir.sharded.ShardedPirSimulator` whose shard connections are
remote: the query engine builds one per worker context when constructed
with ``serving=...``, and every result, trace and simulated cost matches
in-process serving exactly (property-tested; invariant I2).

``BUSY`` responses (the server's admission control) are retried with a
short backoff — backpressure slows a client down but never changes results.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import PirError
from ..pir.batch import mask_indices, random_subset_masks
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


class RemotePirShard:
    """A :class:`~repro.pir.sharded.PirShard`-shaped connection to a server.

    Page bytes come back from the remote shard's packed kernel; validation
    and the (file, shard, subset) adversary log run client-side against the
    shared :class:`~repro.pir.sharded.ShardedPageStore` view, exactly as the
    in-process XOR-serving shard connection does.
    """

    __slots__ = (
        "shard_id",
        "pages_served",
        "busy_retries",
        "busy_backoff_s",
        "_store",
        "_pool",
        "_rng",
        "_log",
    )

    def __init__(
        self,
        shard_id: int,
        store: ShardedPageStore,
        address: Tuple[str, int],
        rng: random.Random,
        log: Optional[Callable[[Tuple[str, int, frozenset]], None]] = None,
        pool: Optional[ConnectionPool] = None,
        pool_size: int = 2,
        timeout: float = 30.0,
        busy_retries: int = DEFAULT_BUSY_RETRIES,
        busy_backoff_s: float = DEFAULT_BUSY_BACKOFF_S,
    ) -> None:
        self.shard_id = shard_id
        self.pages_served = 0
        self.busy_retries = busy_retries
        self.busy_backoff_s = busy_backoff_s
        self._store = store
        self._pool = pool or ConnectionPool(address, size=pool_size, timeout=timeout)
        self._rng = rng
        self._log = log

    def hello(self) -> wire.ShardInfo:
        """The remote server's self-description (layout sanity checks)."""
        return wire.decode_hello_response(self._pool.request(wire.encode_hello_request()))

    def num_pages(self, file_name: str) -> int:
        return self._store.shard_num_pages(self.shard_id, file_name)

    def read_many(self, file_name: str, local_pages: Sequence[int]) -> List[bytes]:
        if not local_pages:
            return []
        return self.finish_read(*self.begin_read(file_name, local_pages))

    def begin_read(self, file_name: str, local_pages: Sequence[int]) -> Tuple[bytes, int]:
        """The order-sensitive half of a two-server XOR retrieval, no I/O.

        Validates, draws the sub-batch's masks in one ``random_subset_masks``
        call and writes the adversary log; returns :meth:`finish_read`'s
        arguments, so a simulator can begin every shard's read in contract
        order before any round trip is in flight.
        """
        self._store.check_local(self.shard_id, file_name, local_pages)
        num_blocks = self._store.shard_num_pages(self.shard_id, file_name)
        masks_a = random_subset_masks(self._rng, num_blocks, len(local_pages))
        masks_b = [mask ^ (1 << index) for mask, index in zip(masks_a, local_pages)]
        if self._log is not None:
            for mask_a, mask_b in zip(masks_a, masks_b):
                self._log((file_name, self.shard_id, frozenset(mask_indices(mask_a))))
                self._log((file_name, self.shard_id, frozenset(mask_indices(mask_b))))
        return wire.encode_answer_request(file_name, masks_a + masks_b), len(masks_a)

    def finish_read(self, payload: bytes, count: int) -> List[bytes]:
        """The round trip and XOR combine of a begun read (any thread).

        A ``BUSY`` retry re-sends ``payload`` as is: redrawing would
        desynchronise the mask-RNG contract and hand the server a second,
        correlated view of the same pages.
        """
        answers = self._answers(payload)
        if len(answers) != 2 * count:
            raise PirError(
                f"shard server answered {len(answers)} blocks for {2 * count} masks"
            )
        self.pages_served += count
        return [
            xor_bytes(answer_a, answer_b)
            for answer_a, answer_b in zip(answers[:count], answers[count:])
        ]

    def _answers(self, payload: bytes) -> List[bytes]:
        """One ANSWER round trip, absorbing BUSY backpressure with retries."""
        attempts = 0
        while True:
            try:
                return wire.decode_answer_response(self._pool.request(payload))
            except wire.ServerBusy:
                attempts += 1
                if attempts > self.busy_retries:
                    raise
                time.sleep(self.busy_backoff_s)

    def close(self) -> None:
        self._pool.close()


class RemotePirSimulator(ShardedPirSimulator):
    """A :class:`~repro.pir.sharded.ShardedPirSimulator` served over TCP.

    ``addresses`` lists one shard server per shard, in shard order (a
    :class:`~repro.serving.server.ShardCluster`'s ``addresses`` fits
    directly).  Validation, plan conformance, traces and the simulated cost
    model all run client-side against the logical database, exactly as in
    process; only the XOR answering happens on the servers.  With the same
    ``kernel_seed``, results *and* adversary-view logs are bit-identical to
    in-process XOR serving (property-tested).

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
        pool_size: int = 2,
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
        log = self.queries_seen.append if log_queries else None
        #: Remote shard connections drawing the identical per-shard RNG
        #: streams as in-process XOR serving (bit-identical adversary views).
        self.shards = [
            RemotePirShard(
                shard_id,
                self.store,
                address,
                rng=random.Random(kernel_seed * 0x9E3779B1 + shard_id),
                log=log,
                pool_size=pool_size,
                timeout=timeout,
            )
            for shard_id, address in enumerate(addresses)
        ]
        #: Carries all but one of a round's shard round trips (lazy threads).
        self._fanout = ThreadPoolExecutor(
            max_workers=max(1, len(addresses) - 1),
            thread_name_prefix="repro-shard-fanout",
        )
        if check_layout:
            self.check_layout()

    def _read_shards(
        self, file_name: str, sub_batches: Sequence[Tuple[int, List[int]]]
    ) -> List[List[bytes]]:
        """One round trip per shard touched, all in flight together.

        Every sub-batch is begun first, on the calling thread and in order
        (masks, adversary log), so only the ``ConnectionPool.request`` I/O
        overlaps; the last request runs here, the others on the helper pool.
        """
        if not sub_batches:
            return []
        begun = [
            (self.shards[shard], self.shards[shard].begin_read(file_name, local_pages))
            for shard, local_pages in sub_batches
        ]
        *others, (last_shard, last_request) = begun
        futures = [
            self._fanout.submit(shard.finish_read, *request) for shard, request in others
        ]
        try:
            last = last_shard.finish_read(*last_request)
        finally:
            # no request outlives the call, also when one of them fails
            wait(futures)
        return [future.result() for future in futures] + [last]

    def check_layout(self) -> None:
        """HELLO every server and verify it matches the local shard view."""
        for shard in self.shards:
            info = shard.hello()
            if info.num_shards != self.store.num_shards:
                raise PirError(
                    f"shard server {shard.shard_id} serves a {info.num_shards}-shard "
                    f"layout; the client expects {self.store.num_shards}"
                )
            if info.shard_id != shard.shard_id:
                raise PirError(
                    f"address {shard.shard_id} answered as shard {info.shard_id}"
                )
            if info.strategy != self.store.strategy:
                raise PirError(
                    f"shard server {shard.shard_id} shards by {info.strategy!r}; "
                    f"the client expects {self.store.strategy!r}"
                )
            local_files = {
                name: (
                    self.store.shard_num_pages(shard.shard_id, name),
                    self.store.page_size(name),
                )
                for name in self.store.maps
                if self.store.shard_num_pages(shard.shard_id, name) > 0
            }
            remote_files = {
                file_info.name: (file_info.num_pages, file_info.page_size)
                for file_info in info.files
            }
            if local_files != remote_files:
                raise PirError(
                    f"shard server {shard.shard_id} holds a different page "
                    "layout than the local database view"
                )

    def close(self) -> None:
        """Stop the helper threads, close the connections (servers keep running)."""
        self._fanout.shutdown(wait=True)
        for shard in self.shards:
            shard.close()
