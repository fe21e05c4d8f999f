"""The asyncio PIR shard service: one TCP server per database shard.

A :class:`ShardServer` owns one shard of a :class:`~repro.pir.sharded.
ShardedPageStore` and answers subset-mask batches through the shard's
packed :class:`~repro.pir.kernels.ServerKernel` (the vectorized numpy pack
where numpy exists, the big-int fold otherwise — I3 holds on the wire just
as it does in process).  The protocol is the length-prefixed framing of
:mod:`repro.serving.wire`; the server never sees logical page numbers,
only masks.

Three serving behaviours matter beyond "answer the masks":

* **request coalescing** — work-conserving, no timer: an admitted request
  starts a flush on the next loop tick whenever none is in flight, so an
  idle server adds no wait; the masks of every request that arrives
  *while* a kernel call runs leave together as the next flush (one
  ``answer_many`` call per file), so batch size follows load.  The call
  runs on the loop thread itself: requests arriving meanwhile wait in the
  socket buffers and are all read in one tick afterwards — which is the
  batching — and a ``BUSY`` or ``HELLO`` reply is delayed by at most that
  one kernel call.  There is no answer-thread pool: the largest flush any
  benchmark produces is 78 masks, and splitting one across threads
  measured 0.9x on the 2-vCPU reference host;
* **admission control** — the in-flight mask queue is bounded; a request
  that would overflow it is answered ``BUSY`` immediately (explicit
  backpressure instead of unbounded buffering);
* **graceful drain** — ``stop()`` stops accepting connections and
  admitting requests, lets the flush in flight and every pending batch
  finish (each exactly once), waits until each accepted request has been
  answered, then closes the remaining connections.

The server runs its event loop on a background thread, so synchronous
clients (the engine, the tests, the CLI) can boot and tear it down
in-process; a real deployment would run one process per shard.
:class:`ShardCluster` boots one server per shard over a shared store view.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import PirError
from ..pir import resolve_kernel, shared_pack_registry
from ..pir.batch import mask_indices
from ..pir.sharded import ShardedPageStore
from ..storage import Database
from . import wire

#: Bound on masks admitted but not yet answered (admission control).
DEFAULT_MAX_PENDING_MASKS = 8192


class ShardServer:
    """Serves one shard's mask batches over TCP with coalescing and drain."""

    def __init__(
        self,
        store: ShardedPageStore,
        shard_id: int,
        kernel: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_masks: int = DEFAULT_MAX_PENDING_MASKS,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
        log_queries: bool = False,
    ) -> None:
        if shard_id < 0 or shard_id >= store.num_shards:
            raise PirError(f"shard {shard_id} out of range for the supplied store")
        self._store = store
        self.shard_id = shard_id
        self.kernel = resolve_kernel(kernel)
        self._host = host
        self._port = port
        self.max_pending_masks = max_pending_masks
        self._max_frame_bytes = max_frame_bytes
        #: Server-side adversary view, opt-in exactly like the simulators:
        #: ``(file name, shard id, subset)`` per answered mask.
        self.log_queries = log_queries
        self.queries_seen: List[Tuple[str, int, frozenset]] = []
        #: Serving statistics (written only on the loop thread).
        self.masks_answered = 0
        self.flushes = 0
        self.busy_rejections = 0
        self.requests_served = 0
        self.largest_flush = 0
        self.address: Optional[Tuple[str, int]] = None
        # loop-thread state
        self._pending: Dict[str, List[Tuple[Sequence[int], asyncio.Future]]] = {}
        self._pending_masks = 0
        #: The one task flushing ``_pending``, file by file, until it is empty.
        self._pump: Optional["asyncio.Task[None]"] = None
        self._outstanding = 0
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None
        self._handler_tasks: set = set()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Boot the server on a background thread; returns ``(host, port)``."""
        if self._thread is not None:
            if self.address is None:
                raise PirError("shard server failed to boot")
            return self.address
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"repro-shard-server-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise PirError("shard server did not come up within 30s")
        if self._boot_error is not None:
            raise PirError(f"shard server failed to boot: {self._boot_error}")
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully: answer everything admitted, then shut down."""
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        thread.join(timeout=timeout)

    def __enter__(self) -> "ShardServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stats(self) -> Dict[str, int]:
        return {
            "requests_served": self.requests_served,
            "masks_answered": self.masks_answered,
            "flushes": self.flushes,
            "largest_flush": self.largest_flush,
            "busy_rejections": self.busy_rejections,
            # one kernel call per flush; the frozen e2e harness reads the
            # key until ROADMAP item 2 re-bases it
            "kernel_subcalls": self.flushes,
        }

    def info(self) -> wire.ShardInfo:
        files = tuple(
            wire.FileInfo(
                name=name,
                num_pages=self._store.shard_num_pages(self.shard_id, name),
                page_size=self._store.page_size(name),
            )
            for name in sorted(self._store.maps)
            if self._store.shard_num_pages(self.shard_id, name) > 0
        )
        return wire.ShardInfo(
            shard_id=self.shard_id,
            num_shards=self._store.num_shards,
            strategy=self._store.strategy,
            kernel=self.kernel,
            files=files,
        )

    # ------------------------------------------------------------------ #
    # event loop internals
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # boot failures surface in start()
            self._boot_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        server = await asyncio.start_server(self._handle, self._host, self._port)
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._ready.set()
        await self._stop_event.wait()
        # drain: no new connections or admissions; the pump (sole owner of
        # the pending batches) answers what was admitted
        self._draining = True
        server.close()
        if self._pump is not None:
            await self._pump
        if self._outstanding:
            try:
                await asyncio.wait_for(self._idle_event.wait(), timeout=10)
            except asyncio.TimeoutError:
                pass
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks, return_exceptions=True)
        # last: from Python 3.12 this also waits for every connection to close
        await server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        responses: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._write_responses(responses, writer))
        try:
            while True:
                try:
                    header = await reader.readexactly(wire.HEADER_SIZE)
                    length = wire.decode_frame_length(header, self._max_frame_bytes)
                    payload = await reader.readexactly(length)
                except wire.WireError:
                    responses.put_nowait(
                        self._immediate(wire.encode_error("frame too large"))
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                responses.put_nowait(self._dispatch(payload))
        except asyncio.CancelledError:
            pass
        finally:
            responses.put_nowait(None)
            try:
                await asyncio.shield(writer_task)
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _write_responses(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Writes each request's response in request order as it resolves."""
        while True:
            future = await responses.get()
            if future is None:
                return
            try:
                payload = await future
                writer.write(wire.encode_frame(payload, self._max_frame_bytes))
                await writer.drain()
            except (ConnectionError, OSError):
                # client went away; keep consuming so admitted work still
                # resolves (and the drain accounting reaches zero)
                pass
            finally:
                self._request_done()

    def _immediate(self, payload: bytes) -> "asyncio.Future[bytes]":
        assert self._loop is not None
        future: "asyncio.Future[bytes]" = self._loop.create_future()
        future.set_result(payload)
        self._request_started()
        return future

    def _request_started(self) -> None:
        self._outstanding += 1
        assert self._idle_event is not None
        self._idle_event.clear()

    def _request_done(self) -> None:
        self._outstanding -= 1
        self.requests_served += 1
        if self._outstanding == 0:
            assert self._idle_event is not None
            self._idle_event.set()

    # ------------------------------------------------------------------ #
    # request dispatch and the coalescing queue
    # ------------------------------------------------------------------ #
    def _dispatch(self, payload: bytes) -> "asyncio.Future[bytes]":
        try:
            request = wire.decode_request(payload)
        except wire.WireError as exc:
            return self._immediate(wire.encode_error(str(exc)))
        if isinstance(request, wire.HelloRequest):
            return self._immediate(wire.encode_hello_ok(self.info()))
        return self._enqueue_answer(request)

    def _enqueue_answer(self, request: wire.AnswerRequest) -> "asyncio.Future[bytes]":
        file_name, masks = request.file_name, request.masks
        num_blocks = self._store.shard_num_pages(self.shard_id, file_name)
        if num_blocks == 0:
            return self._immediate(
                wire.encode_error(f"this shard holds no pages of file {file_name!r}")
            )
        for mask in masks:
            if mask >> num_blocks:
                return self._immediate(
                    wire.encode_error(
                        f"mask addresses blocks beyond the {num_blocks}-block shard"
                    )
                )
        if self._draining:
            return self._immediate(wire.encode_error("shard server is draining"))
        if self._pending_masks + len(masks) > self.max_pending_masks:
            self.busy_rejections += 1
            return self._immediate(
                wire.encode_busy(
                    f"{self._pending_masks} masks already in flight; retry"
                )
            )
        assert self._loop is not None
        future: "asyncio.Future[bytes]" = self._loop.create_future()
        self._request_started()
        self._pending.setdefault(file_name, []).append((masks, future))
        self._pending_masks += len(masks)
        if self._pump is None:
            self._pump = self._loop.create_task(self._pump_pending())
        return future

    async def _pump_pending(self) -> None:
        """Flush until nothing is pending; what queues meanwhile is the next batch."""
        try:
            while self._pending:
                self._flush(next(iter(self._pending)))
        finally:
            self._pump = None

    def _flush(self, file_name: str) -> None:
        """Answer every pending mask of one file through one kernel call."""
        batch = self._pending.pop(file_name)
        flat = [mask for masks, _ in batch for mask in masks]
        self._pending_masks -= len(flat)
        try:
            kernel = self._store.shard_kernel(self.shard_id, file_name, self.kernel)
            answers = kernel.answer_many(flat)
            payloads = []
            offset = 0
            for masks, _ in batch:
                payloads.append(
                    wire.encode_answer_ok(answers[offset : offset + len(masks)])
                )
                offset += len(masks)
        except Exception as exc:
            # the boundary that must keep running: whatever the kernel call
            # raised, this batch's clients get a reply and the pump goes on
            if not isinstance(exc, PirError):
                assert self._loop is not None
                self._loop.call_exception_handler(
                    {"message": "shard kernel call failed", "exception": exc}
                )
            failure = wire.encode_error(f"{type(exc).__name__}: {exc}")
            payloads = [failure] * len(batch)
        else:
            if self.log_queries:
                for mask in flat:
                    self.queries_seen.append(
                        (file_name, self.shard_id, frozenset(mask_indices(mask)))
                    )
            self.flushes += 1
            self.masks_answered += len(flat)
            self.largest_flush = max(self.largest_flush, len(flat))
        for (_, future), payload in zip(batch, payloads):
            if not future.done():
                future.set_result(payload)


class ShardCluster:
    """Boots one :class:`ShardServer` per shard over a shared store view.

    The context-manager form is the intended use::

        with ShardCluster(scheme.database, num_shards=4) as cluster:
            engine = QueryEngine(scheme, serving=cluster)
            ...

    All servers answer off one :class:`~repro.pir.sharded.ShardedPageStore`
    (zero page copies; the packed kernels are memoised per backing store),
    which is exactly the layout an engine with ``shards=len(addresses)``
    expects on the client side.
    """

    def __init__(
        self,
        database: Database,
        num_shards: int,
        strategy: str = "round-robin",
        kernel: Optional[str] = None,
        host: str = "127.0.0.1",
        log_queries: bool = False,
        max_pending_masks: int = DEFAULT_MAX_PENDING_MASKS,
        share_packs: bool = False,
    ) -> None:
        self.store = ShardedPageStore(database, num_shards, strategy)
        self.num_shards = num_shards
        self.strategy = strategy
        self._kernel = kernel
        #: Whether :meth:`start` publishes every shard pack to the
        #: shared-pack registry (``stop`` withdraws and unlinks them).  With
        #: it on, one machine-wide shared image backs the cluster — other
        #: processes (shard servers, process workers) attach instead of
        #: repacking, and the in-process servers answer off the same bytes.
        self.share_packs = share_packs
        self._pack_keys: List[Tuple[object, ...]] = []
        self.servers = [
            ShardServer(
                self.store,
                shard_id,
                kernel=kernel,
                host=host,
                max_pending_masks=max_pending_masks,
                log_queries=log_queries,
            )
            for shard_id in range(num_shards)
        ]
        self._started = False

    def start(self) -> "ShardCluster":
        if not self._started:
            if self.share_packs and not self._pack_keys:
                handles = self.store.publish_shard_packs(kernel=self._kernel)
                self._pack_keys = list(handles)
            for server in self.servers:
                server.start()
            self._started = True
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
        if self._pack_keys:
            keys, self._pack_keys = self._pack_keys, []
            shared_pack_registry().unpublish(keys)
        self._started = False

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        self.start()
        return [server.address for server in self.servers]  # type: ignore[misc]

    def stats(self) -> List[Dict[str, int]]:
        return [server.stats() for server in self.servers]

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
