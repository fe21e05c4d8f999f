"""Sharded PIR databases: split one block/page store across independent shards.

A single PIR database pays its server-side cost per retrieval in the size of
the *whole* database (for the two-server XOR protocol, each server XORs about
half of its blocks per answered subset).  Sharding splits the database into
``S`` independent sub-databases so each retrieval is served by the one shard
owning the requested block, cutting server work per retrieval to ``1/S`` and
letting the shards answer a batch's sub-streams independently (in a real
deployment: on separate machines).

:class:`ShardedPirSimulator` is a drop-in
:class:`~repro.pir.scp.UsablePirSimulator` whose page reads route through
per-shard :class:`PirShard` connections, each owning its slice of every page
file by a :class:`ShardMap` (round-robin or range sharding by page id).
Traces, plan conformance and the simulated cost model are byte-identical to
the unsharded simulator — sharding the simulator is a *physical*
storage/throughput decision, invisible to the adversary model.
:class:`PirShard` is the only shard connection — the two-server XOR client —
whatever :class:`ShardTransport` (in process here, TCP in
:mod:`repro.serving.client`) carries its shares.

Privacy note (documented, and asserted by the tests): within a shard the
underlying protocol's guarantee is untouched, but the adversary additionally
learns *which shard* a retrieval touched — i.e. ``block_id mod S`` (or its
range bucket).  This is the standard leakage/throughput trade-off of
partitioned PIR; deployments pick ``S`` accordingly.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor, wait
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    cast,
)

from ..costmodel import DEFAULT_SPEC, SystemSpec
from ..exceptions import PirError
from ..storage import Database
from .kernels import (
    ServerKernel,
    answer_shares,
    draw_shares,
    shared_kernel,
)
from .scp import SecureCoprocessor, UsablePirSimulator

if TYPE_CHECKING:
    from ..storage.pagefile import PageFile

#: Supported shard-assignment strategies.
STRATEGIES = ("round-robin", "range")


class ShardMap:
    """Pure index arithmetic: global block id ↔ (shard, local block id).

    ``round-robin`` assigns block ``i`` to shard ``i % S`` (local id
    ``i // S``); ``range`` splits the id space into ``S`` contiguous runs
    whose sizes differ by at most one.  Both keep shard sizes balanced for
    any ``num_blocks``; round-robin additionally balances *hot ranges* (a
    scan-heavy workload spreads across all shards), which is why it is the
    default.
    """

    __slots__ = ("num_blocks", "num_shards", "strategy", "_range_starts")

    def __init__(
        self, num_blocks: int, num_shards: int, strategy: str = "round-robin"
    ) -> None:
        if num_blocks <= 0:
            raise PirError("a sharded database needs at least one block")
        if num_shards < 1:
            raise PirError(f"shard count must be positive, got {num_shards}")
        if strategy not in STRATEGIES:
            raise PirError(
                f"unknown shard strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.num_blocks = num_blocks
        self.num_shards = num_shards
        self.strategy = strategy
        # empty for round-robin (which never consults it)
        self._range_starts: List[int] = []
        if strategy == "range":
            base, extra = divmod(num_blocks, num_shards)
            starts = [0]
            for shard in range(num_shards):
                starts.append(starts[-1] + base + (1 if shard < extra else 0))
            self._range_starts = starts

    def shard_of(self, index: int) -> int:
        """The shard owning global block ``index``."""
        self._check(index)
        if self.strategy == "round-robin":
            return index % self.num_shards
        starts = self._range_starts
        # shards hold contiguous runs; find the run containing ``index``
        low, high = 0, self.num_shards - 1
        while low < high:
            mid = (low + high + 1) // 2
            if starts[mid] <= index:
                low = mid
            else:
                high = mid - 1
        return low

    def local_index(self, index: int) -> int:
        """The block's position within its owning shard."""
        self._check(index)
        if self.strategy == "round-robin":
            return index // self.num_shards
        return index - self._range_starts[self.shard_of(index)]

    def locate(self, index: int) -> Tuple[int, int]:
        """``(shard, local index)`` of a global block id."""
        return self.shard_of(index), self.local_index(index)

    def global_index(self, shard: int, local: int) -> int:
        """Inverse of :meth:`locate`."""
        if shard < 0 or shard >= self.num_shards:
            raise PirError(f"shard {shard} out of range")
        if self.strategy == "round-robin":
            index = local * self.num_shards + shard
        else:
            index = self._range_starts[shard] + local
        self._check(index)
        return index

    def shard_sizes(self) -> List[int]:
        """Number of blocks each shard owns (sizes differ by at most one)."""
        sizes = [0] * self.num_shards
        if self.strategy == "round-robin":
            base, extra = divmod(self.num_blocks, self.num_shards)
            for shard in range(self.num_shards):
                sizes[shard] = base + (1 if shard < extra else 0)
        else:
            starts = self._range_starts
            for shard in range(self.num_shards):
                sizes[shard] = starts[shard + 1] - starts[shard]
        return sizes

    def _check(self, index: int) -> None:
        if index < 0 or index >= self.num_blocks:
            raise PirError(f"block index {index} out of range")


# ---------------------------------------------------------------------- #
# sharding the simulated page store
# ---------------------------------------------------------------------- #
class ShardedPageStore:
    """The partitioned *view* behind a sharded page simulator.

    Assigns every page of every page file to one of ``num_shards`` shards by
    a per-file :class:`ShardMap` — pure index arithmetic over the database's
    own page stores, holding **no page copies**: a shard read translates the
    ``(shard, local page)`` coordinate back to the logical page number and
    reads it from the backing :class:`~repro.storage.stores.PageStore`
    (which may be in memory, mmap or SQLite).  Sharding therefore adds zero
    resident page bytes regardless of shard count.  The view carries no
    per-connection state, so one store is safely shared by every
    :class:`ShardedPirSimulator` built over it — the query engine builds one
    per engine and hands it to all worker contexts.
    """

    __slots__ = ("num_shards", "strategy", "maps", "_files")

    def __init__(
        self, database: Database, num_shards: int, strategy: str = "round-robin"
    ) -> None:
        if num_shards < 1:
            raise PirError(f"shard count must be positive, got {num_shards}")
        if strategy not in STRATEGIES:
            raise PirError(
                f"unknown shard strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.num_shards = num_shards
        self.strategy = strategy
        self.maps: Dict[str, ShardMap] = {}
        self._files: Dict[str, "PageFile"] = {}
        for file_name in database.file_names():
            page_file = database.file(file_name)
            if page_file.num_pages == 0:
                continue
            # small files may have fewer pages than shards; they simply
            # occupy the first few shards
            self.maps[file_name] = ShardMap(
                page_file.num_pages, min(num_shards, page_file.num_pages), strategy
            )
            self._files[file_name] = page_file

    def locate(self, file_name: str, page_number: int) -> Tuple[int, int]:
        """``(shard, local page)`` owning a logical page."""
        try:
            file_map = self.maps[file_name]
        except KeyError:
            raise PirError(f"file {file_name!r} has no sharded pages") from None
        return file_map.locate(page_number)

    def page_size(self, file_name: str) -> int:
        """Padded page size of a sharded file (what a shard serves per read)."""
        page_file = self._files.get(file_name)
        if page_file is None:
            raise PirError(f"file {file_name!r} has no sharded pages")
        return page_file.page_size

    def shard_num_pages(self, shard_id: int, file_name: str) -> int:
        """Pages of ``file_name`` owned by shard ``shard_id``."""
        file_map = self.maps.get(file_name)
        if file_map is None or not 0 <= shard_id < file_map.num_shards:
            return 0
        return file_map.shard_sizes()[shard_id]

    def check_local(
        self, shard_id: int, file_name: str, local_pages: Sequence[int]
    ) -> ShardMap:
        """Validate shard-local coordinates; returns the file's shard map.

        Shared by the direct-read and the XOR-kernel serving paths so both
        raise the identical :class:`PirError` for bad coordinates.
        """
        file_map = self.maps.get(file_name)
        if file_map is None:
            raise PirError(f"file {file_name!r} has no sharded pages")
        shard_size = self.shard_num_pages(shard_id, file_name)
        for local_page in local_pages:
            if local_page < 0 or local_page >= shard_size:
                raise PirError(
                    f"shard {shard_id} does not hold page {local_page} of "
                    f"file {file_name!r}"
                )
        return file_map

    def read_local_batch(
        self, shard_id: int, file_name: str, local_pages: Sequence[int]
    ) -> List[bytes]:
        """Batched shard-local reads (one backing-store round trip)."""
        file_map = self.check_local(shard_id, file_name, local_pages)
        page_numbers = [
            file_map.global_index(shard_id, local_page) for local_page in local_pages
        ]
        return self._files[file_name].read_pages_batch(page_numbers)

    def shard_kernel(
        self, shard_id: int, file_name: str, kernel: Optional[str] = None
    ) -> ServerKernel:
        """The (memoised) packed server kernel over one shard of one file.

        The kernel packs the shard's pages in local order — local page ``l``
        is kernel block ``l`` — reading them zero-copy off the backing store
        when it exposes page views (the mmap backend).  Packs are cached per
        backing store by :func:`~repro.pir.kernels.shared_kernel`, so every
        simulator/worker sharing this view answers off one packed image per
        shard.
        """
        file_map = self.check_local(shard_id, file_name, ())
        shard_size = self.shard_num_pages(shard_id, file_name)
        if shard_size == 0:
            raise PirError(
                f"shard {shard_id} holds no pages of file {file_name!r}"
            )
        page_numbers = [
            file_map.global_index(shard_id, local) for local in range(shard_size)
        ]
        return shared_kernel(
            self._files[file_name],
            page_numbers,
            kernel=kernel,
            cache_key=("shard", shard_id, file_map.num_shards, self.strategy),
        )

class ShardTransport(Protocol):
    """Carries a shard read's two shares to the shard and the XOR of their
    answers back — only masks cross it, never page numbers."""

    def answer_shares(
        self, file_name: str, masks_a: List[int], masks_b: List[int]
    ) -> List[bytes]: ...


class LocalShardTransport(NamedTuple):
    """In process: both shares are answered off the shard's packed kernel
    (one shared pack per shard and file — :meth:`ShardedPageStore.shard_kernel`)."""

    store: ShardedPageStore
    shard_id: int
    kernel: Optional[str]

    def answer_shares(
        self, file_name: str, masks_a: List[int], masks_b: List[int]
    ) -> List[bytes]:
        pack = self.store.shard_kernel(self.shard_id, file_name, self.kernel)
        return answer_shares(pack, masks_a, masks_b)


class PirShard:
    """One independent sub-database connection of a sharded page store.

    References the shared store view (no page copies) and tracks the serving
    statistics of this connection.  Worker contexts of the query engine each
    hold their own connection objects, so per-worker shard load can be
    inspected independently.

    With a ``transport``, reads are two-server XOR retrievals: the shard is
    the client — it validates, draws both shares from its own seeded ``rng``
    and logs them (:meth:`begin_read`) — and the transport answers them
    (:meth:`finish_read`).  Without one, reads are direct store reads; the
    returned bytes are identical, the server-side XOR work is real.  ``log``
    receives ``(file name, shard id, subset)`` per answered subset — the
    sharded deployment's adversary view.
    """

    __slots__ = ("shard_id", "pages_served", "transport", "_store", "_rng", "_log")

    def __init__(
        self,
        shard_id: int,
        store: ShardedPageStore,
        rng: random.Random,
        transport: Optional[ShardTransport] = None,
        log: Optional[Callable[[Tuple[str, int, frozenset]], None]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.pages_served = 0
        self.transport = transport
        self._store = store
        self._rng = rng
        self._log = log

    def num_pages(self, file_name: str) -> int:
        return self._store.shard_num_pages(self.shard_id, file_name)

    def read_many(self, file_name: str, local_pages: Sequence[int]) -> List[bytes]:
        if self.transport is not None:
            return self.finish_read(*self.begin_read(file_name, local_pages))
        pages = self._store.read_local_batch(self.shard_id, file_name, local_pages)
        self.pages_served += len(pages)
        return pages

    def begin_read(
        self, file_name: str, local_pages: Sequence[int]
    ) -> Tuple[str, List[int], List[int]]:
        """The order-sensitive half of a two-server XOR retrieval, no I/O.

        Validates, then draws and logs the sub-batch's shares in one
        :func:`~repro.pir.kernels.draw_shares` call; returns
        :meth:`finish_read`'s arguments, so a simulator can begin every
        shard's read in contract order before any share is handed over.
        """
        self._store.check_local(self.shard_id, file_name, local_pages)
        log: Optional[Callable[[frozenset], None]] = None
        if self._log is not None:
            sink, shard_id = self._log, self.shard_id
            log = lambda subset: sink((file_name, shard_id, subset))
        num_blocks = self._store.shard_num_pages(self.shard_id, file_name)
        return (file_name, *draw_shares(self._rng, num_blocks, local_pages, log))

    def finish_read(
        self, file_name: str, masks_a: List[int], masks_b: List[int]
    ) -> List[bytes]:
        """Hand a begun read's shares to the transport (any thread)."""
        assert self.transport is not None, "only a shard with a transport begins reads"
        pages = self.transport.answer_shares(file_name, masks_a, masks_b)
        self.pages_served += len(pages)
        return pages


class ShardedPirSimulator(UsablePirSimulator):
    """A :class:`UsablePirSimulator` whose page reads route through shards.

    Every page file of the database is split across ``num_shards``
    :class:`PirShard` connections by a per-file :class:`ShardMap`.  The
    partitioned pages live in a :class:`ShardedPageStore`; pass an existing
    ``store`` to share one partitioning across several simulators (the query
    engine does this for its worker contexts — connections and their stats
    stay per-simulator, the page bytes are stored once).  The adversary
    model is unchanged: traces record the *logical* file name and page
    number, the simulated retrieval time is charged against the logical
    file's page count, and all validation runs against the logical database —
    so query results, traces and response times are bit-identical to the
    unsharded simulator for every shard count (property-tested).
    """

    def __init__(
        self,
        database: Database,
        scp: Optional[SecureCoprocessor] = None,
        spec: SystemSpec = DEFAULT_SPEC,
        enforce_limits: bool = True,
        num_shards: int = 2,
        strategy: str = "round-robin",
        store: Optional[ShardedPageStore] = None,
        xor_kernel: Optional[str] = None,
        log_queries: bool = False,
        kernel_seed: int = 0,
    ) -> None:
        super().__init__(
            database,
            scp=scp,
            spec=spec,
            enforce_limits=enforce_limits,
            xor_kernel=xor_kernel,
            log_queries=log_queries,
            kernel_seed=kernel_seed,
        )
        if store is None:
            store = ShardedPageStore(database, num_shards, strategy)
        elif store.num_shards != num_shards or store.strategy != strategy:
            raise PirError(
                "supplied shard store does not match the requested shard layout"
            )
        self.store = store
        self.num_shards = num_shards
        self.strategy = strategy
        #: This simulator's own connections to the shared store's shards.
        #: Each owns an independent, deterministically seeded subset RNG —
        #: the same stream whichever transport carries the shares — so
        #: adversary-view logs are reproducible (and identical across
        #: kernels and deployments) for a given seed.
        log = self.queries_seen.append if log_queries else None
        self.shards = [
            PirShard(
                shard_id,
                store,
                random.Random(kernel_seed * 0x9E3779B1 + shard_id),
                transport=(
                    LocalShardTransport(store, shard_id, self.xor_kernel)
                    if self.xor_kernel is not None
                    else None
                ),
                log=log,
            )
            for shard_id in range(num_shards)
        ]
        #: Overlaps a round's hand-overs; set (and shut down) by a simulator
        #: whose transports wait on I/O.
        self._fanout: Optional[ThreadPoolExecutor] = None

    def shard_of_page(self, file_name: str, page_number: int) -> Tuple[int, int]:
        """``(shard, local page)`` serving a logical page — what a sharded
        deployment's adversary would additionally observe."""
        return self.store.locate(file_name, page_number)

    def _read_pages(self, page_file: "PageFile", page_numbers: List[int]) -> List[bytes]:
        """Each shard serves its sub-batch independently — the part a real
        deployment answers on separate machines."""
        file_name = page_file.name
        by_shard: Dict[int, List[Tuple[int, int]]] = {}
        for position, page_number in enumerate(page_numbers):
            shard, local = self.shard_of_page(file_name, page_number)
            by_shard.setdefault(shard, []).append((position, local))
        answers = self._read_shards(
            file_name,
            [(shard, [local for _, local in sub_batch]) for shard, sub_batch in by_shard.items()],
        )
        results: List[Optional[bytes]] = [None] * len(page_numbers)
        for sub_batch, pages in zip(by_shard.values(), answers):
            for (position, _), page in zip(sub_batch, pages):
                results[position] = page
        return cast(List[bytes], results)

    def _read_shards(
        self, file_name: str, sub_batches: Sequence[Tuple[int, List[int]]]
    ) -> List[List[bytes]]:
        """Each ``(shard, local pages)`` sub-batch's bytes, in the order given.

        The mask-RNG contract's fan-out: every sub-batch is begun first, on
        the calling thread and in order (one share draw per shard, first
        touched first), so only the hand-overs can overlap — all but the last
        on the helper pool when the simulator owns one.
        """
        reads = [(self.shards[shard], local_pages) for shard, local_pages in sub_batches]
        if not reads or reads[0][0].transport is None:  # direct reads: no shares
            return [shard.read_many(file_name, local_pages) for shard, local_pages in reads]
        begun = [
            (shard, shard.begin_read(file_name, local_pages))
            for shard, local_pages in reads
        ]
        if self._fanout is None:
            return [shard.finish_read(*request) for shard, request in begun]
        *others, (last_shard, last_request) = begun
        futures = [
            self._fanout.submit(shard.finish_read, *request) for shard, request in others
        ]
        try:
            last = last_shard.finish_read(*last_request)
        finally:
            # no hand-over outlives the call, also when one of them fails
            wait(futures)
        return [future.result() for future in futures] + [last]
