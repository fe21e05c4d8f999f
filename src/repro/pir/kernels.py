"""Vectorized XOR-PIR server kernels: packed bit-matrix subset answering.

The two-server XOR protocol spends essentially all of its server CPU folding
blocks together: every answered subset mask XORs about half the database.
The historical implementation folds Python big integers one block at a time,
so a batch of ``B`` masks over ``N`` blocks costs ``B * N/2`` interpreter
iterations.  This module replaces that loop with a packed kernel:

* :class:`PackedDatabase` packs the block database into one C-contiguous
  ``(num_blocks, words)`` ``numpy.uint64`` array and pre-computes *group
  tables* — for every group of ``g`` consecutive blocks, the XOR of each of
  the ``2**g`` block combinations.  A batch of masks is answered by one
  strategy at every batch size, a cache-blocked group-major gather
  (:meth:`PackedDatabase._xor_table_rows`): the tables are walked once per
  batch, not once per mask, with no Python loop per mask or per block, and
  a mask over ``N`` blocks touches ``N/g`` table rows instead of ``N/2``
  blocks.  Past the table budget (:attr:`PackedDatabase.MAX_TABLE_BYTES`)
  small batches reduce each mask's selected rows and larger ones run the
  same gather over throwaway per-tile tables.
* :class:`BigIntKernel` is the pre-existing big-int fold, kept verbatim as
  the reference oracle; property tests pin the packed kernel bit-identical
  to it (answers, error behaviour and adversary-view logs).

Kernel selection is a runtime decision (:func:`resolve_kernel`): an explicit
argument wins, then the ``REPRO_PIR_KERNEL`` environment variable, then
``auto`` — numpy importable selects the packed kernel, otherwise the big-int
oracle serves.  Nothing in this package hard-requires numpy.

Databases can be packed straight off the storage layer
(:func:`kernel_from_pages`): pages are read through
:meth:`~repro.storage.stores.MmapPageStore.get_page_view` when the backing
store exposes zero-copy views, so packing an out-of-core shard never
materialises intermediate ``bytes`` pages.  :func:`shared_kernel` memoises
packs per backing store (keyed weakly, so a closed store releases its pack),
which is how one packed image is shared by both replicas of a two-server
protocol, by every worker context of the query engine and by every shard
server thread.  Packs never leave the process that built them: process
workers only decode and search, so nothing outside it would read one.
"""

from __future__ import annotations

import os
import random
import threading
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import PirError
from .batch import mask_indices, random_subset_masks, validate_subset_mask

if TYPE_CHECKING:
    from ..storage.pagefile import PageFile

try:  # numpy is optional: the big-int oracle serves when it is absent
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None  # type: ignore[assignment]

#: Environment variable naming the default kernel (CI legs force it).
ENV_PIR_KERNEL = "REPRO_PIR_KERNEL"

#: Environment variable overriding the group-table budget in bytes.  CI uses
#: a tiny value to force every pack onto the tiled-fallback answer path.
ENV_MAX_TABLE_BYTES = "REPRO_PIR_MAX_TABLE_BYTES"

#: Kernel names accepted by :func:`resolve_kernel`.
KERNEL_NAMES = ("auto", "numpy", "bigint")


def numpy_available() -> bool:
    """Whether the packed numpy kernel can be built in this interpreter."""
    return _np is not None


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """The effective kernel name: ``"numpy"`` or ``"bigint"``.

    Selection rules: an explicit ``kernel`` argument wins, then the
    ``REPRO_PIR_KERNEL`` environment variable, then ``auto`` — which picks
    the packed kernel when numpy is importable and the big-int oracle
    otherwise.  Requesting ``"numpy"`` without numpy raises
    :class:`PirError` (``auto`` never does).
    """
    if kernel is None:
        kernel = os.environ.get(ENV_PIR_KERNEL) or "auto"
    kernel = str(kernel).strip().lower()
    if kernel not in KERNEL_NAMES:
        raise PirError(
            f"unknown PIR kernel {kernel!r}; expected one of {KERNEL_NAMES}"
        )
    if kernel == "auto":
        return "numpy" if _np is not None else "bigint"
    if kernel == "numpy" and _np is None:
        raise PirError("the numpy PIR kernel was requested but numpy is not importable")
    return kernel


#: A page/block fetcher: maps a batch of block numbers to their buffers.
BlockFetcher = Callable[[Sequence[int]], Sequence[Union[bytes, memoryview]]]


def _block_ints(
    buffers: Iterable[Union[bytes, memoryview]], block_size: int, start: int
) -> List[int]:
    """``buffers`` as big-endian ints; a block of the wrong size raises
    :class:`PirError`, as :meth:`PackedDatabase.from_fetcher` does."""
    values = []
    for offset, buffer in enumerate(buffers):
        if len(buffer) != block_size:
            raise PirError(
                f"block {start + offset} has {len(buffer)} bytes, expected {block_size}"
            )
        values.append(int.from_bytes(bytes(buffer), "big"))
    return values


class BigIntKernel:
    """The big-int fold: one Python XOR per selected block (reference oracle)."""

    name = "bigint"

    def __init__(self, blocks: Sequence[bytes]) -> None:
        if not blocks:
            raise PirError("a PIR database needs at least one block")
        self.num_blocks = len(blocks)
        self.block_size = len(blocks[0])
        self._block_ints = _block_ints(blocks, self.block_size, 0)

    @classmethod
    def from_fetcher(
        cls, num_blocks: int, block_size: int, fetch: BlockFetcher
    ) -> "BigIntKernel":
        if num_blocks <= 0:
            raise PirError("a PIR database needs at least one block")
        kernel = cls.__new__(cls)
        kernel.num_blocks = num_blocks
        kernel.block_size = block_size
        kernel._block_ints = [
            value
            for start in range(0, num_blocks, 1024)
            for value in _block_ints(
                fetch(range(start, min(num_blocks, start + 1024))), block_size, start
            )
        ]
        return kernel

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the packed block image."""
        return self.num_blocks * self.block_size

    def answer_indices(self, indices: Iterable[int]) -> bytes:
        accumulator = 0
        block_ints = self._block_ints
        for index in indices:
            accumulator ^= block_ints[index]
        return accumulator.to_bytes(self.block_size, "big")

    def answer_mask(self, mask: int) -> bytes:
        return self.answer_indices(mask_indices(mask, num_blocks=self.num_blocks))

    def answer_many(self, masks: Sequence[int]) -> List[bytes]:
        return [self.answer_mask(mask) for mask in masks]


class PackedDatabase:
    """The packed numpy kernel: group-table GF(2) mask-matrix answering.

    ``rows`` is the read-only ``(num_blocks, words)`` ``uint64`` image of the
    database (each block zero-padded to a whole number of 64-bit words).
    Group tables are built eagerly at pack time — packing is the amortized
    place to pay — with the group width adapting to the table budget.
    """

    name = "numpy"

    #: Group-table budget; beyond it the group width shrinks (8 → 4 → 2) and
    #: finally the kernel answers through the tiled GF(2) product / row
    #: gather.  Overridable per instance (``max_table_bytes=``) or via the
    #: ``REPRO_PIR_MAX_TABLE_BYTES`` environment variable.
    MAX_TABLE_BYTES = 64 * 1024 * 1024
    #: Bytes per gather block: keeps the ``(block, B, words)`` scratch in cache.
    GATHER_SCRATCH_BYTES = 512 * 1024

    def __init__(
        self, rows: Any, block_size: int, max_table_bytes: Optional[int] = None
    ) -> None:
        if _np is None:  # pragma: no cover - guarded by resolve_kernel
            raise PirError("the numpy PIR kernel requires numpy")
        if rows.ndim != 2 or rows.dtype != _np.uint64 or rows.shape[0] < 1:
            raise PirError("packed databases are non-empty 2-D uint64 arrays")
        rows = _np.ascontiguousarray(rows)
        rows.setflags(write=False)
        self._rows = rows
        self.num_blocks = int(rows.shape[0])
        self.words = int(rows.shape[1])
        self.block_size = int(block_size)
        self._mask_bytes = (self.num_blocks + 7) // 8
        self._max_table_bytes = self._resolve_table_budget(max_table_bytes)
        self._build_tables()

    @classmethod
    def _resolve_table_budget(cls, max_table_bytes: Optional[int]) -> int:
        """The effective table budget: argument → environment → class attr."""
        if max_table_bytes is not None:
            return int(max_table_bytes)
        raw = os.environ.get(ENV_MAX_TABLE_BYTES)
        if raw:
            try:
                return int(raw)
            except ValueError:
                raise PirError(
                    f"{ENV_MAX_TABLE_BYTES}={raw!r} is not a byte count"
                ) from None
        return int(cls.MAX_TABLE_BYTES)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_blocks(
        cls, blocks: Sequence[bytes], max_table_bytes: Optional[int] = None
    ) -> "PackedDatabase":
        if not blocks:
            raise PirError("a PIR database needs at least one block")
        return cls.from_fetcher(
            len(blocks),
            len(blocks[0]),
            lambda numbers: [blocks[n] for n in numbers],
            max_table_bytes=max_table_bytes,
        )

    @classmethod
    def from_fetcher(
        cls,
        num_blocks: int,
        block_size: int,
        fetch: BlockFetcher,
        max_table_bytes: Optional[int] = None,
    ) -> "PackedDatabase":
        """Pack ``num_blocks`` equal-sized blocks served by ``fetch``.

        ``fetch`` may return any buffer (``bytes`` or zero-copy
        ``memoryview``); each is copied exactly once, into its packed row.
        """
        if _np is None:
            raise PirError("the numpy PIR kernel requires numpy")
        if num_blocks <= 0:
            raise PirError("a PIR database needs at least one block")
        words = max(1, (block_size + 7) // 8)
        rows = _np.zeros((num_blocks, words), dtype=_np.uint64)
        flat = rows.view(_np.uint8).reshape(num_blocks, words * 8)
        chunk = max(1, (4 * 1024 * 1024) // max(1, block_size))
        for start in range(0, num_blocks, chunk):
            numbers = range(start, min(num_blocks, start + chunk))
            for offset, buffer in enumerate(fetch(numbers)):
                data = _np.frombuffer(buffer, dtype=_np.uint8)
                if data.shape[0] != block_size:
                    raise PirError(
                        f"block {start + offset} has {data.shape[0]} bytes, "
                        f"expected {block_size}"
                    )
                flat[start + offset, :block_size] = data
        return cls(rows, block_size, max_table_bytes=max_table_bytes)

    def _build_tables(self) -> None:
        """Pre-compute per-group XOR combination tables (adaptive width)."""
        for bits in (8, 4, 2):
            groups = -(-self.num_blocks // bits)
            if groups * (1 << bits) * self.words * 8 <= self._max_table_bytes:
                self._set_tables(self._combination_tables(self._rows, bits), bits)
                return
        self._set_tables(None, None)

    @staticmethod
    def _combination_tables(rows: Any, bits: int, out: Any = None) -> Any:
        """The XOR of every combination of each ``bits`` consecutive rows.

        Returns ``(groups, 2**bits, words)``; the last group is padded with
        zero rows, so every digit of every group has an entry.  ``out`` is a
        zeroed, reusable buffer to build into (entry 0 is never written).
        """
        np = _np
        n, words = rows.shape
        groups = -(-n // bits)
        if groups * bits != n:
            padded = np.zeros((groups * bits, words), dtype=np.uint64)
            padded[:n] = rows
            rows = padded
        grouped = rows.reshape(groups, bits, words)
        if out is None:
            out = np.zeros((groups, 1 << bits, words), dtype=np.uint64)
        tables = out[:groups]
        for k in range(bits):
            size = 1 << k
            np.bitwise_xor(
                tables[:, :size], grouped[:, k, None, :], out=tables[:, size : 2 * size]
            )
        return tables

    def _set_tables(self, tables: Any, bits: Optional[int]) -> None:
        """Install (or drop) read-only group tables and each group's first row."""
        self._tables: Any = tables
        self._group_bits: Optional[int] = bits
        self._group_base: Any = None
        if tables is not None:
            tables.setflags(write=False)
            self._group_base = _np.arange(tables.shape[0]) * tables.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed image plus its group tables."""
        tables = 0 if self._tables is None else self._tables.nbytes
        return int(self._rows.nbytes + tables)

    # ------------------------------------------------------------------ #
    # answering
    # ------------------------------------------------------------------ #
    def _mask_matrix(self, masks: Sequence[int]) -> Any:
        """The masks as a ``(B, mask_bytes)`` little-endian uint8 matrix."""
        np = _np
        size = self._mask_bytes
        buffer = b"".join(
            validate_subset_mask(mask, self.num_blocks).to_bytes(size, "little")
            for mask in masks
        )
        return np.frombuffer(buffer, dtype=np.uint8).reshape(len(masks), size)

    def _digits(self, mask_matrix: Any, bits: int) -> Any:
        """Per-(mask, group) table indices from the packed mask bytes."""
        np = _np
        groups = -(-self.num_blocks // bits)
        if bits == 8:
            return mask_matrix[:, :groups]
        per_byte = 8 // bits
        low_mask = (1 << bits) - 1
        parts = [(mask_matrix >> (k * bits)) & low_mask for k in range(per_byte)]
        return np.stack(parts, axis=2).reshape(mask_matrix.shape[0], -1)[:, :groups]

    #: Beyond the table budget: batch size from which the tiled GF(2) product
    #: answers instead of the per-mask row gather (the gather touches ~N/2
    #: rows per mask; the tiled product pays one table build per tile for the
    #: whole batch).  Measured crossover: 6 masks at >= 8k blocks, 12 at 160.
    TILED_MIN_BATCH = 12
    #: Group width of the tiled product's throwaway tables — 16-entry
    #: tables keep the per-tile build cheap while quartering the row reads.
    TILE_GROUP_BITS = 4

    def answer_rows(self, masks: Sequence[int]) -> Any:
        """Answers for a batch of masks as a ``(B, words)`` uint64 array.

        The whole server hot path, with no per-mask Python work.  Packs with
        group tables have one strategy at every batch size: the blocked
        gather of :meth:`_xor_table_rows`.  Beyond the table budget, batches
        below :attr:`TILED_MIN_BATCH` run per-mask row gathers and larger
        ones the tiled GF(2) product (the same gather over per-tile tables).
        """
        np = _np
        batch = len(masks)
        out = np.zeros((batch, self.words), dtype=np.uint64)
        if batch == 0:
            return out
        mask_matrix = self._mask_matrix(masks)
        if self._tables is None:
            if batch < self.TILED_MIN_BATCH:
                return self._answer_rows_gather(mask_matrix, out)
            return self._answer_rows_tiled(mask_matrix, out)
        flat = self._tables.reshape(-1, self.words)
        index = self._digits(mask_matrix, self._group_bits).T + self._group_base[:, None]
        block = self._gather_block(len(index), batch)
        return self._xor_table_rows(lambda start: flat, index, block, out)

    def _gather_block(self, groups: int, rows_per_group: int) -> int:
        """Groups per gather block: ``rows_per_group`` rows each, within budget."""
        block = self.GATHER_SCRATCH_BYTES // (rows_per_group * self.words * 8)
        return max(1, min(groups, block))

    def _xor_table_rows(
        self, tables_at: Callable[[int], Any], index: Any, block: int, out: Any
    ) -> Any:
        """XOR table rows into ``out``, group-major, ``block`` groups at a time.

        ``index[group, mask]`` is a row number into ``tables_at(start)``, the
        ``(rows, words)`` table image of the block of groups at ``start``.
        Each block is gathered into a scratch buffer, folded over its groups
        and XORed into ``out``: a group's table page is read once and serves
        all ``B`` masks while it is hot, and the scratch (allocated once per
        call, like ``partial``) stays within :attr:`GATHER_SCRATCH_BYTES`.

        ``mode="clip"`` never clips; it skips numpy's bounds pass, which
        under ``mode="raise"`` also buffers ``out=`` through a second copy.
        Row numbers are in range by construction: every mask passed
        :func:`validate_subset_mask`, so ``digit < entries``, and the tables
        cover the zero-padded tail rows (``test_blocked_gather.py`` pins it).
        """
        np = _np
        shape = (block,) + out.shape
        if block == index.shape[0]:
            scratch = np.empty(shape, dtype=np.uint64)
        else:
            # malloc aligns to 16 bytes; a scratch that splits 32-byte stores
            # makes the walk ~20% slower in the processes that draw one, so a
            # reused scratch starts on a cache line (~2 us: one-shot walks skip it)
            raw = np.empty(block * out.size + 8, dtype=np.uint64)
            skip = -raw.ctypes.data % 64 // 8
            scratch = raw[skip : skip + block * out.size].reshape(shape)
        partial = np.empty_like(out)
        for start in range(0, index.shape[0], block):
            rows = index[start : start + block]
            gathered = scratch[: rows.shape[0]]
            np.take(tables_at(start), rows, axis=0, out=gathered, mode="clip")
            np.bitwise_xor.reduce(gathered, axis=0, out=partial)
            out ^= partial
        return out

    def _answer_rows_gather(self, mask_matrix: Any, out: Any) -> Any:
        """Gather each mask's selected rows and reduce them (small batches)."""
        np = _np
        selection = np.unpackbits(mask_matrix, axis=1, bitorder="little").astype(bool)
        for position in range(mask_matrix.shape[0]):
            selected = self._rows[selection[position, : self.num_blocks]]
            if selected.shape[0]:
                np.bitwise_xor.reduce(selected, axis=0, out=out[position])
        return out

    def _answer_rows_tiled(self, mask_matrix: Any, out: Any) -> Any:
        """The tiled GF(2) mask-matrix × database product (beyond the budget).

        Each tile of block groups builds its :attr:`TILE_GROUP_BITS`-wide
        combination tables on the fly and answers the whole batch through
        them as one block of the blocked gather.  Tile tables and scratch
        each stay within :attr:`GATHER_SCRATCH_BYTES` however big the pack.
        """
        np = _np
        bits = self.TILE_GROUP_BITS
        entries = 1 << bits
        digits = self._digits(mask_matrix, bits)
        groups = digits.shape[1]
        tile = self._gather_block(groups, max(mask_matrix.shape[0], entries))
        # row numbers are tile-relative: every tile's tables start at row 0
        index = digits.T + (np.arange(groups) % tile * entries)[:, None]
        buffer = np.zeros((tile, entries, self.words), dtype=np.uint64)

        def tile_tables(start: int) -> Any:
            rows = self._rows[start * bits : (start + tile) * bits]
            tables = self._combination_tables(rows, bits, out=buffer)
            return tables.reshape(-1, self.words)

        return self._xor_table_rows(tile_tables, index, tile, out)

    def rows_to_blocks(self, rows: Any) -> List[bytes]:
        """Slice a ``(B, words)`` answer array into per-answer block bytes.

        One flat :class:`memoryview` over the array feeds every slice — no
        per-answer serialise/parse round trip.
        """
        if rows.shape[0] == 0:
            return []  # a zero-row view cannot be cast (and has no slices)
        view = memoryview(_np.ascontiguousarray(rows)).cast("B")
        stride, size = self.words * 8, self.block_size
        return [
            bytes(view[position * stride : position * stride + size])
            for position in range(rows.shape[0])
        ]

    def answer_indices(self, indices: Iterable[int]) -> bytes:
        np = _np
        index_array = np.fromiter(indices, dtype=np.intp)
        out = np.zeros(self.words, dtype=np.uint64)
        if index_array.shape[0]:
            np.bitwise_xor.reduce(self._rows[index_array], axis=0, out=out)
        return bytes(out.tobytes()[: self.block_size])

    def answer_mask(self, mask: int) -> bytes:
        return self.rows_to_blocks(self.answer_rows([mask]))[0]

    def answer_many(self, masks: Sequence[int]) -> List[bytes]:
        return self.rows_to_blocks(self.answer_rows(masks))


#: Either kernel implementation (they share the answering surface).
ServerKernel = Union[BigIntKernel, PackedDatabase]


def make_kernel(blocks: Sequence[bytes], kernel: Optional[str] = None) -> ServerKernel:
    """Build the selected kernel over an in-memory block database."""
    if resolve_kernel(kernel) == "numpy":
        return PackedDatabase.from_blocks(blocks)
    return BigIntKernel(blocks)


# ---------------------------------------------------------------------- #
# packing off the storage layer
# ---------------------------------------------------------------------- #
def _page_fetcher(
    page_file: "PageFile", page_numbers: Optional[Sequence[int]]
) -> BlockFetcher:
    """A fetcher over a :class:`~repro.storage.pagefile.PageFile`.

    Prefers the backing store's zero-copy ``get_page_view`` (the mmap
    backend) when every requested page is sealed on the store; otherwise
    pages come back through the batched page-file read, which also covers a
    live tail page.
    """
    store = page_file.store

    def translate(numbers: Sequence[int]) -> Sequence[int]:
        if page_numbers is None:
            return numbers
        return [page_numbers[n] for n in numbers]

    get_view = getattr(store, "get_page_view", None)
    if get_view is not None and page_file._tail is None:
        store.flush()

        def fetch_views(numbers: Sequence[int]) -> Sequence[Union[bytes, memoryview]]:
            return [get_view(number) for number in translate(numbers)]

        return fetch_views

    def fetch_batch(numbers: Sequence[int]) -> Sequence[Union[bytes, memoryview]]:
        return page_file.read_pages_batch(translate(numbers))

    return fetch_batch


def kernel_from_pages(
    page_file: "PageFile",
    page_numbers: Optional[Sequence[int]] = None,
    kernel: Optional[str] = None,
) -> ServerKernel:
    """Pack a page file (or a subset of its pages, e.g. one shard) into a kernel."""
    count = page_file.num_pages if page_numbers is None else len(page_numbers)
    if count <= 0:
        raise PirError(f"page file {page_file.name!r} has no pages to pack")
    fetch = _page_fetcher(page_file, page_numbers)
    cls = PackedDatabase if resolve_kernel(kernel) == "numpy" else BigIntKernel
    return cls.from_fetcher(count, page_file.page_size, fetch)


#: store -> {(kernel, file name, num pages, extra key) -> kernel object}.
#: Weakly keyed so closing/dropping a store releases its packed image.
_SHARED_KERNELS: "weakref.WeakKeyDictionary[object, Dict[Tuple[object, ...], ServerKernel]]" = (
    weakref.WeakKeyDictionary()
)
_SHARED_KERNELS_LOCK = threading.Lock()


def shared_kernel(
    page_file: "PageFile",
    page_numbers: Optional[Sequence[int]] = None,
    kernel: Optional[str] = None,
    cache_key: Tuple[object, ...] = (),
) -> ServerKernel:
    """The memoised packed kernel for a page file (or page subset).

    One packed image per ``(backing store, kernel, file, page count, cache
    key)`` is shared by every consumer in this process — the two replicas
    of a protocol, all worker contexts of an engine and every shard server
    thread.  The page count participates in the key, so a file that grew
    since the last pack is repacked; serving databases are sealed, which is
    what makes the memo safe.
    """
    resolved = resolve_kernel(kernel)
    count = page_file.num_pages if page_numbers is None else len(page_numbers)
    key = (resolved, page_file.name, count) + tuple(cache_key)
    store = page_file.store
    with _SHARED_KERNELS_LOCK:
        per_store = _SHARED_KERNELS.setdefault(store, {})
        cached = per_store.get(key)
    if cached is not None:
        return cached
    built = kernel_from_pages(page_file, page_numbers, kernel=resolved)
    with _SHARED_KERNELS_LOCK:
        return per_store.setdefault(key, built)


# ---------------------------------------------------------------------- #
# the two-server XOR client: draw both shares, answer and combine them
# ---------------------------------------------------------------------- #
def draw_shares(
    rng: random.Random,
    num_blocks: int,
    indices: Sequence[int],
    log: Optional[Callable[[FrozenSet[int]], None]] = None,
) -> Tuple[List[int], List[int]]:
    """Both servers' subset masks for reading ``indices`` of ``num_blocks``.

    The mask-RNG contract's single implementation (INVARIANTS.md, I2): one
    ``random_subset_masks`` draw for the whole batch, share B is share A with
    the wanted block's bit flipped, and ``log`` receives each server-visible
    subset — the adversary view — A before B, in request order.  No I/O.
    An index outside ``[0, num_blocks)`` raises :class:`PirError` before
    anything is drawn or logged.
    """
    if not indices:
        return [], []
    for index in indices:
        if not 0 <= index < num_blocks:
            raise PirError(f"block index {index} is out of range for {num_blocks} blocks")
    masks_a = random_subset_masks(rng, num_blocks, len(indices))
    masks_b = [mask ^ (1 << index) for mask, index in zip(masks_a, indices)]
    if log is not None:
        for mask_a, mask_b in zip(masks_a, masks_b):
            log(frozenset(mask_indices(mask_a)))
            log(frozenset(mask_indices(mask_b)))
    return masks_a, masks_b


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise PirError("cannot XOR byte strings of different lengths")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def answer_shares(
    kernel: ServerKernel, masks_a: List[int], masks_b: List[int]
) -> List[bytes]:
    """The blocks :func:`draw_shares` asked for, answered off ``kernel``.

    Both logical servers answer off the one shared packed image (the
    non-collusion split is a deployment property, not a data-layout one).
    """
    if not masks_a:
        return []
    if isinstance(kernel, PackedDatabase):
        # both shares in one kernel call: half the calls, twice the batch
        rows = kernel.answer_rows(masks_a + masks_b)
        return kernel.rows_to_blocks(rows[: len(masks_a)] ^ rows[len(masks_a) :])
    return [
        xor_bytes(kernel.answer_mask(mask_a), kernel.answer_mask(mask_b))
        for mask_a, mask_b in zip(masks_a, masks_b)
    ]
