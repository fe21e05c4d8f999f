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
protocol and by every worker context of the query engine.

Packs also cross process boundaries without copies:
:meth:`PackedDatabase.to_shared` re-homes the bit-matrix and group tables
onto ``multiprocessing.shared_memory`` segments described by a picklable
:class:`SharedPackHandle`, and :meth:`PackedDatabase.attach` maps them back
read-only in another process.  The process-wide :class:`SharedPackRegistry`
(:func:`shared_pack_registry`) owns publish/attach/unlink lifecycles so one
machine holds exactly one resident pack per shard no matter how many worker
processes or shard servers serve it.  Shared packs are read-only by
contract: every consumer answers off the same immutable bytes (invariant
I2 — see ``INVARIANTS.md``).
"""

from __future__ import annotations

import atexit
import os
import random
import threading
import weakref
import zlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from multiprocessing import shared_memory as _shared_memory

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


class BigIntKernel:
    """The big-int fold: one Python XOR per selected block (reference oracle)."""

    name = "bigint"

    def __init__(self, blocks: Sequence[bytes]) -> None:
        if not blocks:
            raise PirError("a PIR database needs at least one block")
        self.num_blocks = len(blocks)
        self.block_size = len(blocks[0])
        self._block_ints = [
            int.from_bytes(bytes(block), "big") for block in blocks
        ]

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
            int.from_bytes(bytes(buffer), "big")
            for start in range(0, num_blocks, 1024)
            for buffer in fetch(range(start, min(num_blocks, start + 1024)))
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


@dataclass(frozen=True)
class SharedPackHandle:
    """A picklable description of a pack living in shared memory.

    Carries everything :meth:`PackedDatabase.attach` needs to map the pack
    back read-only in another process: the ``multiprocessing.shared_memory``
    segment names, the array geometry, and a CRC32 of the bit-matrix bytes
    so attaching to a stale or foreign segment fails loudly instead of
    serving wrong answers.
    """

    rows_name: str
    tables_name: Optional[str]
    num_blocks: int
    words: int
    block_size: int
    group_bits: Optional[int]
    max_table_bytes: int
    rows_crc: int


def _untrack_shared_memory(segment: Any) -> None:
    """Detach a segment from the resource tracker (attacher side only).

    On CPython < 3.13 merely *attaching* to a named segment registers it
    with the process's resource tracker, which unlinks the segment when the
    attaching process exits — destroying it under the owner.  Only the
    owning process may unlink; attachers must deregister.  Callers skip the
    call when this process (or the forking parent whose tracker it shares)
    owns the segment: that one registration is the crash backstop that
    reclaims ``/dev/shm`` if the owner dies without running ``atexit``.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by platform
        pass


def _attach_segment(name: str, nbytes: int) -> Any:
    """Map a segment of at least ``nbytes``, or raise ``PirError`` naming it."""
    try:
        segment = _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise PirError(
            f"shared pack segment {name!r} does not exist "
            "(owner gone or already unlinked)"
        ) from None
    if not _PACK_REGISTRY.owns_segment(name):
        _untrack_shared_memory(segment)
    if segment.size < nbytes:
        segment.close()
        raise PirError(
            f"shared pack segment {name!r} does not match its handle "
            f"(size mismatch: {segment.size} bytes mapped, {nbytes} expected)"
        )
    return segment


def _share(array: Any) -> Tuple[Any, Any]:
    """Copy ``array`` into a new segment this process owns: ``(segment, view)``."""
    segment = _shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    shared = _np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    shared[:] = array
    shared.setflags(write=False)
    _PACK_REGISTRY.note_owned(segment.name)
    return segment, shared


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
        budget = self._resolve_table_budget(max_table_bytes)
        self._set_rows(_np.ascontiguousarray(rows), block_size, budget)
        self._build_tables()
        _PACK_REGISTRY.note_build()

    def _set_rows(self, rows: Any, block_size: int, max_table_bytes: int) -> None:
        """Install the read-only bit-matrix and the fields of a private pack."""
        rows.setflags(write=False)
        self._rows = rows
        self.num_blocks = int(rows.shape[0])
        self.words = int(rows.shape[1])
        self.block_size = int(block_size)
        self._mask_bytes = (self.num_blocks + 7) // 8
        self._max_table_bytes = max_table_bytes
        self._shm_rows: Any = None
        self._shm_tables: Any = None
        self._owns_segments = False
        #: The handle this pack lives behind (``None`` for private packs).
        self.shared_handle: Optional["SharedPackHandle"] = None

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

    # ------------------------------------------------------------------ #
    # shared memory
    # ------------------------------------------------------------------ #
    def to_shared(self) -> SharedPackHandle:
        """Re-home the pack onto ``multiprocessing.shared_memory`` segments.

        Idempotent: a pack that is already shared (owned *or* attached)
        returns its existing handle.  The bit-matrix and group tables are
        copied once into freshly created segments and this object's arrays
        become read-only views over them, so the calling process keeps
        answering off the same bytes every attacher maps.  The caller owns
        the segments: :meth:`close_shared` (or the registry that published
        the pack) must eventually unlink them.
        """
        if self.shared_handle is not None:
            return self.shared_handle
        self._shm_rows, self._rows = _share(self._rows)
        tables_name: Optional[str] = None
        if self._tables is not None:
            self._shm_tables, tables = _share(self._tables)
            self._set_tables(tables, self._group_bits)
            tables_name = self._shm_tables.name
        self._owns_segments = True
        self.shared_handle = SharedPackHandle(
            rows_name=self._shm_rows.name,
            tables_name=tables_name,
            num_blocks=self.num_blocks,
            words=self.words,
            block_size=self.block_size,
            group_bits=self._group_bits,
            max_table_bytes=self._max_table_bytes,
            rows_crc=zlib.crc32(memoryview(self._shm_rows.buf)[: self._rows.nbytes]),
        )
        return self.shared_handle

    @classmethod
    def attach(cls, handle: SharedPackHandle) -> "PackedDatabase":
        """Map a shared pack read-only in this process — no rebuild, no copy.

        Validates the segment geometry and the bit-matrix CRC before serving
        off it, so a stale handle (owner already unlinked and the name was
        recycled) raises :class:`PirError` instead of answering garbage.
        Attached packs never own their segments: the resource tracker is
        told to forget them (attacher exit must not destroy the owner's
        segments) and :meth:`close_shared` only unmaps.
        """
        if _np is None:
            raise PirError("attaching a shared pack requires numpy")
        np = _np
        nbytes = handle.num_blocks * handle.words * 8
        shm_rows = _attach_segment(handle.rows_name, nbytes)
        shm_tables: Any = None
        tables: Any = None
        try:
            if zlib.crc32(memoryview(shm_rows.buf)[:nbytes]) != handle.rows_crc:
                raise PirError(
                    f"shared pack segment {handle.rows_name!r} does not match "
                    "its handle (checksum mismatch)"
                )
            if handle.tables_name is not None and handle.group_bits is not None:
                bits = handle.group_bits
                shape = (-(-handle.num_blocks // bits), 1 << bits, handle.words)
                shm_tables = _attach_segment(
                    handle.tables_name, shape[0] * shape[1] * shape[2] * 8
                )
                tables = np.ndarray(shape, dtype=np.uint64, buffer=shm_tables.buf)
        except PirError:
            shm_rows.close()  # no array view of it exists yet
            raise
        pack = cls.__new__(cls)
        rows = np.ndarray(
            (handle.num_blocks, handle.words), dtype=np.uint64, buffer=shm_rows.buf
        )
        pack._set_rows(rows, handle.block_size, handle.max_table_bytes)
        pack._shm_rows, pack._shm_tables = shm_rows, shm_tables
        pack.shared_handle = handle
        pack._set_tables(tables, handle.group_bits)
        return pack

    def close_shared(self, unlink: Optional[bool] = None) -> None:
        """Release the pack's shared-memory segments.

        ``unlink`` defaults to this pack's ownership: owners destroy the
        segments (``/dev/shm`` entries disappear), attachers only unmap.
        The pack object itself stays usable: its arrays are copied back
        into private memory first, because the :func:`shared_kernel` memo
        may still hand this object to later simulators (an engine's
        ``close()`` unpublishes packs the backing store keeps memoised —
        answering off the dead mapping would be use-after-free).  An
        unlinking owner copies everything back; a mere attacher keeps only
        the bit-matrix and drops its table mapping (the tables are ~30x
        the rows, and a worker's throwaway attached pack must stay a
        cheap O(rows) unmap — answers stay bit-identical through the
        table-free fallback paths if the object is ever used again).
        Unmapping is best-effort — live numpy views keep the mapping alive
        until they are collected (``BufferError`` is swallowed) — but an
        owner's unlink always happens, which is the part that leaks.
        """
        if unlink is None:
            unlink = self._owns_segments
        self.shared_handle = None
        self._owns_segments = False
        if self._shm_rows is not None or self._shm_tables is not None:
            rows = _np.array(self._rows)
            rows.setflags(write=False)
            self._rows = rows
            if self._tables is not None and unlink:
                self._set_tables(_np.array(self._tables), self._group_bits)
            else:
                self._set_tables(None, None)
        for attribute in ("_shm_rows", "_shm_tables"):
            segment = getattr(self, attribute)
            if segment is None:
                continue
            setattr(self, attribute, None)
            if unlink:
                _PACK_REGISTRY.forget_owned(segment.name)
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            try:
                segment.close()
            except BufferError:
                pass  # arrays still reference the mapping; it dies with them


#: Either kernel implementation (they share the answering surface).
ServerKernel = Union[BigIntKernel, PackedDatabase]


def is_kernel(obj: object) -> bool:
    """Whether ``obj`` is a prebuilt server kernel (vs. a block sequence)."""
    return isinstance(obj, (BigIntKernel, PackedDatabase))


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


def shared_kernel_key(
    page_file: "PageFile",
    page_numbers: Optional[Sequence[int]] = None,
    kernel: Optional[str] = None,
    cache_key: Tuple[object, ...] = (),
) -> Tuple[object, ...]:
    """The memo key :func:`shared_kernel` files a pack under.

    Publishers (:meth:`SharedPackRegistry.publish`) use the same key so a
    worker's :func:`shared_kernel` call resolves to the adopted shared pack
    instead of rebuilding.
    """
    resolved = resolve_kernel(kernel)
    count = page_file.num_pages if page_numbers is None else len(page_numbers)
    return (resolved, page_file.name, count) + tuple(cache_key)


def shared_kernel(
    page_file: "PageFile",
    page_numbers: Optional[Sequence[int]] = None,
    kernel: Optional[str] = None,
    cache_key: Tuple[object, ...] = (),
) -> ServerKernel:
    """The memoised packed kernel for a page file (or page subset).

    One packed image per ``(backing store, kernel, file, page count, cache
    key)`` is shared by every consumer — the two replicas of a protocol and
    all worker contexts of an engine.  The page count participates in the
    key, so a file that grew since the last pack is repacked; serving
    databases are sealed, which is what makes the memo safe.

    When this process has *adopted* a shared pack under the same key (a
    process worker whose initializer received the owner's handles), the
    attached zero-copy pack is served instead of rebuilding — that is the
    one-pack-per-machine path.  Only explicitly adopted entries are
    consulted: owner processes keep building privately, so unrelated
    databases that happen to share a file name and page count can never
    collide through the registry.
    """
    resolved = resolve_kernel(kernel)
    key = shared_kernel_key(page_file, page_numbers, kernel=resolved, cache_key=cache_key)
    store = page_file.store
    with _SHARED_KERNELS_LOCK:
        per_store = _SHARED_KERNELS.setdefault(store, {})
        cached = per_store.get(key)
    if cached is not None:
        return cached
    if resolved == "numpy":
        adopted = _PACK_REGISTRY.adopted(key)
        if adopted is not None:
            with _SHARED_KERNELS_LOCK:
                return per_store.setdefault(key, adopted)
    built = kernel_from_pages(page_file, page_numbers, kernel=resolved)
    with _SHARED_KERNELS_LOCK:
        return per_store.setdefault(key, built)


# ---------------------------------------------------------------------- #
# the process-wide shared-pack registry
# ---------------------------------------------------------------------- #
class SharedPackRegistry:
    """Publish/attach/unlink lifecycle for shared packs, one per process.

    Owners (a :class:`~repro.engine.query_engine.QueryEngine` warming a
    process pool, a ``ShardCluster`` booting servers) ``publish`` packs
    under their :func:`shared_kernel_key`; the picklable handles travel to
    worker initializers, which ``adopt`` them so the workers'
    :func:`shared_kernel` calls attach instead of rebuilding.  Attaches are
    memoised per segment, publishes record the owning pid — a forked child
    inherits this module's state, and the pid guard keeps the child's exit
    sweep from unlinking segments its parent still serves from.  All
    methods are thread-safe; :meth:`close` runs from ``atexit`` as the
    leak backstop.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._published: Dict[Tuple[object, ...], Tuple[PackedDatabase, int]] = {}
        self._adopted: Dict[Tuple[object, ...], SharedPackHandle] = {}
        self._attached: Dict[str, PackedDatabase] = {}
        self._owned_names: Dict[str, bool] = {}
        self._builds = 0

    # -- segment ownership (resource-tracker coordination) --------------- #
    def note_owned(self, name: str) -> None:
        """Record that this process created segment ``name``."""
        with self._lock:
            self._owned_names[name] = True

    def forget_owned(self, name: str) -> None:
        """Drop the ownership record (the segment was unlinked)."""
        with self._lock:
            self._owned_names.pop(name, None)

    def owns_segment(self, name: str) -> bool:
        """Whether this process (or its forking parent) created ``name``.

        Attaches to owned segments keep the resource-tracker registration
        alive — it is the unlink-on-crash backstop for the owner.
        """
        with self._lock:
            return name in self._owned_names

    # -- instrumentation ------------------------------------------------ #
    def note_build(self) -> None:
        """Count one pack construction (called by ``PackedDatabase.__init__``)."""
        with self._lock:
            self._builds += 1

    @property
    def pack_builds(self) -> int:
        """Packs *built* in this process (attaches deliberately not counted)."""
        with self._lock:
            return self._builds

    # -- owner side ------------------------------------------------------ #
    def publish(
        self, key: Tuple[object, ...], pack: PackedDatabase
    ) -> SharedPackHandle:
        """Share ``pack`` under ``key`` and return its picklable handle.

        The registry takes over unlink responsibility for the segments: they
        are destroyed on :meth:`unpublish`/:meth:`close` (or the atexit
        sweep), in the publishing process only.
        """
        handle = pack.to_shared()
        with self._lock:
            self._published[tuple(key)] = (pack, os.getpid())
        return handle

    def handles(self) -> Dict[Tuple[object, ...], SharedPackHandle]:
        """Every published pack's handle, keyed as published (picklable)."""
        result: Dict[Tuple[object, ...], SharedPackHandle] = {}
        with self._lock:
            for key, (pack, _) in self._published.items():
                handle = pack.shared_handle
                if handle is not None:
                    result[key] = handle
        return result

    def unpublish(self, keys: Iterable[Tuple[object, ...]]) -> None:
        """Withdraw and unlink the named packs (owner-pid guarded)."""
        dropped: List[Tuple[PackedDatabase, int]] = []
        with self._lock:
            for key in keys:
                entry = self._published.pop(tuple(key), None)
                if entry is not None:
                    dropped.append(entry)
        pid = os.getpid()
        for pack, owner_pid in dropped:
            pack.close_shared(unlink=owner_pid == pid)

    # -- worker side ----------------------------------------------------- #
    def adopt(self, handles: Mapping[Tuple[object, ...], SharedPackHandle]) -> None:
        """Attach published packs so :func:`shared_kernel` serves them.

        Worker initializers call this with the owner's :meth:`handles`; each
        distinct segment is mapped exactly once per process no matter how
        many keys (or later ``adopt`` calls) reference it.
        """
        for key, handle in handles.items():
            self.attach(handle)
            with self._lock:
                self._adopted[tuple(key)] = handle

    def adopted(self, key: Tuple[object, ...]) -> Optional[PackedDatabase]:
        """The attached pack adopted under ``key``, if any."""
        with self._lock:
            handle = self._adopted.get(tuple(key))
        if handle is None:
            return None
        return self.attach(handle)

    def attach(self, handle: SharedPackHandle) -> PackedDatabase:
        """Attach to a shared pack, memoised per segment name.

        When this process *published* the pack, the published object itself
        is returned — the owner never maps its own segments twice.
        """
        with self._lock:
            pack = self._attached.get(handle.rows_name)
            if pack is None:
                for published, _ in self._published.values():
                    published_handle = published.shared_handle
                    if (
                        published_handle is not None
                        and published_handle.rows_name == handle.rows_name
                    ):
                        pack = published
                        break
        if pack is not None:
            return pack
        attached = PackedDatabase.attach(handle)
        with self._lock:
            return self._attached.setdefault(handle.rows_name, attached)

    # -- teardown --------------------------------------------------------- #
    def close(self) -> None:
        """Unlink everything this process published, unmap everything attached.

        Idempotent; registered with ``atexit`` so no ``/dev/shm`` segment
        outlives a cleanly exiting owner even when ``close()`` was skipped.
        """
        with self._lock:
            published = list(self._published.values())
            self._published.clear()
            attached = list(self._attached.values())
            self._attached.clear()
            self._adopted.clear()
        pid = os.getpid()
        for pack, owner_pid in published:
            pack.close_shared(unlink=owner_pid == pid)
        for pack in attached:
            pack.close_shared(unlink=False)


_PACK_REGISTRY = SharedPackRegistry()
atexit.register(_PACK_REGISTRY.close)


def shared_pack_registry() -> SharedPackRegistry:
    """This process's shared-pack registry (one per interpreter)."""
    return _PACK_REGISTRY


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
    """
    if not indices:
        return [], []
    masks_a = random_subset_masks(rng, num_blocks, len(indices))
    masks_b = [mask ^ (1 << index) for mask, index in zip(masks_a, indices)]
    if log is not None:
        for mask_a, mask_b in zip(masks_a, masks_b):
            log(frozenset(mask_indices(mask_a)))
            log(frozenset(mask_indices(mask_b)))
    return masks_a, masks_b


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
        (
            int.from_bytes(kernel.answer_mask(mask_a), "big")
            ^ int.from_bytes(kernel.answer_mask(mask_b), "big")
        ).to_bytes(kernel.block_size, "big")
        for mask_a, mask_b in zip(masks_a, masks_b)
    ]
