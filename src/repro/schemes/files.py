"""Builders and readers for the scheme database files.

Every scheme's database comprises (subsets of) four files:

* ``Fh`` (header)  — partitioning information, query plan and file metadata;
  downloaded in full by every client, never through the PIR interface.
* ``Fl`` (look-up) — a dense index over ``Fi``: one page number per region pair.
* ``Fi`` (network index) — region sets / passage subgraphs (see
  :mod:`repro.schemes.index_entries`).
* ``Fd`` (region data) — the actual network information of each region.

File names are fixed constants so query plans can reference them.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemeError, StorageError
from ..network import RoadNetwork
from ..partition import Partitioning, encode_region_payload, decode_region_payload
from ..storage import Database, PageFile, RecordReader, RecordWriter, decode_varint
from ..storage.record import decode_utf8
from .plan import QueryPlan

#: Fixed file names used across schemes.
LOOKUP_FILE = "lookup"
INDEX_FILE = "index"
DATA_FILE = "data"
COMBINED_FILE = "combined"

#: Size in bytes of one look-up entry (a page number in the network index file).
LOOKUP_ENTRY_BYTES = 4

#: Client-side decode cache installed by the query engine (None = disabled).
#: Maps ``("header", bytes)`` to a decoded :class:`HeaderInfo` and
#: ``("region", bytes)`` to a region's decoded columns.  Cached objects are
#: treated as read-only by all query paths; the adversary-visible PIR fetches
#: still happen for every query, only the client-side decode work is shared.
#: Held in a :class:`~contextvars.ContextVar` so the parallel engine can
#: install one cache per worker context without the installs interfering —
#: every thread (and every engine) sees exactly the cache it installed.
_decode_cache_var: ContextVar = ContextVar("repro_decode_cache", default=None)


@contextmanager
def decode_cache_scope(cache):
    """Install ``cache`` as the decode cache for the duration of the block."""
    token = _decode_cache_var.set(cache)
    try:
        yield cache
    finally:
        _decode_cache_var.reset(token)


def current_decode_cache():
    """The decode cache installed in the current context (None = disabled)."""
    return _decode_cache_var.get()


# ---------------------------------------------------------------------- #
# header file (Fh)
# ---------------------------------------------------------------------- #
@dataclass
class HeaderInfo:
    """Everything a client learns from the header file.

    ``tree_splits`` is the partitioning's KD-tree as a flat table of
    ``(index, axis, value, left, right)`` records, root first (see
    :meth:`~repro.partition.Partitioning.tree_splits`); the client routes a
    point by walking that table directly (:meth:`region_of_point`) and never
    rebuilds the tree.
    """

    scheme_name: str
    page_size: int
    num_regions: int
    data_file: str
    index_file: str
    lookup_file: str
    data_pages_per_region: int
    data_page_offset: int
    lookup_entries_per_page: int
    index_fetch_pages: int
    data_round_pages: int
    num_index_pages: int
    num_data_pages: int
    num_lookup_pages: int
    tree_splits: List[Tuple[int, int, float, int, int]]
    plan: QueryPlan
    #: Extra index pages fetched in the last round for multi-page subgraph
    #: entries (used by the HY combined file; zero elsewhere).
    index_continuation_pages: int = 0

    # -------------------------------------------------------------- #
    # client-side helpers
    # -------------------------------------------------------------- #
    def region_of_point(self, x: float, y: float) -> int:
        """Map Euclidean coordinates to a region id by walking ``tree_splits``.

        A split record sends coordinates strictly below ``value`` on ``axis``
        (0 = x, 1 = y) to record ``left`` and the rest to record ``right``;
        an ``axis`` of 2 marks a leaf whose region is ``left``.  The walk
        starts at record 0 and takes at most one step per record, so a cycle
        or a dangling child in a hostile header raises :class:`StorageError`.
        """
        splits = self.tree_splits
        count = len(splits)
        index = 0
        for _ in range(count):
            if not 0 <= index < count:
                raise StorageError(
                    f"malformed split tree in the header: child {index} of {count} records"
                )
            _, axis, value, left, right = splits[index]
            if axis == 0:
                coordinate = x
            elif axis == 1:
                coordinate = y
            elif axis == 2:
                return left
            else:
                raise StorageError(f"malformed split tree in the header: axis {axis}")
            index = left if coordinate < value else right
        raise StorageError(
            f"malformed split tree in the header: no leaf within {count} steps"
        )

    def lookup_page_for(self, region_i: int, region_j: int) -> Tuple[int, int]:
        """The look-up file page holding the entry for ``(i, j)`` and the entry's slot."""
        per_page = self.lookup_entries_per_page
        if per_page <= 0:
            raise StorageError(f"header packs {per_page} look-up entries per page")
        index = region_i * self.num_regions + region_j
        return index // per_page, index % per_page

    def data_pages_for_regions(self, region_ids: Iterable[int]) -> List[int]:
        """Page numbers (in the data file) holding the regions' network
        information, region after region — one batched fetch's page list."""
        pages: List[int] = []
        for region_id in region_ids:
            first = self.data_page_offset + region_id * self.data_pages_per_region
            pages.extend(range(first, first + self.data_pages_per_region))
        return pages

    def region_payloads(self, fetched: List[bytes]) -> List[List[bytes]]:
        """Regroup the bytes of a :meth:`data_pages_for_regions` fetch per region."""
        step = self.data_pages_per_region
        return [fetched[start : start + step] for start in range(0, len(fetched), step)]

    def index_pages_starting_at(self, first_page: int) -> List[int]:
        """The ``index_fetch_pages`` consecutive index pages the plan prescribes.

        When the entry starts close to the end of the file, the window is
        clamped so it still consists of existing pages (the boundary case of
        Section 5.4).
        """
        count = self.index_fetch_pages
        start = min(first_page, max(0, self.num_index_pages - count))
        end = min(self.num_index_pages, start + count)
        return list(range(start, end))

    def check_page_counts(self, pages_of: Callable[[str], int]) -> None:
        """Reject a header whose page counts disagree with the files served.

        The counts are well-formed integers either way, but a lying count
        sizes the client's index window and its padding (up to 2**32
        entries).  ``pages_of`` reports a file's true page count, which the
        client learns from the PIR layer, not from the header.  The counts
        the header assigns to each named file (HY's index and data share
        the combined file) must sum to that file's page count, the regions
        must fill the data pages, and the index window must fit inside the
        index.  ``data_round_pages`` must equal the data pages of the
        header's own plan (the plan's pages of the data file, less the index
        window when index and data share a file) and stay within
        ``num_regions + 2`` regions plus the continuation pages.
        """
        claimed: Dict[str, int] = {}
        for name, count in (
            (self.index_file, self.num_index_pages),
            (self.data_file, self.num_data_pages),
            (self.lookup_file, self.num_lookup_pages),
        ):
            claimed[name] = claimed.get(name, 0) + count
        for name, count in claimed.items():
            actual = pages_of(name)
            if count != actual:
                raise StorageError(
                    f"header assigns {count} pages to file {name!r}, which holds {actual}"
                )
        if self.num_regions * self.data_pages_per_region != self.num_data_pages:
            raise StorageError(
                f"header packs {self.num_regions} regions of {self.data_pages_per_region} "
                f"pages into {self.num_data_pages} data pages"
            )
        for name, count in (
            ("index", self.index_fetch_pages),
            ("continuation", self.index_continuation_pages),
        ):
            if count > self.num_index_pages:
                raise StorageError(
                    f"header fetches {count} {name} pages per query "
                    f"from an index of {self.num_index_pages}"
                )
        planned = self.plan.pages_per_file().get(self.data_file, 0)
        if self.index_file == self.data_file:
            planned -= self.index_fetch_pages
        bound = (self.num_regions + 2) * self.data_pages_per_region
        bound += self.index_continuation_pages
        if self.data_round_pages != planned or self.data_round_pages > bound:
            raise StorageError(
                f"header pads the data round to {self.data_round_pages} pages; its plan "
                f"fetches {planned} and {bound} is the most its regions can need"
            )

    def encode(self) -> bytes:
        writer = RecordWriter()
        writer.string(self.scheme_name)
        writer.uint32(self.page_size)
        writer.uint32(self.num_regions)
        writer.string(self.data_file)
        writer.string(self.index_file)
        writer.string(self.lookup_file)
        writer.uint32(self.data_pages_per_region)
        writer.uint32(self.data_page_offset)
        writer.uint32(self.lookup_entries_per_page)
        writer.uint32(self.index_fetch_pages)
        writer.uint32(self.data_round_pages)
        writer.uint32(self.num_index_pages)
        writer.uint32(self.num_data_pages)
        writer.uint32(self.num_lookup_pages)
        writer.uint32(self.index_continuation_pages)
        writer.varint(len(self.tree_splits))
        for _, axis, value, left, right in self.tree_splits:
            writer.varint(axis)
            writer.float64(value)
            writer.varint(left)
            writer.varint(right)
        writer.raw(self.plan.encode())
        return writer.getvalue()

    @staticmethod
    def decode(data: bytes) -> "HeaderInfo":
        cache = _decode_cache_var.get()
        if cache is not None:
            cached = cache.get(("header", data))
            if cached is not None:
                return cached
        scheme_name, pos = _read_string(data, 0)
        (page_size, num_regions), pos = _read_fields(_HEADER_SIZES, data, pos)
        data_file, pos = _read_string(data, pos)
        index_file, pos = _read_string(data, pos)
        lookup_file, pos = _read_string(data, pos)
        (
            data_pages_per_region,
            data_page_offset,
            lookup_entries_per_page,
            index_fetch_pages,
            data_round_pages,
            num_index_pages,
            num_data_pages,
            num_lookup_pages,
            index_continuation_pages,
        ), pos = _read_fields(_HEADER_COUNTS, data, pos)
        tree_splits, pos = _decode_splits(data, pos)
        plan = QueryPlan.decode(RecordReader(data, pos))
        header = HeaderInfo(
            scheme_name=scheme_name,
            page_size=page_size,
            num_regions=num_regions,
            data_file=data_file,
            index_file=index_file,
            lookup_file=lookup_file,
            data_pages_per_region=data_pages_per_region,
            data_page_offset=data_page_offset,
            lookup_entries_per_page=lookup_entries_per_page,
            index_fetch_pages=index_fetch_pages,
            data_round_pages=data_round_pages,
            num_index_pages=num_index_pages,
            num_data_pages=num_data_pages,
            num_lookup_pages=num_lookup_pages,
            tree_splits=tree_splits,
            plan=plan,
            index_continuation_pages=index_continuation_pages,
        )
        if cache is not None:
            cache.put(("header", data), header)
        return header


#: ``page_size`` and ``num_regions``, then the nine page-layout counts that
#: follow the three file names (``data_pages_per_region`` …
#: ``index_continuation_pages``, in :meth:`HeaderInfo.encode` order).
_HEADER_SIZES = struct.Struct("<II")
_HEADER_COUNTS = struct.Struct("<9I")
_SPLIT_VALUE = struct.Struct("<d")


def _read_fields(codec: struct.Struct, data: bytes, pos: int) -> Tuple[tuple, int]:
    end = pos + codec.size
    if end > len(data):
        raise StorageError("header truncated inside its fixed-size fields")
    return codec.unpack_from(data, pos), end


def _read_string(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = decode_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise StorageError("header truncated inside a string field")
    return decode_utf8(data[pos:end]), end


def _decode_splits(
    data: bytes, pos: int
) -> Tuple[List[Tuple[int, int, float, int, int]], int]:
    """The split-tree records starting at ``pos`` and the offset after them.

    ``axis``, ``left`` and ``right`` are varints that almost always fit one
    byte, so each is read inline; a continuation byte (>= 0x80) or the end of
    the data falls back to :func:`decode_varint`, which bounds-checks.
    """
    end = len(data)
    count, pos = decode_varint(data, pos)
    unpack_value = _SPLIT_VALUE.unpack_from
    splits: List[Tuple[int, int, float, int, int]] = []
    for index in range(count):
        axis = data[pos] if pos < end else 0x80
        if axis < 0x80:
            pos += 1
        else:
            axis, pos = decode_varint(data, pos)
        if axis > 2:
            raise StorageError(f"split record {index} has axis {axis}, not 0, 1 or 2")
        if pos + 8 > end:
            raise StorageError(f"header truncated inside split record {index}")
        value = unpack_value(data, pos)[0]
        pos += 8
        left = data[pos] if pos < end else 0x80
        if left < 0x80:
            pos += 1
        else:
            left, pos = decode_varint(data, pos)
        right = data[pos] if pos < end else 0x80
        if right < 0x80:
            pos += 1
        else:
            right, pos = decode_varint(data, pos)
        splits.append((index, axis, value, left, right))
    return splits, pos


# ---------------------------------------------------------------------- #
# look-up file (Fl)
# ---------------------------------------------------------------------- #
def build_lookup_file(
    database: Database,
    num_regions: int,
    index_page_of_pair,
    file_name: str = LOOKUP_FILE,
) -> PageFile:
    """Build the dense look-up index over the network index file.

    ``index_page_of_pair`` is a callable ``(i, j) -> page number``.  Entries
    are stored in ascending ``(i, j)`` order, packed as many per page as fit.
    """
    lookup = database.create_file(file_name)
    entries_per_page = lookup.page_size // LOOKUP_ENTRY_BYTES
    page = None
    placed_in_page = 0
    for region_i in range(num_regions):
        for region_j in range(num_regions):
            if page is None or placed_in_page == entries_per_page:
                page = lookup.new_page()
                placed_in_page = 0
            writer = RecordWriter()
            writer.uint32(index_page_of_pair(region_i, region_j))
            page.append(writer.getvalue())
            placed_in_page += 1
    return lookup


def read_lookup_entry(page_bytes: bytes, slot: int) -> int:
    """Extract the ``slot``-th look-up entry (an ``Fi`` page number) from a page."""
    reader = RecordReader(page_bytes, offset=slot * LOOKUP_ENTRY_BYTES)
    return reader.uint32()


def lookup_entries_per_page(page_size: int) -> int:
    return page_size // LOOKUP_ENTRY_BYTES


# ---------------------------------------------------------------------- #
# region data file (Fd)
# ---------------------------------------------------------------------- #
def build_region_data_file(
    database: Database,
    network: RoadNetwork,
    partitioning: Partitioning,
    pages_per_region: int = 1,
    file_name: str = DATA_FILE,
    page_file: Optional[PageFile] = None,
) -> PageFile:
    """Write every region's network information into ``pages_per_region`` pages.

    Region ``r`` occupies pages ``[offset + r·k, offset + (r+1)·k)`` of the
    file, where ``k = pages_per_region`` and ``offset`` is the number of pages
    already present in ``page_file`` (non-zero only for the HY combined file).
    """
    data_file = page_file if page_file is not None else database.create_file(file_name)
    for region in partitioning.regions():
        payload = encode_region_payload(network, region.node_ids)
        capacity = pages_per_region * data_file.page_size
        if len(payload) > capacity:
            raise SchemeError(
                f"region {region.region_id} payload of {len(payload)} bytes exceeds its "
                f"{pages_per_region} page(s) ({capacity} bytes)"
            )
        for chunk_start in range(0, pages_per_region * data_file.page_size, data_file.page_size):
            chunk = payload[chunk_start:chunk_start + data_file.page_size]
            page = data_file.new_page()
            if chunk:
                page.append(chunk)
    return data_file


def decode_region_pages(pages: Sequence[bytes]):
    """Decode the columns of one region from its (concatenated) pages.

    When the query engine has a decode cache installed, identical page
    contents (the common case for repeated region fetches within a workload)
    are decoded once and shared; callers must not mutate the returned columns.
    """
    return decode_region_bytes(b"".join(pages))


def decode_region_bytes(payload: bytes):
    """Decode one region's already-concatenated payload bytes (cached)."""
    cache = _decode_cache_var.get()
    if cache is None:
        return decode_region_payload(payload)
    decoded = cache.get(("region", payload))
    if decoded is None:
        decoded = decode_region_payload(payload)
        cache.put(("region", payload), decoded)
    return decoded
