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

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemeError, StorageError
from ..network import RoadNetwork
from ..partition import Partitioning, encode_region_payload, decode_region_payload
from ..partition.regions import LeafNode, Partitioning as _Partitioning, SplitNode, TreeNode
from ..storage import Database, PageFile, RecordReader, RecordWriter
from .plan import QueryPlan

#: Fixed file names used across schemes.
LOOKUP_FILE = "lookup"
INDEX_FILE = "index"
DATA_FILE = "data"
COMBINED_FILE = "combined"

#: Size in bytes of one look-up entry (a page number in the network index file).
LOOKUP_ENTRY_BYTES = 4

#: Client-side decode cache installed by the query engine (None = disabled).
#: Maps ``("header", bytes)`` to a decoded :class:`HeaderInfo`, ``("region",
#: bytes)`` to a decoded region payload, and ``("csr", ...)`` to an assembled
#: query subgraph (see :mod:`repro.schemes.assembly`).  Cached objects are
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
    """Everything a client learns from the header file."""

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
        """Map Euclidean coordinates to a region id using the shipped split tree."""
        tree = getattr(self, "_split_tree", None)
        if tree is None:
            tree = _Partitioning.tree_from_splits(self.tree_splits)
            self._split_tree = tree
        return _descend(tree, x, y)

    def lookup_page_for(self, region_i: int, region_j: int) -> Tuple[int, int]:
        """The look-up file page holding the entry for ``(i, j)`` and the entry's slot."""
        index = region_i * self.num_regions + region_j
        return index // self.lookup_entries_per_page, index % self.lookup_entries_per_page

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
        reader = RecordReader(data)
        scheme_name = reader.string()
        page_size = reader.uint32()
        num_regions = reader.uint32()
        data_file = reader.string()
        index_file = reader.string()
        lookup_file = reader.string()
        data_pages_per_region = reader.uint32()
        data_page_offset = reader.uint32()
        lookup_entries_per_page = reader.uint32()
        index_fetch_pages = reader.uint32()
        data_round_pages = reader.uint32()
        num_index_pages = reader.uint32()
        num_data_pages = reader.uint32()
        num_lookup_pages = reader.uint32()
        index_continuation_pages = reader.uint32()
        split_count = reader.varint()
        tree_splits = []
        for index in range(split_count):
            axis = reader.varint()
            value = reader.float64()
            left = reader.varint()
            right = reader.varint()
            tree_splits.append((index, axis, value, left, right))
        plan = QueryPlan.decode(reader)
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


def _descend(tree: TreeNode, x: float, y: float) -> int:
    node = tree
    while isinstance(node, SplitNode):
        coordinate = x if node.axis == 0 else y
        node = node.left if coordinate < node.value else node.right
    if not isinstance(node, LeafNode):
        raise StorageError("malformed split tree in the header")
    return node.region_id


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
    """Decode the node records of one region from its (concatenated) pages.

    When the query engine has a decode cache installed, identical page
    contents (the common case for repeated region fetches within a workload)
    are decoded once and shared; callers must not mutate the returned payload.
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
