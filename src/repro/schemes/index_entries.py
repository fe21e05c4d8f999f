"""Network index file (``Fi``) entries: layout, fragmentation and compression.

The network index stores, for every ordered region pair ``(i, j)``, either the
region set ``S_ij`` (CI, and the un-replaced pairs of HY) or the passage
subgraph ``G_ij`` (PI, PI*, and the replaced pairs of HY).  Entries are placed
in ascending ``(i, j)`` order and never straddle a page unnecessarily
(Section 5.3); entries larger than a page start on a fresh page and are split
into raw fragments so every fragment fits a page.

In-page compression (Sections 5.5 and 6) stores an entry as a *delta* against
the already-placed entry of the same page with the largest overlap.  Region-set
deltas may also carry *exclusions* so the inflated set never exceeds the plan
value ``m``; subgraph deltas only carry additions (extra edges are harmless).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import SchemeError, StorageError
from ..storage import Page, PageFile, RecordReader, RecordWriter, encode_varint
from ..storage.record import check_edge_weights

RegionPair = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

KIND_REGION_RAW = 0
KIND_REGION_DELTA = 1
KIND_SUBGRAPH_RAW = 2
KIND_SUBGRAPH_DELTA = 3

#: Entry head: region pair ``(i, j)`` as two uint32, then the kind byte.
_HEAD = struct.Struct("<IIB")
#: Encoded size of one element of a raw entry: a region id, or an edge ``(u, v, w)``.
_ELEMENT_BYTES = {KIND_REGION_RAW: 4, KIND_SUBGRAPH_RAW: 12}


def _float32_all(values: Sequence[float]) -> Tuple[float, ...]:
    """Round-trip floats through 32-bit precision (the on-disk representation)."""
    layout = f"<{len(values)}f"
    return struct.unpack(layout, struct.pack(layout, *values))


@dataclass(frozen=True)
class IndexEntry:
    """A decoded network-index entry as seen by the querying client."""

    key: RegionPair
    #: Effective region set (possibly inflated by compression); ``None`` for subgraphs.
    regions: Optional[FrozenSet[int]]
    #: Effective edge set (possibly inflated by compression); ``None`` for region sets.
    edges: Optional[FrozenSet[WeightedEdge]]

@dataclass
class _PlacedEntry:
    """Builder-side record of an entry placed in the page currently being filled.

    Fragments carry no effective set: they are never a delta reference.
    """

    key: RegionPair
    effective_regions: Optional[FrozenSet[int]]
    effective_edges: Optional[FrozenSet[WeightedEdge]]


@dataclass
class EntryLocation:
    """Where a pair's entry lives in the index file."""

    start_page: int
    page_span: int


class IndexFileBuilder:
    """Builds the network index file page by page."""

    def __init__(
        self,
        page_file: PageFile,
        compress: bool = True,
        max_region_set_size: Optional[int] = None,
    ) -> None:
        self.page_file = page_file
        self.compress = compress
        self.max_region_set_size = max_region_set_size
        self.locations: Dict[RegionPair, EntryLocation] = {}
        self._current_page: Optional[Page] = None
        self._current_entries: List[_PlacedEntry] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def add_region_set(self, i: int, j: int, regions: Iterable[int]) -> None:
        """Place the region set ``S_ij``."""
        self._add_entry((i, j), frozenset(int(r) for r in regions), None)

    def add_subgraph(self, i: int, j: int, edges: Iterable[WeightedEdge]) -> None:
        """Place the passage subgraph ``G_ij`` (edges carry their weights)."""
        edges = list(edges)
        sources, targets, weights = zip(*edges) if edges else ((), (), ())
        normalized = frozenset(
            zip(map(int, sources), map(int, targets), _float32_all(weights))
        )
        self._add_entry((i, j), None, normalized)

    @property
    def max_page_span(self) -> int:
        """The largest number of pages spanned by any entry placed so far."""
        if not self.locations:
            return 1
        return max(location.page_span for location in self.locations.values())

    def location_of(self, key: RegionPair) -> EntryLocation:
        try:
            return self.locations[key]
        except KeyError:
            raise SchemeError(f"no index entry was placed for region pair {key}") from None

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def _add_entry(
        self,
        key: RegionPair,
        regions: Optional[FrozenSet[int]],
        edges: Optional[FrozenSet[WeightedEdge]],
    ) -> None:
        if key in self.locations:
            raise SchemeError(f"region pair {key} was placed twice in the index file")
        capacity = self.page_file.page_size

        kind = KIND_REGION_RAW if regions is not None else KIND_SUBGRAPH_RAW
        elements = sorted(regions if regions is not None else edges)
        if _framed_raw_size(len(elements), _ELEMENT_BYTES[kind]) > capacity:
            self._place_fragmented(key, kind, elements)
            return
        framed_raw = _frame(_encode_raw(key, kind, elements))

        best = framed_raw
        best_effective_regions, best_effective_edges = regions, edges
        if self.compress and self._current_page is not None:
            delta = self._best_delta(key, regions, edges)
            if delta is not None and len(delta[0]) < len(framed_raw):
                best, best_effective_regions, best_effective_edges = delta

        if self._current_page is None or not self._current_page.fits(best):
            # no straddling: close the page and start a new one; a fresh page has
            # no reference candidates, so fall back to the raw encoding
            self._start_new_page()
            best = framed_raw
            best_effective_regions, best_effective_edges = regions, edges

        self._current_page.append(best)
        page_number = self.page_file.num_pages - 1
        self.locations[key] = EntryLocation(start_page=page_number, page_span=1)
        self._current_entries.append(
            _PlacedEntry(key, best_effective_regions, best_effective_edges)
        )

    def _place_fragmented(self, key: RegionPair, kind: int, elements: List) -> None:
        """Split an oversized entry into raw fragments, each on a fresh page.

        Every fragment starts on an empty page, so each takes the same number
        of the sorted ``elements``: the most whose framed raw encoding fits.
        """
        self._start_new_page()
        start_page = self.page_file.num_pages - 1
        element_bytes = _ELEMENT_BYTES[kind]
        per_page = _fitting_count(self._current_page.free_bytes, element_bytes, len(elements))
        if per_page == 0:
            raise StorageError(
                f"index page of {self.page_file.page_size} bytes cannot hold a fragment "
                f"of pair {key}: one {'region' if kind == KIND_REGION_RAW else 'edge'} "
                f"needs {_framed_raw_size(1, element_bytes)} bytes"
            )
        for position in range(0, len(elements), per_page):
            if position:
                self._start_new_page()
            chunk = elements[position:position + per_page]
            self._current_page.append(_frame(_encode_raw(key, kind, chunk)))
            # a fragment is never a delta reference, but it holds a page position
            self._current_entries.append(_PlacedEntry(key, None, None))
        end_page = self.page_file.num_pages - 1
        self.locations[key] = EntryLocation(
            start_page=start_page, page_span=end_page - start_page + 1
        )

    def _start_new_page(self) -> None:
        if self._current_page is not None and self._current_page.used_bytes == 0:
            # the current page is still empty: reuse it instead of wasting it
            self._current_entries = []
            return
        self._current_page = self.page_file.new_page()
        self._current_entries = []

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def _best_delta(
        self,
        key: RegionPair,
        regions: Optional[FrozenSet[int]],
        edges: Optional[FrozenSet[WeightedEdge]],
    ):
        """The smallest delta encoding against a reference in the current page, if any."""
        best_tuple = None
        best_size = None
        for position, placed in enumerate(self._current_entries):
            if regions is not None and placed.effective_regions is not None:
                encoded, effective = self._encode_region_delta(
                    key, regions, placed.effective_regions, position
                )
                if encoded is None:
                    continue
                framed = _frame(encoded)
                if best_size is None or len(framed) < best_size:
                    best_size = len(framed)
                    best_tuple = (framed, effective, None)
            elif edges is not None and placed.effective_edges is not None:
                reference = placed.effective_edges
                additions = edges - reference
                if len(additions) >= len(edges):
                    continue
                writer = RecordWriter()
                writer.uint32(key[0]).uint32(key[1]).raw(bytes([KIND_SUBGRAPH_DELTA]))
                writer.varint(position)
                writer.varint(len(additions))
                for u, v, w in sorted(additions):
                    writer.uint32(u).uint32(v).float32(w)
                framed = _frame(writer.getvalue())
                if best_size is None or len(framed) < best_size:
                    best_size = len(framed)
                    best_tuple = (framed, None, frozenset(reference | additions))
        if best_tuple is None:
            return None
        framed, effective_regions, effective_edges = best_tuple
        return framed, effective_regions, effective_edges

    def _encode_region_delta(
        self,
        key: RegionPair,
        regions: FrozenSet[int],
        reference: FrozenSet[int],
        position: int,
    ):
        additions = regions - reference
        inflated = reference | regions
        exclusions: FrozenSet[int] = frozenset()
        if self.max_region_set_size is not None and len(inflated) > self.max_region_set_size:
            surplus = len(inflated) - self.max_region_set_size
            removable = sorted(reference - regions)
            if len(removable) < surplus:
                return None, None
            exclusions = frozenset(removable[:surplus])
        effective = inflated - exclusions
        writer = RecordWriter()
        writer.uint32(key[0]).uint32(key[1]).raw(bytes([KIND_REGION_DELTA]))
        writer.varint(position)
        writer.uint32_list(sorted(additions))
        writer.uint32_list(sorted(exclusions))
        return writer.getvalue(), frozenset(effective)


# ---------------------------------------------------------------------- #
# encoding helpers
# ---------------------------------------------------------------------- #
def _encode_raw(key: RegionPair, kind: int, elements: Sequence) -> bytes:
    """A raw entry of the sorted ``elements``: head, varint count, then each
    region as uint32 or each edge ``(u, v, w)`` as uint32, uint32, float32.

    Byte-identical to writing each field through :class:`RecordWriter`.
    """
    if kind == KIND_REGION_RAW:
        body = struct.pack(f"<{len(elements)}I", *elements)
    else:
        body = struct.pack("<" + "IIf" * len(elements), *chain.from_iterable(elements))
    return _HEAD.pack(key[0], key[1], kind) + encode_varint(len(elements)) + body


def _varint_size(value: int) -> int:
    """Length of :func:`~repro.storage.record.encode_varint` of ``value``."""
    return max(1, (value.bit_length() + 6) // 7)


def _framed_raw_size(count: int, element_bytes: int) -> int:
    """``len(_frame(_encode_raw(...)))`` for a raw entry of ``count`` elements."""
    body = _HEAD.size + _varint_size(count) + element_bytes * count
    return _varint_size(body) + body


def _fitting_count(free_bytes: int, element_bytes: int, limit: int) -> int:
    """The most elements (at most ``limit``) whose framed raw entry fits ``free_bytes``."""
    # the estimate assumes one-byte varints; larger varints only shrink it
    count = min(limit, max(0, (free_bytes - _HEAD.size - 2) // element_bytes))
    while count > 0 and _framed_raw_size(count, element_bytes) > free_bytes:
        count -= 1
    return count


def _frame(entry_bytes: bytes) -> bytes:
    """Prefix an entry with its length (zero-length marks page padding)."""
    return encode_varint(len(entry_bytes)) + entry_bytes


# ---------------------------------------------------------------------- #
# decoding (client side)
# ---------------------------------------------------------------------- #
@dataclass
class _RawDecodedEntry:
    key: RegionPair
    kind: int
    reference_position: Optional[int]
    regions: Optional[List[int]]
    exclusions: Optional[List[int]]
    edges: Optional[List[WeightedEdge]]


def _decode_page_entries(page_bytes: bytes) -> List[_RawDecodedEntry]:
    reader = RecordReader(page_bytes)
    entries: List[_RawDecodedEntry] = []
    while reader.remaining() > 0:
        length = reader.varint()
        if length == 0:
            break
        body = RecordReader(reader.raw(length))
        i = body.uint32()
        j = body.uint32()
        kind = body.raw(1)[0]
        reference_position: Optional[int] = None
        regions: Optional[List[int]] = None
        exclusions: Optional[List[int]] = None
        edges: Optional[List[WeightedEdge]] = None
        if kind == KIND_REGION_RAW:
            regions = body.uint32_list()
        elif kind == KIND_REGION_DELTA:
            reference_position = body.varint()
            regions = body.uint32_list()
            exclusions = body.uint32_list()
        elif kind == KIND_SUBGRAPH_RAW:
            count = body.varint()
            edges = body.edge_list(count)
        elif kind == KIND_SUBGRAPH_DELTA:
            reference_position = body.varint()
            count = body.varint()
            edges = body.edge_list(count)
        else:
            raise StorageError(f"unknown index entry kind {kind}")
        if edges:
            check_edge_weights(list(map(itemgetter(2), edges)))
        entries.append(_RawDecodedEntry((i, j), kind, reference_position, regions, exclusions, edges))
    return entries


def _delta_reference(
    resolved: List[IndexEntry], entry: _RawDecodedEntry, position: int
) -> IndexEntry:
    """The earlier entry a delta entry builds on; untrusted page bytes may
    name a later, missing or negative position."""
    reference = entry.reference_position
    if reference is None or not 0 <= reference < position:
        raise StorageError(
            f"index delta entry {position} references entry {reference}, "
            "not an earlier one"
        )
    return resolved[reference]


def _resolve_page(entries: List[_RawDecodedEntry]) -> List[IndexEntry]:
    """Resolve delta references within a single page."""
    resolved: List[IndexEntry] = []
    for position, entry in enumerate(entries):
        if entry.kind == KIND_REGION_RAW:
            resolved.append(IndexEntry(entry.key, frozenset(entry.regions), None))
        elif entry.kind == KIND_REGION_DELTA:
            reference = _delta_reference(resolved, entry, position)
            if reference.regions is None:
                raise StorageError("region-set delta references a subgraph entry")
            effective = (reference.regions | set(entry.regions)) - set(entry.exclusions)
            resolved.append(IndexEntry(entry.key, frozenset(effective), None))
        elif entry.kind == KIND_SUBGRAPH_RAW:
            resolved.append(IndexEntry(entry.key, None, frozenset(entry.edges)))
        else:  # KIND_SUBGRAPH_DELTA
            reference = _delta_reference(resolved, entry, position)
            if reference.edges is None:
                raise StorageError("subgraph delta references a region-set entry")
            effective = reference.edges | set(entry.edges)
            resolved.append(IndexEntry(entry.key, None, frozenset(effective)))
    return resolved


def resolve_page_image(page_bytes: bytes) -> List[IndexEntry]:
    """Decode and delta-resolve one index page image (no caching).

    :func:`resolved_page_entries` memoises it in the per-worker decode
    cache, keyed by the bytes: PIR-fetched pages carry no page identity.
    """
    return _resolve_page(_decode_page_entries(bytes(page_bytes)))


def resolved_page_entries(page_bytes: bytes) -> List[IndexEntry]:
    """All (delta-resolved) entries of one index page.

    When the query engine has a decode cache installed, identical page
    contents resolve once and the entry list is shared; entries are frozen
    dataclasses and safe to share between queries.
    """
    from .files import current_decode_cache  # deferred: files imports storage early

    cache = current_decode_cache()
    if cache is None:
        return resolve_page_image(page_bytes)
    resolved = cache.get(("ipage", page_bytes))
    if resolved is None:
        resolved = resolve_page_image(page_bytes)
        cache.put(("ipage", page_bytes), resolved)
    return resolved


def decode_index_entry(pages: Sequence[bytes], key: RegionPair) -> Optional[IndexEntry]:
    """Extract (and merge, if fragmented) the entry for ``key`` from fetched pages."""
    regions: set = set()
    edges: set = set()
    found_regions = False
    found_edges = False
    for page_bytes in pages:
        resolved = resolved_page_entries(page_bytes)
        for entry in resolved:
            if entry.key != key:
                continue
            if entry.regions is not None:
                regions |= entry.regions
                found_regions = True
            if entry.edges is not None:
                edges |= entry.edges
                found_edges = True
    if found_regions:
        return IndexEntry(key, frozenset(regions), None)
    if found_edges:
        return IndexEntry(key, None, frozenset(edges))
    return None
