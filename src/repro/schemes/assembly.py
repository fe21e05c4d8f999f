"""CSR-native client-side subgraph assembly: the query-processing fast path.

After the PIR rounds of a query, the client holds byte payloads: region-data
page groups and (for the PI family) the network-index pages carrying a
passage-subgraph entry.  The functions here turn those bytes into a
searchable :class:`~repro.network.indexed.CsrGraph` *directly* — node-id
interning straight into flat arrays, no dict-based
:class:`~repro.network.RoadNetwork` intermediate — and memoise the assembled
graph in the engine's decode cache, keyed by the exact bytes that produced
it.  Within a workload, queries between the same region pair fetch identical
pages, so the per-query client cost of a repeated pair drops to one cache
probe plus the search itself.

The original dict-merge construction survives below as ``reference_*``
oracles (:func:`reference_region_graph`, :func:`reference_passage_graph`,
built on :func:`repro.partition.merge_region_payloads` and
:func:`subgraph_from_entry`); the property tests assert that the CSR-native
assembly returns identical costs, paths and traces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exceptions import SchemeError
from ..network import RoadNetwork
from ..network.indexed import CsrBuilder, CsrGraph, csr_shortest_path
from ..partition import merge_region_payloads
from .files import current_decode_cache, decode_region_bytes
from .index_entries import IndexEntry, decode_index_entry

RegionPair = Tuple[int, int]

__all__ = [
    "assemble_passage_csr",
    "assemble_region_csr",
    "csr_shortest_path",
    "reference_passage_graph",
    "reference_region_graph",
    "subgraph_from_entry",
]


def _joined_payloads(payload_groups: Sequence[Sequence[bytes]]) -> Tuple[bytes, ...]:
    return tuple(b"".join(pages) for pages in payload_groups)


def _build_csr(
    joined: Sequence[bytes], entry: Optional[IndexEntry] = None
) -> CsrGraph:
    builder = CsrBuilder()
    for payload in joined:
        builder.add_payload(decode_region_bytes(payload))
    if entry is not None:
        # entry.edges is a frozenset; fix the insertion order so the CSR
        # adjacency layout is identical on every run and worker (I2)
        builder.add_edges(sorted(entry.edges))
    return builder.build()


def assemble_region_csr(payload_groups: Sequence[Sequence[bytes]]) -> CsrGraph:
    """The client search graph of a region-set query (CI, un-replaced HY pairs).

    ``payload_groups`` holds, per fetched region, the region-data pages in
    fetch order.  The result is cached (when a decode cache is installed)
    under the concatenated payload bytes; cached graphs are shared between
    queries and must be treated as read-only — searches allocate their own
    working state, so sharing is safe.
    """
    joined = _joined_payloads(payload_groups)
    key = ("csr", None, joined)
    cache = current_decode_cache()
    if cache is None:
        return _build_csr(joined)
    csr = cache.get(key)
    if csr is None:
        csr = _build_csr(joined)
        cache.put(key, csr)
    return csr


def assemble_passage_csr(
    payload_groups: Sequence[Sequence[bytes]],
    index_pages: Sequence[bytes],
    pair: RegionPair,
    entry: Optional[IndexEntry] = None,
) -> CsrGraph:
    """The client search graph of a passage-subgraph query (PI, PI*, APX, HY).

    Region payloads are merged as in :func:`assemble_region_csr`, then the
    weighted edges of the pair's index entry are appended.  The entry is
    decoded from ``index_pages`` only when the assembled graph is not already
    cached (``entry`` may pass in an already-decoded entry to skip that work,
    e.g. HY's round-3 decode).  Raises :class:`~repro.exceptions.SchemeError`
    when the pages carry no passage-subgraph entry for ``pair``.
    """
    joined = _joined_payloads(payload_groups)
    key = ("csr", (pair, tuple(index_pages)), joined)
    cache = current_decode_cache()
    if cache is not None:
        csr = cache.get(key)
        if csr is not None:
            return csr
    if entry is None:
        entry = decode_index_entry(index_pages, pair)
    if entry is None or entry.edges is None:
        raise SchemeError("missing passage-subgraph entry for queried pair")
    csr = _build_csr(joined, entry)
    if cache is not None:
        cache.put(key, csr)
    return csr


# ---------------------------------------------------------------------- #
# reference implementations (dict-based; kept as oracles for the property
# tests and as the PR-1 baseline of the scheme-query microbenchmark)
# ---------------------------------------------------------------------- #
def subgraph_from_entry(entry: IndexEntry, region_payloads) -> RoadNetwork:
    """Assemble the client-side graph from region data plus passage-subgraph edges.

    Passage nodes that appear in no fetched region are inserted at placeholder
    coordinates ``(0, 0)``; the graph is then flagged ``heuristic_safe=False``
    so geometric A* heuristics (which the placeholders would corrupt into
    inadmissibility) degrade to the zero heuristic instead of returning
    suboptimal paths.
    """
    graph = merge_region_payloads(region_payloads)
    if entry.edges is None:
        raise SchemeError("expected a passage-subgraph entry")
    for source, target, weight in sorted(entry.edges):
        if source not in graph:
            graph.add_node(source, 0.0, 0.0)
            graph.heuristic_safe = False
        if target not in graph:
            graph.add_node(target, 0.0, 0.0)
            graph.heuristic_safe = False
        if not graph.has_edge(source, target):
            graph.add_edge(source, target, weight)
    return graph


def reference_region_graph(payload_groups: Sequence[Sequence[bytes]]) -> RoadNetwork:
    """Dict-merge oracle for :func:`assemble_region_csr`."""
    decoded = [decode_region_bytes(b"".join(pages)) for pages in payload_groups]
    return merge_region_payloads(decoded)


def reference_passage_graph(
    payload_groups: Sequence[Sequence[bytes]],
    index_pages: Sequence[bytes],
    pair: RegionPair,
    entry: Optional[IndexEntry] = None,
) -> RoadNetwork:
    """Dict-merge oracle for :func:`assemble_passage_csr`."""
    if entry is None:
        entry = decode_index_entry(index_pages, pair)
    if entry is None or entry.edges is None:
        raise SchemeError("missing passage-subgraph entry for queried pair")
    decoded = [decode_region_bytes(b"".join(pages)) for pages in payload_groups]
    return subgraph_from_entry(entry, decoded)
