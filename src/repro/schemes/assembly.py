"""Client-side search-graph assembly: the query-processing fast path.

After the PIR rounds of a query, the client holds byte payloads: region-data
page groups and (for the PI family) the network-index pages carrying a
passage-subgraph entry.  Region records are stored column by column
(:mod:`repro.partition.regiondata`), so assembling the search graph is a
concatenation: the regions' columns are joined, node ids map to their
first-seen position, and :func:`csr_shortest_path` resolves each neighbour
id as it relaxes the edge.  No per-query CSR is built.

The semantics are those of merging the regions' rows into one graph:

* a node carried by several payloads keeps its first-seen position but
  takes the coordinates and adjacency of the *last* payload carrying it;
* payload edges whose head lies outside the fetched payloads are dropped;
* passage edges follow a node's payload edges, skipping ``(u, v)`` pairs
  that already have an edge; endpoints absent from every payload become
  placeholders at ``(0, 0)`` and mark the graph ``heuristic_safe=False``.

The dict-merge oracle of these rules lives in ``tests/oracles``.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import SchemeError
from ..network.indexed import QueryGraph, csr_shortest_path
from ..partition import RegionColumns
from .files import decode_region_bytes
from .index_entries import IndexEntry, decode_index_entry

RegionPair = Tuple[int, int]

__all__ = ["assemble_passage_csr", "assemble_region_csr", "csr_shortest_path"]


def _region_graph(payload_groups: Sequence[Sequence[bytes]]) -> QueryGraph:
    regions = [decode_region_bytes(b"".join(pages)) for pages in payload_groups]
    if len(regions) == 1:
        ids, xy, degrees, neighbours, weights = regions[0]
    else:
        ids, xy, degrees, neighbours, weights = (
            tuple(chain.from_iterable(column)) for column in zip(*regions)
        )
    offsets = list(accumulate(degrees, initial=0))
    # keyed in first-seen order, valued with the position of the last record
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        columns = RegionColumns(ids, xy, degrees, neighbours, weights)
        return _last_payload_wins(columns, offsets, index)
    return QueryGraph(ids, offsets, neighbours, weights, xy, index)


def _last_payload_wins(
    columns: RegionColumns, offsets: List[int], index: Dict[int, int]
) -> QueryGraph:
    """Re-lay columns that carry a node id twice: one record per id, in
    first-seen order, each the id's last record."""
    xy: List[float] = []
    neighbours: List[int] = []
    weights: List[float] = []
    new_offsets = [0]
    for position in index.values():
        start, stop = offsets[position], offsets[position + 1]
        xy += columns.xy[2 * position : 2 * position + 2]
        neighbours += columns.neighbours[start:stop]
        weights += columns.weights[start:stop]
        new_offsets.append(len(neighbours))
    node_ids = list(index)
    dense = dict(zip(node_ids, range(len(node_ids))))
    return QueryGraph(node_ids, new_offsets, neighbours, weights, xy, dense)


def _add_passage_edges(graph: QueryGraph, edges) -> QueryGraph:
    payload_index = graph.payload_index
    index_of = dict(payload_index)
    node_ids = list(graph.node_ids)
    offsets = list(graph.offsets)
    neighbours = graph.neighbours
    extra: Dict[int, List[Tuple[int, float]]] = {}
    # entry.edges is a frozenset; fix the order so the graph's edge layout
    # is identical on every run and worker (I2)
    for u, v, weight in sorted(edges):
        for endpoint in (u, v):
            if endpoint not in index_of:
                index_of[endpoint] = len(node_ids)
                node_ids.append(endpoint)
                offsets.append(offsets[-1])
        du, dv = index_of[u], index_of[v]
        if v in payload_index and v in neighbours[offsets[du] : offsets[du + 1]]:
            continue
        passage = extra.setdefault(du, [])
        if all(target != dv for target, _ in passage):
            passage.append((dv, float(weight)))
    return QueryGraph(
        node_ids, offsets, neighbours, graph.weights, graph.xy, payload_index, index_of, extra
    )


def assemble_region_csr(payload_groups: Sequence[Sequence[bytes]]) -> QueryGraph:
    """The client search graph of a region-set query (CI, un-replaced HY pairs).

    ``payload_groups`` holds, per fetched region, the region-data pages in
    fetch order.  Each region is decoded through the decode cache (when one
    is installed); decoded columns are shared between queries and only read.
    """
    return _region_graph(payload_groups)


def assemble_passage_csr(
    payload_groups: Sequence[Sequence[bytes]],
    index_pages: Sequence[bytes],
    pair: RegionPair,
    entry: Optional[IndexEntry] = None,
) -> QueryGraph:
    """The client search graph of a passage-subgraph query (PI, PI*, APX, HY).

    Region payloads are joined as in :func:`assemble_region_csr`, then the
    weighted edges of the pair's index entry are added.  The entry is
    decoded from ``index_pages`` unless ``entry`` passes in an
    already-decoded one (e.g. HY's round-3 decode).  Raises
    :class:`~repro.exceptions.SchemeError` when the pages carry no
    passage-subgraph entry for ``pair``.
    """
    if entry is None:
        entry = decode_index_entry(index_pages, pair)
    if entry is None or entry.edges is None:
        raise SchemeError("missing passage-subgraph entry for queried pair")
    return _add_passage_edges(_region_graph(payload_groups), entry.edges)
