"""Row-format region records and the dict-merge client graph, kept as oracles.

Before region records were stored column by column, a region payload was a
count followed by one row per node: ``uint32 id, float32 x, float32 y,
varint degree, (uint32 neighbour, float32 weight)*``.  :func:`encode_region_rows`
writes that format and :func:`decode_region_rows` is the flat-struct decoder
that read it.  A columnar payload and a row payload of the same nodes have
the same length, and the row view (:func:`rows_of`) of the columnar
decoder's result must equal this decoder's result.

:func:`merge_region_payloads` and :func:`subgraph_from_entry` are the
dict-merge construction of the client's search graph: a
:class:`~repro.network.RoadNetwork` built from decoded rows.  A search over
it must return the paths of :func:`repro.schemes.assembly` graphs.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from networks import has_edge
from repro.exceptions import SchemeError, StorageError
from repro.network import NodeId, RoadNetwork
from repro.partition import RegionColumns, decode_region_payload
from repro.schemes.index_entries import IndexEntry, decode_index_entry
from repro.storage import RecordWriter, decode_varint
from repro.storage.record import PAIR_UINT32_FLOAT32

Rows = Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]]

_NODE_HEAD = struct.Struct("<Iff")


def encode_node_row(network: RoadNetwork, node_id: NodeId) -> bytes:
    """One node as a row: id, coordinates and adjacency list."""
    node = network.node(node_id)
    writer = RecordWriter().uint32(node.node_id).float32(node.x).float32(node.y)
    neighbors = network.neighbors(node_id)
    writer.varint(len(neighbors))
    for neighbor, weight in neighbors:
        writer.uint32(neighbor).float32(weight)
    return writer.getvalue()


def encode_region_rows(network: RoadNetwork, node_ids) -> bytes:
    """A region payload in the row format: a count, then one row per node."""
    node_ids = list(node_ids)
    writer = RecordWriter().varint(len(node_ids))
    for node_id in node_ids:
        writer.raw(encode_node_row(network, node_id))
    return writer.getvalue()


def decode_region_rows(data: bytes) -> Rows:
    """Parse a row-format payload into ``{node_id: (x, y, adjacency)}``.

    Bytes after the last record (page padding) are ignored.
    """
    view = memoryview(data)
    end = len(view)
    count, pos = decode_varint(view, 0)
    unpack_head = _NODE_HEAD.unpack_from
    unpack_adjacency = PAIR_UINT32_FLOAT32.iter_unpack
    nodes: Rows = {}
    for _ in range(count):
        if pos + 12 > end:
            raise StorageError("region payload truncated inside a node record")
        node_id, x, y = unpack_head(view, pos)
        pos += 12
        degree = view[pos] if pos < end else 0x80
        if degree < 0x80:
            pos += 1
        else:
            degree, pos = decode_varint(view, pos)
        stop = pos + 8 * degree
        if stop > end:
            raise StorageError("region payload truncated inside an adjacency list")
        nodes[node_id] = (x, y, list(unpack_adjacency(view[pos:stop])))
        pos = stop
    return nodes


def rows_of(columns: RegionColumns) -> Rows:
    """The row view of decoded columns, ``{node_id: (x, y, adjacency)}``.

    A node id that occurs twice keeps its first position and takes the
    later row, like repeated inserts into a dict (and like
    :func:`decode_region_rows`).
    """
    xy = columns.xy
    edges = zip(columns.neighbours, columns.weights)
    return {
        node_id: (xy[2 * i], xy[2 * i + 1], list(islice(edges, degree)))
        for i, (node_id, degree) in enumerate(zip(columns.ids, columns.degrees))
    }


def merge_region_payloads(payloads: Sequence[Rows]) -> RoadNetwork:
    """The client subgraph of decoded region rows.

    Edges pointing to nodes outside the retrieved regions are dropped, exactly
    as happens when the querying client runs Dijkstra on the data it fetched.
    """
    merged: Rows = {}
    for payload in payloads:
        merged.update(payload)
    subgraph = RoadNetwork()
    for node_id, (x, y, _) in merged.items():
        subgraph.add_node(node_id, x, y)
    for node_id, (_, _, adjacency) in merged.items():
        for neighbor, weight in adjacency:
            if neighbor in merged:
                subgraph.add_edge(node_id, neighbor, weight)
    return subgraph


def subgraph_from_entry(entry: IndexEntry, region_payloads: Sequence[Rows]) -> RoadNetwork:
    """Region rows plus passage-subgraph edges.

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
        if not has_edge(graph, source, target):
            graph.add_edge(source, target, weight)
    return graph


def _rows(payload_groups: Sequence[Sequence[bytes]]) -> List[Rows]:
    return [rows_of(decode_region_payload(b"".join(pages))) for pages in payload_groups]


def reference_region_graph(payload_groups: Sequence[Sequence[bytes]]) -> RoadNetwork:
    """Dict-merge oracle for :func:`repro.schemes.assembly.assemble_region_csr`."""
    return merge_region_payloads(_rows(payload_groups))


def reference_passage_graph(
    payload_groups: Sequence[Sequence[bytes]],
    index_pages: Sequence[bytes],
    pair: Tuple[int, int],
    entry: Optional[IndexEntry] = None,
) -> RoadNetwork:
    """Dict-merge oracle for :func:`repro.schemes.assembly.assemble_passage_csr`."""
    if entry is None:
        entry = decode_index_entry(index_pages, pair)
    if entry is None or entry.edges is None:
        raise SchemeError("missing passage-subgraph entry for queried pair")
    return subgraph_from_entry(entry, _rows(payload_groups))
