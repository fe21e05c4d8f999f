"""Encoding of region data: the node records stored in the region data file ``Fd``.

The information kept for a node (Section 5.1) is its identifier, its Euclidean
coordinates and its adjacency list (adjacent node identifiers and the weights
of the corresponding edges).  Both the partitioners (which must know record
sizes to pack pages) and the ``Fd`` file builders (which write the records)
use the functions in this module, so sizes are consistent by construction.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from ..exceptions import StorageError
from ..network import NodeId, RoadNetwork
from ..storage import RecordWriter, decode_varint
from ..storage.record import PAIR_UINT32_FLOAT32

#: The fixed head of a node record: id, x, y.
_NODE_HEAD = struct.Struct("<Iff")


def encode_node_record(network: RoadNetwork, node_id: NodeId) -> bytes:
    """Serialize one node: id, coordinates and adjacency list."""
    node = network.node(node_id)
    writer = RecordWriter()
    writer.uint32(node.node_id)
    writer.float32(node.x)
    writer.float32(node.y)
    neighbors = network.neighbors(node_id)
    writer.varint(len(neighbors))
    for neighbor, weight in neighbors:
        writer.uint32(neighbor)
        writer.float32(weight)
    return writer.getvalue()


def node_record_size(network: RoadNetwork, node_id: NodeId) -> int:
    """Exact on-disk size of a node record."""
    return len(encode_node_record(network, node_id))


def encode_region_payload(network: RoadNetwork, node_ids) -> bytes:
    """Serialize the full payload of a region: a count followed by node records."""
    node_ids = list(node_ids)
    writer = RecordWriter()
    writer.varint(len(node_ids))
    for node_id in node_ids:
        writer.raw(encode_node_record(network, node_id))
    return writer.getvalue()


def decode_region_payload(data: bytes) -> Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]]:
    """Parse a region payload back into ``{node_id: (x, y, adjacency)}``.

    Bytes after the last record (page padding) are ignored.  Degrees almost
    always fit one varint byte, so that byte is read inline and only a
    continuation byte (>= 0x80) falls back to :func:`decode_varint`.
    """
    view = memoryview(data)
    end = len(view)
    count, pos = decode_varint(view, 0)
    unpack_head = _NODE_HEAD.unpack_from
    unpack_adjacency = PAIR_UINT32_FLOAT32.iter_unpack
    nodes: Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]] = {}
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


def merge_region_payloads(payloads) -> "RoadNetwork":
    """Assemble a client-side subgraph from decoded region payloads.

    Edges pointing to nodes outside the retrieved regions are dropped, exactly
    as happens when the querying client runs Dijkstra on the data it fetched.
    """
    from ..network import RoadNetwork  # local import to avoid a cycle at module load

    merged: Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]] = {}
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
