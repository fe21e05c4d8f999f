"""Encoding of region data: the node records stored in the region data file ``Fd``.

The information kept for a node (Section 5.1) is its identifier, its Euclidean
coordinates and its adjacency list (adjacent node identifiers and the weights
of the corresponding edges).  A region's payload stores its nodes column by
column::

    varint n, ids[n] u32, xy[2n] f32, degree varint per node,
    neighbours[m] u32, weights[m] f32          (m = sum of the degrees)

so a client decodes a region with a few bounds-checked ``unpack_from`` calls
and searches the columns in place (:mod:`repro.schemes.assembly`).  A node
costs exactly the bytes of an ``id, x, y, degree, (neighbour, weight)*`` row,
so :func:`node_record_size` — which the partitioners pack pages by — is the
per-node share of a payload.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Tuple

from ..exceptions import StorageError
from ..network import NodeId, RoadNetwork
from ..storage import decode_varint, encode_varint


def node_record_size(network: RoadNetwork, node_id: NodeId) -> int:
    """Exact on-disk size of a node: id, x, y, its degree varint and its edges."""
    degree = network.out_degree(node_id)
    return 12 + len(encode_varint(degree)) + 8 * degree


def encode_region_payload(network: RoadNetwork, node_ids) -> bytes:
    """Serialize the full payload of a region in columns (see the module doc)."""
    node_ids = list(node_ids)
    xy: List[float] = []
    degrees = bytearray()
    neighbours: List[int] = []
    weights: List[float] = []
    for node_id in node_ids:
        node = network.node(node_id)
        xy += (node.x, node.y)
        adjacency = network.neighbors(node_id)
        degrees += encode_varint(len(adjacency))
        for neighbor, weight in adjacency:
            neighbours.append(neighbor)
            weights.append(weight)
    n, m = len(node_ids), len(neighbours)
    return b"".join(
        (
            encode_varint(n),
            struct.pack(f"<{n}I{2 * n}f", *node_ids, *xy),
            degrees,
            struct.pack(f"<{m}I{m}f", *neighbours, *weights),
        )
    )


class RegionColumns(NamedTuple):
    """One decoded region payload, column by column.

    Node ``i`` is ``ids[i]`` at ``(xy[2i], xy[2i + 1])``.  Its out-edges are
    the ``degrees[i]`` entries of ``neighbours``/``weights`` that follow
    those of nodes ``0 .. i-1``.
    """

    ids: Tuple[int, ...]
    xy: Tuple[float, ...]
    degrees: Tuple[int, ...]
    neighbours: Tuple[int, ...]
    weights: Tuple[float, ...]


def decode_region_payload(data: bytes) -> RegionColumns:
    """Parse a region payload into its columns.

    Bytes after the last column (page padding) are ignored.  The count and
    the degrees almost always fit one varint byte each, so the count is read
    inline and the degree column as one slice when it is all ASCII; a
    continuation byte falls back to :func:`decode_varint`.  A count or a
    degree sum that runs past the end of the data raises
    :class:`StorageError` before anything is unpacked.
    """
    end = len(data)
    count = data[0] if end else 0x80
    if count < 0x80:
        pos = 1
    else:
        count, pos = decode_varint(data, 0)
    head_end = pos + 12 * count
    if head_end > end:
        raise StorageError(f"region payload of {end} bytes cannot hold {count} nodes")
    ids = struct.unpack_from(f"<{count}I", data, pos)
    xy = struct.unpack_from(f"<{2 * count}f", data, pos + 4 * count)
    pos = head_end
    degree_bytes = data[pos : pos + count]
    if len(degree_bytes) == count and degree_bytes.isascii():
        degrees = tuple(degree_bytes)
        pos += count
    else:
        slow: List[int] = []
        for _ in range(count):
            degree, pos = decode_varint(data, pos)
            slow.append(degree)
        degrees = tuple(slow)
    edge_count = sum(degrees)
    if pos + 8 * edge_count > end:
        raise StorageError("region payload truncated inside its adjacency columns")
    neighbours = struct.unpack_from(f"<{edge_count}I", data, pos)
    weights = struct.unpack_from(f"<{edge_count}f", data, pos + 4 * edge_count)
    return RegionColumns(ids, xy, degrees, neighbours, weights)
