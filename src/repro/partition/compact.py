"""Compact (compressed) region-payload codec — future-work ablation.

The standard region-data records (:mod:`repro.partition.regiondata`) spend on
one node ``uint32 id, float32 x, float32 y, varint degree, (uint32 neighbour,
float32 weight)*``, stored column by column.  This module provides an
alternative codec exploiting the structure of road-network data, as suggested
by the paper's conclusion:

* node and neighbour identifiers are delta + zig-zag + varint encoded — the
  KD-tree assigns spatially clustered identifiers, so deltas are small;
* coordinates are quantised onto a 16-bit grid spanning the region's bounding
  box (a fraction of a metre of error on city-scale extents);
* edge weights are quantised onto a configurable resolution grid and
  varint encoded.

The codec is intentionally *not* wired into the scheme builders — it exists to
quantify, in the ablation benchmark, how much smaller the region data file
``Fd`` (and therefore its PIR retrieval cost) could become.  Coordinate and
weight quantisation make it lossy but with a bounded, configurable error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..exceptions import StorageError
from ..network import NodeId, RoadNetwork
from ..storage.compression import (
    decode_uint_sequence,
    decode_varint,
    delta_decode_ids,
    delta_encode_ids,
    encode_uint_sequence,
    encode_varint,
    quantize_weights,
)
from .regiondata import encode_region_payload

#: Number of grid cells per axis used for coordinate quantisation.
_COORD_GRID = 65535


@dataclass(frozen=True)
class CompactCodecConfig:
    """Tuning knobs of the compact codec."""

    #: Edge-weight quantisation step (absolute units of the weight).
    weight_resolution: float = 1e-3

    def __post_init__(self) -> None:
        if self.weight_resolution <= 0:
            raise StorageError("weight_resolution must be positive")


def _pack_floats(value: float, low: float, span: float) -> int:
    if span <= 0:
        return 0
    ratio = (value - low) / span
    ratio = min(max(ratio, 0.0), 1.0)
    return int(round(ratio * _COORD_GRID))


def _unpack_float(tick: int, low: float, span: float) -> float:
    if span <= 0:
        return low
    return low + (tick / _COORD_GRID) * span


def encode_region_payload_compact(
    network: RoadNetwork,
    node_ids: Iterable[NodeId],
    config: CompactCodecConfig = CompactCodecConfig(),
) -> bytes:
    """Serialize a region's nodes with the compact codec."""
    node_ids = sorted(node_ids)
    xs = [network.node(node_id).x for node_id in node_ids] or [0.0]
    ys = [network.node(node_id).y for node_id in node_ids] or [0.0]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x, span_y = max_x - min_x, max_y - min_y

    out = bytearray()
    # region bounding box (4 x 8-byte doubles are a negligible fixed overhead)
    import struct

    out.extend(struct.pack("<4d", min_x, min_y, span_x, span_y))
    out.extend(encode_varint(int(round(1.0 / config.weight_resolution))))
    out.extend(delta_encode_ids(node_ids))

    coord_ticks: List[int] = []
    for node_id in node_ids:
        node = network.node(node_id)
        coord_ticks.append(_pack_floats(node.x, min_x, span_x))
        coord_ticks.append(_pack_floats(node.y, min_y, span_y))
    out.extend(encode_uint_sequence(coord_ticks))

    for node_id in node_ids:
        neighbors = network.neighbors(node_id)
        neighbor_ids = [neighbor for neighbor, _ in neighbors]
        weights = [weight for _, weight in neighbors]
        ticks, _ = quantize_weights(weights, config.weight_resolution)
        # neighbours are stored as deltas from the owning node id
        out.extend(delta_encode_ids([node_id - neighbor for neighbor in neighbor_ids]))
        out.extend(encode_uint_sequence(ticks))
    return bytes(out)


def decode_region_payload_compact(
    data: bytes,
) -> Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]]:
    """Inverse of :func:`encode_region_payload_compact`.

    Returns the same ``{node_id: (x, y, adjacency)}`` mapping as the row
    view of :func:`repro.partition.regiondata.decode_region_payload`, up to
    the quantisation error of coordinates and weights.
    """
    import struct

    if len(data) < 32:
        raise StorageError("compact region payload too short")
    min_x, min_y, span_x, span_y = struct.unpack_from("<4d", data, 0)
    offset = 32
    inverse_resolution, offset = decode_varint(data, offset)
    if inverse_resolution == 0:
        raise StorageError("corrupt compact payload: zero coordinate resolution")
    resolution = 1.0 / inverse_resolution
    node_ids, offset = delta_decode_ids(data, offset)
    coord_ticks, offset = decode_uint_sequence(data, offset)
    if len(coord_ticks) != 2 * len(node_ids):
        raise StorageError("corrupt compact payload: coordinate count mismatch")

    payload: Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]] = {}
    adjacency_blocks: List[List[Tuple[NodeId, float]]] = []
    for position, node_id in enumerate(node_ids):
        deltas, offset = delta_decode_ids(data, offset)
        ticks, offset = decode_uint_sequence(data, offset)
        if len(deltas) != len(ticks):
            raise StorageError("corrupt compact payload: adjacency count mismatch")
        adjacency = [
            (node_id - delta, tick * resolution) for delta, tick in zip(deltas, ticks)
        ]
        adjacency_blocks.append(adjacency)
    for position, node_id in enumerate(node_ids):
        x = _unpack_float(coord_ticks[2 * position], min_x, span_x)
        y = _unpack_float(coord_ticks[2 * position + 1], min_y, span_y)
        payload[node_id] = (x, y, adjacency_blocks[position])
    return payload


@dataclass
class RegionCompressionReport:
    """Size comparison of the standard versus the compact region codec."""

    num_regions: int
    standard_bytes: int
    compact_bytes: int
    standard_pages: int
    compact_pages: int

    @property
    def byte_ratio(self) -> float:
        if self.standard_bytes == 0:
            return 1.0
        return self.compact_bytes / self.standard_bytes

    @property
    def page_ratio(self) -> float:
        if self.standard_pages == 0:
            return 1.0
        return self.compact_pages / self.standard_pages


def compare_region_codecs(
    network: RoadNetwork,
    partitioning,
    page_size: int,
    config: CompactCodecConfig = CompactCodecConfig(),
) -> RegionCompressionReport:
    """Measure how much smaller ``Fd`` would be under the compact codec.

    Page counts assume the CI/PI layout of one (or more) whole pages per
    region, i.e. each region occupies ``ceil(payload / page_size)`` pages.
    """
    if page_size <= 0:
        raise StorageError("page size must be positive")
    standard_bytes = 0
    compact_bytes = 0
    standard_pages = 0
    compact_pages = 0
    for region in partitioning.regions():
        node_ids = list(region.node_ids)
        standard = encode_region_payload(network, node_ids)
        compact = encode_region_payload_compact(network, node_ids, config)
        standard_bytes += len(standard)
        compact_bytes += len(compact)
        standard_pages += max(1, -(-len(standard) // page_size))
        compact_pages += max(1, -(-len(compact) // page_size))
    return RegionCompressionReport(
        num_regions=partitioning.num_regions,
        standard_bytes=standard_bytes,
        compact_bytes=compact_bytes,
        standard_pages=standard_pages,
        compact_pages=compact_pages,
    )
