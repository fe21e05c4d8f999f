"""Network partitioning: KD-tree regions, packed partitioning and border nodes."""

from .border import BorderNodeIndex, compute_border_nodes
from .compact import (
    CompactCodecConfig,
    RegionCompressionReport,
    compare_region_codecs,
    decode_region_payload_compact,
    encode_region_payload_compact,
)
from .kdtree import plain_kdtree_partition
from .packed import packed_kdtree_partition
from .regiondata import (
    RegionColumns,
    decode_region_payload,
    encode_region_payload,
    node_record_size,
)
from .regions import LeafNode, Partitioning, Region, RegionId, SplitNode

__all__ = [
    "BorderNodeIndex",
    "CompactCodecConfig",
    "LeafNode",
    "Partitioning",
    "Region",
    "RegionColumns",
    "RegionCompressionReport",
    "RegionId",
    "SplitNode",
    "compare_region_codecs",
    "compute_border_nodes",
    "decode_region_payload",
    "decode_region_payload_compact",
    "encode_region_payload_compact",
    "encode_region_payload",
    "node_record_size",
    "packed_kdtree_partition",
    "plain_kdtree_partition",
]
