"""Reference client decoders, kept as test oracles.

``decode_region_payload``, ``decode_header`` and ``region_of_point``
(``split_tree`` plus ``descend``) below are copies of the field-by-field
implementations that
:mod:`repro.partition.regiondata` and :mod:`repro.schemes.files` replaced
with flat-struct decoders and a walk over the flat split table.  They read
every field through :class:`~repro.storage.RecordReader` and route a point
by rebuilding the split tree (:func:`tree_from_splits`) and descending
it.  ``decode_header`` is ``HeaderInfo.decode`` without the
decode-cache probe.  The fast decoders must return exactly the same objects
(``decode_region_payload`` reads the row format of
``region_rows_reference``; the fast decoder's row view of the same nodes in
columns must equal it).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.exceptions import PartitionError, StorageError
from repro.network import NodeId
from repro.partition.regions import LeafNode, SplitNode, TreeNode
from repro.schemes.files import HeaderInfo
from repro.schemes.plan import QueryPlan
from repro.storage import RecordReader
from repro.storage.record import PAIR_UINT32_FLOAT32


def decode_region_payload(data: bytes) -> Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]]:
    """Parse a region payload back into ``{node_id: (x, y, adjacency)}``."""
    reader = RecordReader(data)
    count = reader.varint()
    nodes: Dict[NodeId, Tuple[float, float, List[Tuple[NodeId, float]]]] = {}
    for _ in range(count):
        node_id = reader.uint32()
        x = reader.float32()
        y = reader.float32()
        degree = reader.varint()
        adjacency_bytes = reader.raw(PAIR_UINT32_FLOAT32.size * degree)
        adjacency = list(PAIR_UINT32_FLOAT32.iter_unpack(adjacency_bytes))
        nodes[node_id] = (x, y, adjacency)
    return nodes


def decode_header(data: bytes) -> HeaderInfo:
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
    return HeaderInfo(
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


def region_of_point(header: HeaderInfo, x: float, y: float) -> int:
    """Map Euclidean coordinates to a region id using the shipped split tree."""
    return descend(split_tree(header), x, y)


def tree_from_splits(records: Sequence[Tuple[int, int, float, int, int]]) -> TreeNode:
    """Rebuild the split tree from :meth:`Partitioning.tree_splits` records."""
    if not records:
        raise PartitionError("empty split-tree description")

    def build(index: int) -> TreeNode:
        _, axis, value, left, right = records[index]
        if axis == 2:
            return LeafNode(left)
        return SplitNode(axis, value, build(left), build(right))

    return build(0)


def split_tree(header: HeaderInfo) -> TreeNode:
    """The header's split tree, rebuilt once (many points can then descend it)."""
    return tree_from_splits(header.tree_splits)


def descend(tree: TreeNode, x: float, y: float) -> int:
    node = tree
    while isinstance(node, SplitNode):
        coordinate = x if node.axis == 0 else y
        node = node.left if coordinate < node.value else node.right
    if not isinstance(node, LeafNode):
        raise StorageError("malformed split tree in the header")
    return node.region_id
