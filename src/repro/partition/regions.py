"""Regions and partitionings of the road network.

A *partitioning* assigns every network node to exactly one region (a leaf of a
KD-tree over the Euclidean plane, Section 5.1).  Clients map their query
source and destination to regions using only Euclidean coordinates and the
split tree shipped in the header file, never node or region identifiers —
exactly as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exceptions import PartitionError
from ..network import NodeId, RoadNetwork

RegionId = int


@dataclass(frozen=True)
class Region:
    """One region of the partitioning: a KD-tree leaf and the nodes inside it."""

    region_id: RegionId
    node_ids: Tuple[NodeId, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class SplitNode:
    """Internal KD-tree node: values strictly below ``value`` on ``axis`` go left."""

    axis: int          # 0 = x, 1 = y
    value: float
    left: "TreeNode"
    right: "TreeNode"


@dataclass(frozen=True)
class LeafNode:
    """KD-tree leaf referencing a region."""

    region_id: RegionId


TreeNode = Union[SplitNode, LeafNode]


class Partitioning:
    """A complete partitioning: regions, node assignment and the split tree."""

    def __init__(self, network: RoadNetwork, regions: Sequence[Region], tree: TreeNode) -> None:
        self.network = network
        self._regions: List[Region] = list(regions)
        self.tree = tree
        self._node_to_region: Dict[NodeId, RegionId] = {}
        for region in self._regions:
            for node_id in region.node_ids:
                if node_id in self._node_to_region:
                    raise PartitionError(f"node {node_id} assigned to two regions")
                self._node_to_region[node_id] = region.region_id
        missing = set(network.node_ids()) - set(self._node_to_region)
        if missing:
            raise PartitionError(f"{len(missing)} nodes are not assigned to any region")

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_regions(self) -> int:
        return len(self._regions)

    def regions(self) -> Iterator[Region]:
        return iter(self._regions)

    def region(self, region_id: RegionId) -> Region:
        if region_id < 0 or region_id >= len(self._regions):
            raise PartitionError(f"unknown region {region_id}")
        return self._regions[region_id]

    def region_ids(self) -> Iterator[RegionId]:
        return iter(range(len(self._regions)))

    def region_of_node(self, node_id: NodeId) -> RegionId:
        try:
            return self._node_to_region[node_id]
        except KeyError:
            raise PartitionError(f"node {node_id} is not part of the partitioning") from None

    def region_of_point(self, x: float, y: float) -> RegionId:
        """Map a Euclidean point to its containing region by descending the tree."""
        node = self.tree
        while isinstance(node, SplitNode):
            coordinate = x if node.axis == 0 else y
            node = node.left if coordinate < node.value else node.right
        return node.region_id

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def tree_splits(self) -> List[Tuple[int, int, float, int, int]]:
        """Flatten the tree to a list of records for header serialization.

        Each entry is ``(node_index, axis, value, left_index, right_index)``
        for internal nodes; leaves are encoded with ``axis = 2`` and the region
        id stored in ``left_index``.
        """
        records: List[Tuple[int, int, float, int, int]] = []

        def visit(node: TreeNode) -> int:
            index = len(records)
            records.append((index, 0, 0.0, 0, 0))  # placeholder
            if isinstance(node, LeafNode):
                records[index] = (index, 2, 0.0, node.region_id, 0)
            else:
                left_index = visit(node.left)
                right_index = visit(node.right)
                records[index] = (index, node.axis, node.value, left_index, right_index)
            return index

        visit(self.tree)
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partitioning(regions={self.num_regions})"
