"""Arc-flag pre-computation for the AF baseline (Section 4).

For every directed edge a bit vector with one bit per region is kept; the bit
for region ``j`` is set when the edge lies on some shortest path towards a
node of region ``j``.  Query processing for a destination in region ``j`` may
then ignore every edge whose ``j`` bit is unset.

The flags are computed exactly: an edge ``(u, v)`` is on a shortest path into
region ``j`` iff either ``v`` itself lies in ``j`` or
``w(u, v) + dist(v, b) = dist(u, b)`` for some border node ``b`` of ``j``
(distances measured in the reversed augmented network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..network import NodeId, RoadNetwork, dijkstra_tree
from ..partition import BorderNodeIndex, Partitioning, RegionId

DirectedEdge = Tuple[NodeId, NodeId]


@dataclass
class ArcFlagIndex:
    """Per-edge region bit vectors."""

    num_regions: int
    #: ``flags[(u, v)]`` is a set of region ids for which the edge may be useful.
    flags: Dict[DirectedEdge, frozenset]

    def is_useful(self, source: NodeId, target: NodeId, destination_region: RegionId) -> bool:
        flagged = self.flags.get((source, target))
        if flagged is None:
            return False
        return destination_region in flagged

    def bit_vector(self, source: NodeId, target: NodeId) -> bytes:
        """The packed bit vector stored with the edge in the region data file."""
        flagged = self.flags.get((source, target), frozenset())
        num_bytes = (self.num_regions + 7) // 8
        bits = bytearray(num_bytes)
        for region in flagged:
            bits[region // 8] |= 1 << (region % 8)
        return bytes(bits)

def build_arc_flags(
    network: RoadNetwork,
    partitioning: Partitioning,
    border_index: BorderNodeIndex,
) -> ArcFlagIndex:
    """Compute exact arc flags using backward searches from region border nodes."""
    reversed_augmented = border_index.augmented.reversed()
    flags: Dict[DirectedEdge, set] = {
        (edge.source, edge.target): set() for edge in network.edges()
    }

    # Rule 1: an edge whose head lies inside region j is always useful for j.
    for edge_key in flags:
        flags[edge_key].add(partitioning.region_of_node(edge_key[1]))

    # Rule 2: edges on shortest paths towards a border node of region j.
    epsilon = 1e-9
    for region_id, border_nodes in border_index.borders_of_region.items():
        for border in border_nodes:
            # distances measured towards the border node
            tree = dijkstra_tree(reversed_augmented, border)
            to_border = tree.distances
            for (source, target), regions in flags.items():
                if region_id in regions:
                    continue
                source_cost = to_border.get(source)
                target_cost = to_border.get(target)
                if source_cost is None or target_cost is None:
                    continue
                weight = network.edge_weight(source, target)
                if abs(weight + target_cost - source_cost) <= epsilon * max(1.0, source_cost):
                    regions.add(region_id)

    return ArcFlagIndex(
        partitioning.num_regions,
        {edge: frozenset(regions) for edge, regions in flags.items()},
    )
