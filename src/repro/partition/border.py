"""Border nodes (Section 5.2).

Border nodes are the points where network edges cross region boundaries.  Any
path from a source inside region ``R`` to a destination outside ``R`` must
pass through one of ``R``'s border nodes, which is the property the
pre-computation of ``S_ij`` region sets and ``G_ij`` passage subgraphs relies
on.

Border nodes are materialised only inside an *augmented* copy of the network:
every edge whose endpoints lie in different regions is subdivided at its
boundary crossing, the two halves carrying the original weight split
proportionally.  Subdivision preserves all path costs, so shortest paths in
the augmented network map one-to-one onto shortest paths in the original one.
After pre-computation the border nodes are discarded (they are never stored in
any database file), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..network import NodeId, RoadNetwork
from .regions import Partitioning, RegionId


@dataclass
class BorderNodeIndex:
    """The augmented network plus the bookkeeping needed by pre-computation."""

    #: Copy of the network with border nodes inserted on inter-region edges.
    augmented: RoadNetwork
    #: Border node ids grouped by the regions they border.
    borders_of_region: Dict[RegionId, List[NodeId]]
    #: For each border node, the (ordered) pair of regions it separates.
    regions_of_border: Dict[NodeId, Tuple[RegionId, RegionId]]
    #: For each border node, the original undirected edge it subdivides.
    original_edge_of_border: Dict[NodeId, Tuple[NodeId, NodeId]]

    def is_border(self, node_id: NodeId) -> bool:
        return node_id in self.regions_of_border

    def border_nodes(self) -> List[NodeId]:
        return list(self.regions_of_border.keys())

def compute_border_nodes(network: RoadNetwork, partitioning: Partitioning) -> BorderNodeIndex:
    """Insert border nodes on every inter-region edge and index them by region.

    The crossing point is placed at the midpoint of the edge (the exact
    position along the segment does not affect any shortest-path cost because
    the two halves always sum to the original weight).
    """
    augmented = network.copy()
    next_id = network.max_node_id() + 1

    borders_of_region: Dict[RegionId, List[NodeId]] = {
        region_id: [] for region_id in partitioning.region_ids()
    }
    regions_of_border: Dict[NodeId, Tuple[RegionId, RegionId]] = {}
    original_edge_of_border: Dict[NodeId, Tuple[NodeId, NodeId]] = {}

    # Collect crossing edges as undirected pairs so that an edge present in
    # both directions is subdivided by a single border node.
    crossing: Dict[Tuple[NodeId, NodeId], List[Tuple[NodeId, NodeId, float]]] = {}
    for edge in network.edges():
        region_u = partitioning.region_of_node(edge.source)
        region_v = partitioning.region_of_node(edge.target)
        if region_u == region_v:
            continue
        key = (min(edge.source, edge.target), max(edge.source, edge.target))
        crossing.setdefault(key, []).append((edge.source, edge.target, edge.weight))

    # Rebuild the augmented network without the crossing edges, then add the
    # subdivided halves through the new border nodes.
    augmented = RoadNetwork()
    for node in network.nodes():
        augmented.add_node(node.node_id, node.x, node.y)
    crossing_directed: Set[Tuple[NodeId, NodeId]] = {
        (source, target)
        for directed_edges in crossing.values()
        for source, target, _ in directed_edges
    }
    for edge in network.edges():
        if (edge.source, edge.target) in crossing_directed:
            continue
        augmented.add_edge(edge.source, edge.target, edge.weight)

    for (node_a, node_b), directed_edges in sorted(crossing.items()):
        point_a = network.node(node_a)
        point_b = network.node(node_b)
        border_id = next_id
        next_id += 1
        augmented.add_node(border_id, (point_a.x + point_b.x) / 2.0, (point_a.y + point_b.y) / 2.0)
        region_a = partitioning.region_of_node(node_a)
        region_b = partitioning.region_of_node(node_b)
        regions_of_border[border_id] = (region_a, region_b)
        original_edge_of_border[border_id] = (node_a, node_b)
        borders_of_region[region_a].append(border_id)
        borders_of_region[region_b].append(border_id)
        for source, target, weight in directed_edges:
            augmented.add_edge(source, border_id, weight / 2.0)
            augmented.add_edge(border_id, target, weight / 2.0)

    return BorderNodeIndex(
        augmented=augmented,
        borders_of_region=borders_of_region,
        regions_of_border=regions_of_border,
        original_edge_of_border=original_edge_of_border,
    )
