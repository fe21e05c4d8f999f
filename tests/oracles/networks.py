"""Test networks and the structural checks only tests run on them.

``grid_network`` builds the small jittered grids many tests use as fixtures
(the product's generators are the planar and streaming ones in
:mod:`repro.network.generators`).  The checks below assert structure that
the build never needs to ask about: edge membership, connectivity, the
bounding box, and agreement of a partitioning's split tree with its node
assignment.
"""

from __future__ import annotations

from typing import Tuple

from repro.exceptions import GraphError, PartitionError
from repro.network import NodeId, RoadNetwork
from repro.network.generators import _default_rng
from repro.partition.regions import Partitioning


def grid_network(
    rows: int,
    cols: int,
    spacing: float = 1.0,
    jitter: float = 0.2,
    seed: int = 0,
) -> RoadNetwork:
    """A rows x cols grid with jittered coordinates; weights are Euclidean lengths."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    rng = _default_rng(seed)
    network = RoadNetwork()
    for row in range(rows):
        for col in range(cols):
            node_id = row * cols + col
            x = col * spacing + rng.uniform(-jitter, jitter) * spacing
            y = row * spacing + rng.uniform(-jitter, jitter) * spacing
            network.add_node(node_id, x, y)

    for row in range(rows):
        for col in range(cols):
            node_id = row * cols + col
            neighbours = []
            if col + 1 < cols:
                neighbours.append(node_id + 1)
            if row + 1 < rows:
                neighbours.append(node_id + cols)
            for other in neighbours:
                weight = network.euclidean_distance(node_id, other)
                network.add_undirected_edge(node_id, other, max(weight, 1e-9))
    return network


def has_edge(network: RoadNetwork, source: NodeId, target: NodeId) -> bool:
    return any(neighbor == target for neighbor, _ in network.neighbors(source))


def is_connected(network: RoadNetwork) -> bool:
    """True when every node is reachable from an arbitrary start node.

    The generators produce symmetric edges, so simple reachability is an
    adequate connectivity check for them.
    """
    node_ids = list(network.node_ids())
    if not node_ids:
        return True
    seen = {node_ids[0]}
    stack = [node_ids[0]]
    while stack:
        current = stack.pop()
        for neighbor, _ in network.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == len(node_ids)


def bounding_box(network: RoadNetwork) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of the node coordinates."""
    xs = [node.x for node in network.nodes()]
    ys = [node.y for node in network.nodes()]
    return min(xs), min(ys), max(xs), max(ys)


def validate_partitioning(partitioning: Partitioning) -> None:
    """Raise unless the split tree maps every node to the region that stores it."""
    for region in partitioning.regions():
        for node_id in region.node_ids:
            node = partitioning.network.node(node_id)
            mapped = partitioning.region_of_point(node.x, node.y)
            if mapped != region.region_id:
                raise PartitionError(
                    f"node {node_id} is stored in region {region.region_id} but the "
                    f"split tree maps its coordinates to region {mapped}"
                )
