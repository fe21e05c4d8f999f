"""The dict-based search primitives, kept as the oracles of the CSR fast path.

``repro.network``'s Dijkstra and A* compile the network into a
:class:`~repro.network.indexed.CsrGraph` and run on dense integer ids.  These
are the original implementations over ``RoadNetwork.neighbors``; the
property tests (``tests/properties/test_property_fastpath.py``) assert that
the fast path returns identical costs and search statistics, and
``benchmarks/bench_micro_fastpath.py`` times them as its seed baseline.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import NoPathError
from repro.network import NodeId, Path, RoadNetwork, SearchStats, ShortestPathTree
from repro.network.astar import Heuristic


def euclidean_heuristic(network: RoadNetwork, target: NodeId) -> Heuristic:
    """Euclidean-distance lower bound to ``target``.

    Admissible whenever edge weights are at least the Euclidean length of the
    edge, which holds for the generators in this package.
    """
    target_node = network.node(target)

    def heuristic(node_id: NodeId) -> float:
        node = network.node(node_id)
        return math.hypot(node.x - target_node.x, node.y - target_node.y)

    return heuristic


def zero_heuristic(_: NodeId) -> float:
    """Degenerates A* into Dijkstra."""
    return 0.0


def reference_dijkstra_tree(
    network: RoadNetwork,
    source: NodeId,
    targets: Optional[Iterable[NodeId]] = None,
    stats: Optional[SearchStats] = None,
) -> ShortestPathTree:
    """The original dict-based Dijkstra, preserved verbatim as the oracle."""
    network.node(source)  # validates the source exists
    remaining = set(targets) if targets is not None else None
    distances: Dict[NodeId, float] = {source: 0.0}
    parents: Dict[NodeId, Optional[NodeId]] = {source: None}
    settled: set = set()
    heap: List[Tuple[float, NodeId]] = [(0.0, source)]

    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if stats is not None:
            stats.settled_nodes += 1
            stats.visited_nodes.append(node)
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor, weight in network.neighbors(node):
            if neighbor in settled:
                continue
            candidate = dist + weight
            if candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
                if stats is not None:
                    stats.relaxed_edges += 1

    return ShortestPathTree(source, distances, parents)


def reference_shortest_path(
    network: RoadNetwork,
    source: NodeId,
    target: NodeId,
    stats: Optional[SearchStats] = None,
) -> Path:
    """Point-to-point shortest path via the reference Dijkstra."""
    if source == target:
        network.node(source)
        return Path((source,), 0.0)
    tree = reference_dijkstra_tree(network, source, targets=[target], stats=stats)
    if not tree.has_path_to(target):
        raise NoPathError(source, target)
    return tree.path_to(target)


def reference_astar_search(
    network: RoadNetwork,
    source: NodeId,
    target: NodeId,
    heuristic: Optional[Heuristic] = None,
    stats: Optional[SearchStats] = None,
    on_settle: Optional[Callable[[NodeId], None]] = None,
) -> Path:
    """The original dict-based A*, preserved as the oracle for property tests."""
    network.node(source)
    network.node(target)
    if heuristic is None:
        if getattr(network, "heuristic_safe", True):
            heuristic = euclidean_heuristic(network, target)
        else:
            heuristic = zero_heuristic  # placeholder coordinates: Euclidean is inadmissible
    if source == target:
        if on_settle is not None:
            on_settle(source)
        return Path((source,), 0.0)

    g_score: Dict[NodeId, float] = {source: 0.0}
    parents: Dict[NodeId, Optional[NodeId]] = {source: None}
    settled: set = set()
    heap: List[Tuple[float, NodeId]] = [(heuristic(source), source)]

    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if stats is not None:
            stats.settled_nodes += 1
            stats.visited_nodes.append(node)
        if on_settle is not None:
            on_settle(node)
        if node == target:
            nodes: List[NodeId] = [target]
            current = target
            while parents[current] is not None:
                current = parents[current]
                nodes.append(current)
            nodes.reverse()
            return Path(tuple(nodes), g_score[target])
        node_cost = g_score[node]
        for neighbor, weight in network.neighbors(node):
            if neighbor in settled:
                continue
            candidate = node_cost + weight
            if candidate < g_score.get(neighbor, math.inf):
                g_score[neighbor] = candidate
                parents[neighbor] = node
                heapq.heappush(heap, (candidate + heuristic(neighbor), neighbor))
                if stats is not None:
                    stats.relaxed_edges += 1

    raise NoPathError(source, target)
