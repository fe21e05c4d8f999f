"""Approximate passage subgraphs with bounded cost deviation.

The paper's conclusion names, as future work, "the development of approximate
schemes with bounded cost deviation from the actual shortest path".  This
module implements the pre-computation side of such a scheme.

For every ordered region pair ``(i, j)`` the exact Passage Index materialises
the union of all border-to-border shortest paths.  The approximate variant
materialises only a *subset* of those paths, chosen greedily so that for every
border pair ``(v, v')`` the selected subset still contains some ``v → v'``
path of cost at most ``(1 + ε) · d(v, v')``.  Because any client query from a
source in ``R_i`` to a destination in ``R_j`` crosses exactly one border pair,
the same ``(1 + ε)`` bound carries over to the full query: the subgraph the
client retrieves always contains a path whose cost is within ``(1 + ε)`` of
the true shortest path (Section 5.2's border-node argument, applied to the
detour instead of the exact border path).

Setting ``ε = 0`` degenerates to deduplicating border pairs whose exact paths
are already contained in previously selected ones, which loses nothing and
already shrinks the index; larger ``ε`` trades result quality for space.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..exceptions import PartitionError
from ..network import NodeId, RoadNetwork, dijkstra_tree
from ..partition import BorderNodeIndex, Partitioning, RegionId
from .border_products import BorderProducts, original_step_edges

RegionPair = Tuple[RegionId, RegionId]
DirectedEdge = Tuple[NodeId, NodeId]
#: One border-to-border candidate: (cost, source border, target border, augmented edges).
_Candidate = Tuple[float, NodeId, NodeId, Tuple[Tuple[NodeId, NodeId, float], ...]]


@dataclass
class SparsificationStats:
    """Aggregate statistics of one approximate pre-computation run."""

    epsilon: float
    pairs_total: int = 0
    pairs_selected: int = 0
    pairs_skipped: int = 0
    exact_edges: int = 0
    kept_edges: int = 0

@dataclass
class ApproximateProducts:
    """Approximate passage subgraphs plus the deviation bound they honour."""

    epsilon: float
    passage_subgraphs: Dict[RegionPair, FrozenSet[DirectedEdge]] = field(default_factory=dict)
    stats: SparsificationStats = None  # type: ignore[assignment]

    @property
    def deviation_bound(self) -> float:
        """Worst-case ratio of returned path cost over the true shortest-path cost."""
        return 1.0 + self.epsilon

    def passage_subgraph(self, i: RegionId, j: RegionId) -> FrozenSet[DirectedEdge]:
        return self.passage_subgraphs.get((i, j), frozenset())

    def as_border_products(self) -> BorderProducts:
        """Repackage as :class:`BorderProducts` so the PI builders accept it directly."""
        return BorderProducts(region_sets={}, passage_subgraphs=dict(self.passage_subgraphs))


def _bounded_reachable(
    adjacency: Dict[NodeId, List[Tuple[NodeId, float]]],
    source: NodeId,
    target: NodeId,
    budget: float,
) -> bool:
    """True when ``adjacency`` contains a ``source → target`` path of cost ≤ ``budget``."""
    if source == target:
        return True
    if source not in adjacency:
        return False
    distances: Dict[NodeId, float] = {source: 0.0}
    heap: List[Tuple[float, NodeId]] = [(0.0, source)]
    settled: Set[NodeId] = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        if dist > budget:
            return False
        if node == target:
            return True
        settled.add(node)
        for neighbor, weight in adjacency.get(node, ()):
            candidate = dist + weight
            if candidate <= budget and candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return False


def _candidate_paths(
    augmented: RoadNetwork,
    border_index: BorderNodeIndex,
) -> Dict[RegionPair, List[_Candidate]]:
    """Exact border-to-border paths grouped by ordered region pair."""
    candidates: Dict[RegionPair, List[_Candidate]] = {}
    all_borders = border_index.border_nodes()
    for source_border in all_borders:
        tree = dijkstra_tree(augmented, source_border, targets=all_borders)
        source_regions = border_index.regions_of_border[source_border]
        for destination_region, targets in border_index.borders_of_region.items():
            for target_border in targets:
                if target_border == source_border or not tree.has_path_to(target_border):
                    continue
                cost = tree.distance_to(target_border)
                nodes = tree.path_to(target_border).nodes
                edges = [
                    (parent, node, tree.distances[node] - tree.distances[parent])
                    for parent, node in zip(nodes, nodes[1:])
                ]
                candidate: _Candidate = (cost, source_border, target_border, tuple(edges))
                for source_region in source_regions:
                    key = (source_region, destination_region)
                    candidates.setdefault(key, []).append(candidate)
    return candidates


def compute_approximate_passage_subgraphs(
    network: RoadNetwork,
    partitioning: Partitioning,
    border_index: BorderNodeIndex,
    epsilon: float,
) -> ApproximateProducts:
    """Compute ``(1 + ε)``-approximate passage subgraphs for all region pairs.

    For each ordered region pair, border-to-border paths are considered in
    descending cost order; a path is materialised only when the already
    selected paths do not contain a detour within the ``(1 + ε)`` budget.
    """
    if epsilon < 0:
        raise PartitionError(f"epsilon must be non-negative, got {epsilon}")

    stats = SparsificationStats(epsilon=epsilon)
    products = ApproximateProducts(epsilon=epsilon, stats=stats)
    candidates = _candidate_paths(border_index.augmented, border_index)
    step_edges = original_step_edges(network, border_index)

    for region_i in partitioning.region_ids():
        for region_j in partitioning.region_ids():
            key = (region_i, region_j)
            pair_candidates = candidates.get(key, [])
            kept_edges: Set[DirectedEdge] = set()
            kept_augmented: Set[Tuple[NodeId, NodeId]] = set()
            adjacency: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
            exact_edges: Set[DirectedEdge] = set()

            for cost, source_border, target_border, edges in sorted(
                pair_candidates, key=lambda item: -item[0]
            ):
                stats.pairs_total += 1
                for parent, child, _ in edges:
                    original = step_edges[(parent, child)]
                    if original is not None:
                        exact_edges.add(original)
                budget = (1.0 + epsilon) * cost
                if _bounded_reachable(adjacency, source_border, target_border, budget):
                    stats.pairs_skipped += 1
                    continue
                stats.pairs_selected += 1
                for parent, child, weight in edges:
                    if (parent, child) not in kept_augmented:
                        kept_augmented.add((parent, child))
                        adjacency.setdefault(parent, []).append((child, weight))
                    original = step_edges[(parent, child)]
                    if original is not None:
                        kept_edges.add(original)

            products.passage_subgraphs[key] = frozenset(kept_edges)
            stats.kept_edges += len(kept_edges)
            stats.exact_edges += len(exact_edges)

    return products
