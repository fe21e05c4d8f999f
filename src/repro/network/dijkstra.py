"""Dijkstra's algorithm and single-source shortest-path trees.

These are the plain, unsecured search primitives (reference [7] in the paper).
They are used (i) by the querying client on the retrieved subgraph, (ii) by the
pre-computation that builds ``S_ij`` region sets and ``G_ij`` passage
subgraphs, and (iii) by the OBF baseline server.

The public functions are thin compatibility wrappers over the array-backed
fast path in :mod:`repro.network.indexed`: the network is compiled once into a
:class:`~repro.network.indexed.CsrGraph` (cached on the network object) and
all heap work runs on dense integer ids and flat lists.  The original
dict-based implementations are the oracles in ``tests/oracles``; the property
tests assert that the fast path returns identical costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import NoPathError
from .graph import NodeId, RoadNetwork
from .indexed import (
    SCIPY_MIN_NODES as _SCIPY_MIN_NODES,
    csr_for,
    dijkstra_arrays,
    scipy_dijkstra_arrays,
)
from .paths import Path, SearchStats


@dataclass
class ShortestPathTree:
    """Result of a single-source Dijkstra run.

    ``distances`` maps every reached node to its shortest-path cost from the
    source; ``parents`` maps every reached node (except the source) to its
    predecessor on a shortest path.
    """

    source: NodeId
    distances: Dict[NodeId, float]
    parents: Dict[NodeId, Optional[NodeId]]

    def distance_to(self, target: NodeId) -> float:
        try:
            return self.distances[target]
        except KeyError:
            raise NoPathError(self.source, target) from None

    def has_path_to(self, target: NodeId) -> bool:
        return target in self.distances

    def path_to(self, target: NodeId) -> Path:
        """Reconstruct the shortest path from the source to ``target``."""
        if target not in self.distances:
            raise NoPathError(self.source, target)
        nodes: List[NodeId] = [target]
        current = target
        while current != self.source:
            current = self.parents[current]
            nodes.append(current)
        nodes.reverse()
        return Path(tuple(nodes), self.distances[target])


def dijkstra_tree(
    network: RoadNetwork,
    source: NodeId,
    targets: Optional[Iterable[NodeId]] = None,
    stats: Optional[SearchStats] = None,
) -> ShortestPathTree:
    """Run Dijkstra from ``source``.

    When ``targets`` is given, the search stops as soon as all targets are
    settled (useful during pre-computation when only border nodes matter).
    Every target id must exist in the network — an unknown id raises
    :class:`~repro.exceptions.GraphError` immediately instead of silently
    degrading into a full-graph scan that can never settle it.  Targets that
    exist but are unreachable still bound the search only by graph
    exhaustion, exactly like the reference implementation.
    """
    csr = csr_for(network)
    dense_source = csr.dense_id(source)
    target_set = None
    if targets is not None:
        target_set = {csr.dense_id(target) for target in targets}

    # The SciPy C core computes the full tree; use it whenever statistics
    # (which require observing the settle order) are not requested and the
    # graph is large enough for the call overhead to pay off.  With targets
    # and SciPy this returns a superset of the early-terminated tree, which
    # callers treat identically.
    if (
        stats is not None
        or csr.num_nodes < _SCIPY_MIN_NODES
        or (target_set is not None and not target_set)
    ):
        arrays = None
    else:
        arrays = scipy_dijkstra_arrays(csr, dense_source)
    node_ids = csr.node_ids
    distances: Dict[NodeId, float] = {}
    parents: Dict[NodeId, Optional[NodeId]] = {}
    if arrays is not None:
        dist, predecessors = arrays
        reached = (dist != math.inf).nonzero()[0]
        reached_list = reached.tolist()
        dist_compact = dist[reached].tolist()
        pred_compact = predecessors[reached].tolist()
        if csr.identity_ids:
            distances = dict(zip(reached_list, dist_compact))
            parents = {
                original: (pred if pred >= 0 else None)
                for original, pred in zip(reached_list, pred_compact)
            }
        else:
            reached_ids = [node_ids[dense] for dense in reached_list]
            distances = dict(zip(reached_ids, dist_compact))
            parents = {
                original: (node_ids[pred] if pred >= 0 else None)
                for original, pred in zip(reached_ids, pred_compact)
            }
        return ShortestPathTree(source, distances, parents)

    dist, parent, touched = dijkstra_arrays(csr, dense_source, target_set, stats)
    for dense in touched:
        original = node_ids[dense]
        distances[original] = dist[dense]
        dense_parent = parent[dense]
        parents[original] = node_ids[dense_parent] if dense_parent >= 0 else None
    return ShortestPathTree(source, distances, parents)


def shortest_path(
    network: RoadNetwork,
    source: NodeId,
    target: NodeId,
    stats: Optional[SearchStats] = None,
) -> Path:
    """Point-to-point shortest path via Dijkstra (early termination at target)."""
    if source == target:
        network.node(source)
        return Path((source,), 0.0)
    csr = csr_for(network)
    dense_source = csr.dense_id(source)
    dense_target = csr.dense_id(target)

    if stats is None and csr.num_nodes >= _SCIPY_MIN_NODES:
        arrays = scipy_dijkstra_arrays(csr, dense_source)
        if arrays is not None:
            dist, predecessors = arrays
            cost = dist[dense_target]
            if cost == math.inf:
                raise NoPathError(source, target)
            node_ids = csr.node_ids
            dense_nodes = [dense_target]
            current = dense_target
            while current != dense_source:
                current = int(predecessors[current])
                dense_nodes.append(current)
            dense_nodes.reverse()
            return Path(tuple(node_ids[dense] for dense in dense_nodes), float(cost))

    dist, parent, _ = dijkstra_arrays(csr, dense_source, {dense_target}, stats)
    if dist[dense_target] == math.inf:
        raise NoPathError(source, target)
    node_ids = csr.node_ids
    dense_nodes = [dense_target]
    current = dense_target
    while current != dense_source:
        current = parent[current]
        dense_nodes.append(current)
    dense_nodes.reverse()
    return Path(tuple(node_ids[dense] for dense in dense_nodes), dist[dense_target])


def shortest_path_cost(network: RoadNetwork, source: NodeId, target: NodeId) -> float:
    """Cost of the shortest path from ``source`` to ``target``."""
    return shortest_path(network, source, target).cost


def all_pairs_sample_costs(
    network: RoadNetwork, pairs: Iterable[Tuple[NodeId, NodeId]]
) -> Dict[Tuple[NodeId, NodeId], float]:
    """Shortest-path costs for a collection of (source, target) pairs.

    Sources are grouped so that each distinct source triggers a single
    Dijkstra run; with SciPy available, the whole batch of sources runs in
    one multi-source call of the C core and only the requested ``(source,
    target)`` entries are read out.  Raises :class:`NoPathError` for
    unreachable pairs, :class:`~repro.exceptions.GraphError` for unknown ids.
    """
    by_source: Dict[NodeId, List[NodeId]] = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    costs: Dict[Tuple[NodeId, NodeId], float] = {}
    if not by_source:
        return costs

    csr = csr_for(network)
    if csr.num_nodes >= _SCIPY_MIN_NODES:
        matrix = csr.scipy_csgraph()
        if matrix is not None:
            from .indexed import _scipy_modules

            _, _, scipy_dijkstra = _scipy_modules()
            sources = list(by_source)
            dense_sources = [csr.dense_id(source) for source in sources]
            dist = scipy_dijkstra(
                matrix, directed=True, indices=dense_sources, return_predecessors=False
            )
            for row, source in zip(dist, sources):
                for target in by_source[source]:
                    cost = row[csr.dense_id(target)]
                    if cost == math.inf:
                        raise NoPathError(source, target)
                    costs[(source, target)] = float(cost)
            return costs

    for source, targets in by_source.items():
        tree = dijkstra_tree(network, source, targets=targets)
        for target in targets:
            costs[(source, target)] = tree.distance_to(target)
    return costs
