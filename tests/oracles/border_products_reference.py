"""Reference border-product pre-computation, kept as a test oracle.

``compute_border_products``, ``_collect_paths`` and ``_original_directed_edge``
below are verbatim copies of the straightforward implementation that
:mod:`repro.precompute.border_products` replaced with a per-tree memo and an
edge-set lookup.  They walk parent pointers once per (source border,
destination region) pair and test edge membership with ``has_edge``; the fast
path must produce exactly the same region sets and passage subgraphs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from networks import has_edge
from repro.network import NodeId, RoadNetwork, dijkstra_tree
from repro.partition import BorderNodeIndex, Partitioning, RegionId
from repro.precompute.border_products import BorderProducts

RegionPair = Tuple[RegionId, RegionId]
DirectedEdge = Tuple[NodeId, NodeId]


def compute_border_products(
    network: RoadNetwork,
    partitioning: Partitioning,
    border_index: BorderNodeIndex,
    want_region_sets: bool = True,
    want_subgraphs: bool = False,
    subgraph_pairs: Optional[Iterable[RegionPair]] = None,
) -> BorderProducts:
    """Compute ``S_ij`` and/or ``G_ij`` for all ordered region pairs.

    ``subgraph_pairs`` optionally restricts the pairs for which passage
    subgraphs are materialised (HY only needs them for the region sets it
    replaces); ``None`` means all pairs.
    """
    products = BorderProducts()
    if not want_region_sets and not want_subgraphs:
        return products

    restricted: Optional[Set[RegionPair]] = None
    if want_subgraphs and subgraph_pairs is not None:
        restricted = set(subgraph_pairs)

    region_sets: Dict[RegionPair, Set[RegionId]] = {}
    subgraphs: Dict[RegionPair, Set[DirectedEdge]] = {}
    augmented = border_index.augmented
    borders_by_region = border_index.borders_of_region

    for source_border in border_index.border_nodes():
        tree = dijkstra_tree(augmented, source_border)
        source_regions = border_index.regions_of_border[source_border]
        for destination_region, targets in borders_by_region.items():
            wants_edges_here = want_subgraphs and (
                restricted is None
                or any((i, destination_region) in restricted for i in source_regions)
            )
            if not want_region_sets and not wants_edges_here:
                continue
            regions_on_paths, edges_on_paths = _collect_paths(
                network,
                partitioning,
                border_index,
                tree,
                source_border,
                targets,
                collect_edges=wants_edges_here,
            )
            for source_region in source_regions:
                key = (source_region, destination_region)
                if want_region_sets:
                    bucket = region_sets.setdefault(key, set())
                    bucket.update(
                        region
                        for region in regions_on_paths
                        if region != source_region and region != destination_region
                    )
                if wants_edges_here and (restricted is None or key in restricted):
                    subgraphs.setdefault(key, set()).update(edges_on_paths)

    if want_region_sets:
        for region_i in partitioning.region_ids():
            for region_j in partitioning.region_ids():
                key = (region_i, region_j)
                products.region_sets[key] = frozenset(region_sets.get(key, set()))
    if want_subgraphs:
        keys = restricted if restricted is not None else [
            (i, j) for i in partitioning.region_ids() for j in partitioning.region_ids()
        ]
        for key in keys:
            products.passage_subgraphs[key] = frozenset(subgraphs.get(key, set()))
    return products


def _collect_paths(
    network: RoadNetwork,
    partitioning: Partitioning,
    border_index: BorderNodeIndex,
    tree,
    source_border: NodeId,
    targets,
    collect_edges: bool,
) -> Tuple[Set[RegionId], Set[DirectedEdge]]:
    """Union of regions/edges over the tree paths from the source border to ``targets``."""
    visited: Set[NodeId] = set()
    regions_on_paths: Set[RegionId] = set()
    edges_on_paths: Set[DirectedEdge] = set()

    for target in targets:
        if target == source_border or not tree.has_path_to(target):
            continue
        node = target
        while node not in visited:
            visited.add(node)
            if not border_index.is_border(node):
                regions_on_paths.add(partitioning.region_of_node(node))
            parent = tree.parents.get(node)
            if parent is None:
                break
            if collect_edges:
                edge = _original_directed_edge(network, border_index, parent, node)
                if edge is not None:
                    edges_on_paths.add(edge)
            node = parent

    return regions_on_paths, edges_on_paths


def _original_directed_edge(
    network: RoadNetwork,
    border_index: BorderNodeIndex,
    parent: NodeId,
    child: NodeId,
) -> Optional[DirectedEdge]:
    """Map one augmented-graph step ``parent -> child`` to an original directed edge."""
    parent_is_border = border_index.is_border(parent)
    child_is_border = border_index.is_border(child)
    if not parent_is_border and not child_is_border:
        return (parent, child)
    if parent_is_border and not child_is_border:
        endpoint_a, endpoint_b = border_index.original_edge_of_border[parent]
        other = endpoint_a if child == endpoint_b else endpoint_b
        return (other, child) if has_edge(network, other, child) else None
    if child_is_border and not parent_is_border:
        endpoint_a, endpoint_b = border_index.original_edge_of_border[child]
        other = endpoint_b if parent == endpoint_a else endpoint_a
        return (parent, other) if has_edge(network, parent, other) else None
    # two consecutive border nodes cannot be adjacent in the augmented network
    return None
