"""Border-to-border shortest-path pre-computation (Sections 5.2 and 6).

For every ordered pair of regions ``(i, j)`` the schemes need one of two
pre-computed products:

* ``S_ij`` — the set of *intermediate regions* crossed by at least one
  shortest path from a border node of ``R_i`` to a border node of ``R_j``
  (used by CI and by the region-set part of HY), and
* ``G_ij`` — the exact set of original directed edges appearing in at least
  one such shortest path (the *passage subgraph* used by PI, PI* and the
  subgraph part of HY).

Both are derived from the same single-source shortest-path trees rooted at
border nodes of the augmented network, so this module computes them in one
pass.  For every source border node one Dijkstra tree is built.  A per-tree
memo (:func:`_path_union`) keeps, for every node on a path, the regions and
the original edges of its tree path from the root as an integer bit mask; a
node's mask is its parent's plus the bit of one step.  Each tree is therefore
walked once, however many destination regions share a prefix, and the union
towards the border nodes of one destination region is an OR of memoised
masks.  Masks are turned back into sets once per region pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..network import NodeId, RoadNetwork, dijkstra_tree
from ..partition import BorderNodeIndex, Partitioning, RegionId

RegionPair = Tuple[RegionId, RegionId]
DirectedEdge = Tuple[NodeId, NodeId]


@dataclass
class BorderProducts:
    """Pre-computation output: region sets and/or passage subgraphs."""

    #: ``S_ij`` — intermediate regions, excluding ``i`` and ``j`` themselves.
    region_sets: Dict[RegionPair, FrozenSet[RegionId]] = field(default_factory=dict)
    #: ``G_ij`` — original directed edges on border-to-border shortest paths.
    passage_subgraphs: Dict[RegionPair, FrozenSet[DirectedEdge]] = field(default_factory=dict)

    def max_region_set_size(self) -> int:
        """The value ``m`` of Section 5.4: the largest ``|S_ij|``."""
        if not self.region_sets:
            return 0
        return max(len(regions) for regions in self.region_sets.values())

    def region_set(self, i: RegionId, j: RegionId) -> FrozenSet[RegionId]:
        return self.region_sets.get((i, j), frozenset())

    def passage_subgraph(self, i: RegionId, j: RegionId) -> FrozenSet[DirectedEdge]:
        return self.passage_subgraphs.get((i, j), frozenset())


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
    #: destination region -> the source regions whose subgraph is wanted
    edge_sources: Optional[Dict[RegionId, Set[RegionId]]] = None
    if want_subgraphs and subgraph_pairs is not None:
        restricted = set(subgraph_pairs)
        edge_sources = {}
        for source_region, destination_region in restricted:
            edge_sources.setdefault(destination_region, set()).add(source_region)

    # every step of the augmented network as one bit: the region it enters
    # (none for a border node) and the original edge it lies on (if any)
    region_ids = list(partitioning.region_ids())
    region_bit = {region: 1 << index for index, region in enumerate(region_ids)}
    step_regions = {
        step: 0 if step[1] in border_index.regions_of_border
        else region_bit[partitioning.region_of_node(step[1])]
        for step in map(_step, border_index.augmented.edges())
    }
    step_edges = original_step_edges(network, border_index)
    edge_ids = sorted({edge for edge in step_edges.values() if edge is not None})
    edge_bit = {edge: 1 << index for index, edge in enumerate(edge_ids)}
    step_edge_bits = {
        step: 0 if edge is None else edge_bit[edge] for step, edge in step_edges.items()
    }

    region_masks: Dict[RegionPair, int] = {}
    edge_masks: Dict[RegionPair, int] = {}
    for source_border in border_index.border_nodes():
        parents = dijkstra_tree(border_index.augmented, source_border).parents
        # per-tree memo: node -> mask of its tree path from the root
        region_paths = {source_border: 0}
        edge_paths = {source_border: 0}
        source_regions = border_index.regions_of_border[source_border]
        for destination_region, targets in border_index.borders_of_region.items():
            if not want_subgraphs:
                edge_regions: Iterable[RegionId] = ()
            elif edge_sources is None:
                edge_regions = source_regions
            else:
                wanted = edge_sources.get(destination_region, ())
                edge_regions = [region for region in source_regions if region in wanted]
            if want_region_sets:
                mask = _path_union(region_paths, parents, targets, step_regions)
                for source_region in source_regions:
                    key = (source_region, destination_region)
                    region_masks[key] = region_masks.get(key, 0) | mask
            if edge_regions:
                mask = _path_union(edge_paths, parents, targets, step_edge_bits)
                for source_region in edge_regions:
                    key = (source_region, destination_region)
                    edge_masks[key] = edge_masks.get(key, 0) | mask

    if want_region_sets:
        for key in ((i, j) for i in region_ids for j in region_ids):
            # S_ij names intermediate regions only
            mask = region_masks.get(key, 0) & ~(region_bit[key[0]] | region_bit[key[1]])
            products.region_sets[key] = _members(mask, region_ids)
    if want_subgraphs:
        keys = restricted if restricted is not None else [
            (i, j) for i in region_ids for j in region_ids
        ]
        for key in keys:
            products.passage_subgraphs[key] = _members(edge_masks.get(key, 0), edge_ids)
    return products


def _step(edge) -> DirectedEdge:
    return (edge.source, edge.target)


def _path_union(
    memo: Dict[NodeId, int],
    parents: Dict[NodeId, Optional[NodeId]],
    targets: Iterable[NodeId],
    step_bits: Dict[DirectedEdge, int],
) -> int:
    """OR of the path masks from the root to the reachable ``targets``.

    ``memo`` maps a node to the mask of its root path and must hold the root.
    A missing node's mask is filled from its nearest memoised ancestor
    downwards: each node's mask is its parent's OR ``step_bits[(parent,
    node)]``, so each tree step is mapped once per tree.
    """
    union = 0
    for target in targets:
        known = memo.get(target)
        if known is None:
            if target not in parents:
                continue  # unreachable from the root
            chain: List[NodeId] = []
            node = target
            while node not in memo:
                chain.append(node)
                node = parents[node]
            known = memo[node]
            for child in reversed(chain):
                known |= step_bits[(node, child)]
                memo[child] = known
                node = child
        union |= known
    return union


def _members(mask: int, items: Sequence) -> FrozenSet:
    """The ``items`` whose positions are set bits of ``mask``."""
    bits = bin(mask)[:1:-1]  # least significant bit first, without the "0b"
    found = []
    index = bits.find("1")
    while index >= 0:
        found.append(items[index])
        index = bits.find("1", index + 1)
    return frozenset(found)


def original_step_edges(
    network: RoadNetwork, border_index: BorderNodeIndex
) -> Dict[DirectedEdge, Optional[DirectedEdge]]:
    """Every step of the augmented network mapped to the original directed edge it lies on.

    A step into or out of a border node maps to the original edge that the
    border node subdivides, or to ``None`` when that edge does not exist in
    the step's direction.
    """
    original_edges = set(map(_step, network.edges()))
    return {
        step: _original_directed_edge(original_edges, border_index, *step)
        for step in map(_step, border_index.augmented.edges())
    }


def _original_directed_edge(
    original_edges: Set[DirectedEdge],
    border_index: BorderNodeIndex,
    parent: NodeId,
    child: NodeId,
) -> Optional[DirectedEdge]:
    """Map one augmented-graph step ``parent -> child`` to an original directed edge.

    ``original_edges`` holds every ``(source, target)`` pair of the original
    network.
    """
    parent_is_border = border_index.is_border(parent)
    child_is_border = border_index.is_border(child)
    if not parent_is_border and not child_is_border:
        return (parent, child)
    if parent_is_border and not child_is_border:
        endpoint_a, endpoint_b = border_index.original_edge_of_border[parent]
        other = endpoint_a if child == endpoint_b else endpoint_b
        return (other, child) if (other, child) in original_edges else None
    if child_is_border and not parent_is_border:
        endpoint_a, endpoint_b = border_index.original_edge_of_border[child]
        other = endpoint_b if parent == endpoint_a else endpoint_a
        return (parent, other) if (parent, other) in original_edges else None
    # two consecutive border nodes cannot be adjacent in the augmented network
    return None
