"""Weighted road-network graph with Euclidean node coordinates.

The :class:`RoadNetwork` models the transportation network of the paper
(Section 3.1): a directed graph ``G = (V, E)`` whose nodes carry Euclidean
coordinates and whose edges carry positive traversal costs.  All schemes,
partitioners and pre-computation routines in this package operate on this
class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..exceptions import GraphError

NodeId = int


@dataclass(frozen=True)
class Node:
    """A network node: a junction or shape point of the road network."""

    node_id: NodeId
    x: float
    y: float

    def distance_to(self, other: "Node") -> float:
        """Euclidean distance to another node."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Edge:
    """A directed edge with a positive traversal cost."""

    source: NodeId
    target: NodeId
    weight: float

    def reversed(self) -> "Edge":
        """Return the same edge in the opposite direction."""
        return Edge(self.target, self.source, self.weight)


class RoadNetwork:
    """A directed, weighted road network embedded in the Euclidean plane.

    Nodes are identified by integers.  Adjacency is stored as
    ``node_id -> list[(neighbour_id, weight)]`` which is the representation
    serialised into the region data file ``Fd`` by the schemes.
    """

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, Node] = {}
        self._adjacency: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
        self._edge_count = 0
        #: False when some node coordinates are placeholders (e.g. passage
        #: nodes inserted by a client that never learned their position);
        #: geometric A* heuristics are inadmissible on such graphs and fall
        #: back to the zero heuristic.
        self.heuristic_safe = True
        #: Compiled CSR form, managed by :func:`repro.network.indexed.csr_for`.
        #: Networks are append-only, so the cache is keyed (and invalidated)
        #: by the ``(num_nodes, num_edges)`` snapshot stored alongside it.
        self._csr_cache: Optional[Tuple[Tuple[int, int], object]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: NodeId, x: float, y: float) -> Node:
        """Add a node; re-adding an existing id with new coordinates is an error."""
        if node_id in self._nodes:
            existing = self._nodes[node_id]
            if existing.x != x or existing.y != y:
                raise GraphError(f"node {node_id} already exists at different coordinates")
            return existing
        node = Node(node_id, float(x), float(y))
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        return node

    def add_edge(self, source: NodeId, target: NodeId, weight: float) -> Edge:
        """Add a directed edge; both endpoints must already exist."""
        if source not in self._nodes:
            raise GraphError(f"unknown source node {source}")
        if target not in self._nodes:
            raise GraphError(f"unknown target node {target}")
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight}")
        self._adjacency[source].append((target, float(weight)))
        self._edge_count += 1
        return Edge(source, target, float(weight))

    def add_undirected_edge(self, a: NodeId, b: NodeId, weight: float) -> None:
        """Add an edge in both directions (the common case for road segments)."""
        self.add_edge(a, b, weight)
        self.add_edge(b, a, weight)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._edge_count

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._nodes.keys())

    def neighbors(self, node_id: NodeId) -> List[Tuple[NodeId, float]]:
        """Outgoing ``(neighbour, weight)`` pairs of a node."""
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed edges."""
        for source, adjacency in self._adjacency.items():
            for target, weight in adjacency:
                yield Edge(source, target, weight)

    def out_degree(self, node_id: NodeId) -> int:
        return len(self.neighbors(node_id))

    def edge_weight(self, source: NodeId, target: NodeId) -> float:
        """Weight of the (first) edge from ``source`` to ``target``."""
        for neighbor, weight in self.neighbors(source):
            if neighbor == target:
                return weight
        raise GraphError(f"no edge from {source} to {target}")

    def euclidean_distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two nodes (used by A* heuristics)."""
        return self.node(a).distance_to(self.node(b))

    def nearest_node(self, x: float, y: float) -> NodeId:
        """Return the id of the node closest to point ``(x, y)``.

        Used to map arbitrary query coordinates to network nodes (the paper
        allows sources/destinations anywhere on the network; we snap to the
        closest node).
        """
        if not self._nodes:
            raise GraphError("nearest node of an empty network is undefined")
        best_id = None
        best_dist = math.inf
        for node in self._nodes.values():
            dist = math.hypot(node.x - x, node.y - y)
            if dist < best_dist:
                best_dist = dist
                best_id = node.node_id
        return best_id

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, node_ids: Iterable[NodeId]) -> "RoadNetwork":
        """Return the subgraph induced by ``node_ids``.

        Edges are kept only when both endpoints are in the node set; this is
        exactly what a querying client possesses after fetching a set of
        region pages from ``Fd``.
        """
        keep = set(node_ids)
        sub = RoadNetwork()
        for node_id in keep:
            node = self.node(node_id)
            sub.add_node(node.node_id, node.x, node.y)
        for node_id in keep:
            for neighbor, weight in self._adjacency[node_id]:
                if neighbor in keep:
                    sub.add_edge(node_id, neighbor, weight)
        return sub

    def reversed(self) -> "RoadNetwork":
        """Return the network with every edge reversed (for backward searches)."""
        rev = RoadNetwork()
        for node in self.nodes():
            rev.add_node(node.node_id, node.x, node.y)
        for edge in self.edges():
            rev.add_edge(edge.target, edge.source, edge.weight)
        return rev

    def copy(self) -> "RoadNetwork":
        dup = RoadNetwork()
        for node in self.nodes():
            dup.add_node(node.node_id, node.x, node.y)
        for edge in self.edges():
            dup.add_edge(edge.source, edge.target, edge.weight)
        return dup

    def max_node_id(self) -> NodeId:
        if not self._nodes:
            raise GraphError("empty network has no node ids")
        return max(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
