"""Path objects returned by shortest-path computations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .graph import NodeId


@dataclass(frozen=True)
class Path:
    """A path through the road network.

    ``nodes`` is the node sequence (source first, destination last) and
    ``cost`` the summed edge weight along it.  A single-node path has zero
    cost.
    """

    nodes: Tuple[NodeId, ...]
    cost: float

    @property
    def source(self) -> NodeId:
        return self.nodes[0]

    @property
    def target(self) -> NodeId:
        return self.nodes[-1]

    @property
    def num_edges(self) -> int:
        return len(self.nodes) - 1

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """The (source, target) pairs along the path."""
        return list(zip(self.nodes[:-1], self.nodes[1:]))

    def __len__(self) -> int:
        return len(self.nodes)

@dataclass
class SearchStats:
    """Bookkeeping produced by the search algorithms (used by baselines to
    count how many nodes/regions they touch)."""

    settled_nodes: int = 0
    relaxed_edges: int = 0
    visited_nodes: List[NodeId] = field(default_factory=list)
