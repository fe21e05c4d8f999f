"""Road-network substrate: graphs, search algorithms, generators and I/O."""

from .astar import astar_search
from .dijkstra import (
    ShortestPathTree,
    all_pairs_sample_costs,
    dijkstra_tree,
    shortest_path,
    shortest_path_cost,
)
from .generators import (
    NodeRecord,
    random_planar_network,
    stream_grid_network,
)
from .indexed import CsrGraph, QueryGraph, csr_for, csr_shortest_path
from .graph import Edge, Node, NodeId, RoadNetwork
from .io import (
    read_network,
    write_network,
)
from .paths import Path, SearchStats

__all__ = [
    "CsrGraph",
    "Edge",
    "Node",
    "NodeId",
    "NodeRecord",
    "Path",
    "QueryGraph",
    "RoadNetwork",
    "SearchStats",
    "ShortestPathTree",
    "all_pairs_sample_costs",
    "astar_search",
    "csr_for",
    "csr_shortest_path",
    "dijkstra_tree",
    "random_planar_network",
    "read_network",
    "shortest_path",
    "shortest_path_cost",
    "stream_grid_network",
    "write_network",
]
