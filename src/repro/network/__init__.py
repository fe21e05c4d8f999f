"""Road-network substrate: graphs, search algorithms, generators and I/O."""

from .astar import astar_search, euclidean_heuristic, reference_astar_search, zero_heuristic
from .dijkstra import (
    ShortestPathTree,
    all_pairs_sample_costs,
    bidirectional_dijkstra,
    dijkstra_tree,
    reference_bidirectional_dijkstra,
    reference_dijkstra_tree,
    reference_shortest_path,
    shortest_path,
    shortest_path_cost,
)
from .generators import (
    NodeRecord,
    grid_network,
    network_from_records,
    random_planar_network,
    stream_cluster_network,
    stream_grid_network,
)
from .indexed import CsrGraph, QueryGraph, build_csr, csr_for, csr_shortest_path
from .graph import Edge, Node, NodeId, RoadNetwork
from .io import (
    DIMACS_SCALE,
    iter_dimacs_records,
    network_from_string,
    network_to_string,
    read_dimacs,
    read_network,
    write_dimacs,
    write_network,
)
from .paths import Path, SearchStats, validate_path

__all__ = [
    "CsrGraph",
    "DIMACS_SCALE",
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
    "bidirectional_dijkstra",
    "build_csr",
    "csr_for",
    "csr_shortest_path",
    "dijkstra_tree",
    "euclidean_heuristic",
    "grid_network",
    "iter_dimacs_records",
    "network_from_records",
    "network_from_string",
    "network_to_string",
    "random_planar_network",
    "read_dimacs",
    "read_network",
    "reference_astar_search",
    "reference_bidirectional_dijkstra",
    "reference_dijkstra_tree",
    "reference_shortest_path",
    "shortest_path",
    "shortest_path_cost",
    "stream_cluster_network",
    "stream_grid_network",
    "validate_path",
    "write_dimacs",
    "write_network",
    "zero_heuristic",
]
