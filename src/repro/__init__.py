"""repro — reproduction of "Shortest Path Computation with No Information Leakage".

The package implements the paper's PIR-based framework for answering shortest
path queries at an untrusted location-based service without leaking anything
about the query: the road-network and storage substrates, the PIR / secure
co-processor layer, the network partitioning and pre-computation machinery,
the CI / PI / HY / PI* schemes and the LM / AF / OBF baselines, the privacy
model, and a benchmark harness that regenerates the paper's evaluation.

Quick start::

    from repro import random_planar_network, ConciseIndexScheme, SystemSpec

    network = random_planar_network(600, seed=1)
    spec = SystemSpec(page_size=512)
    scheme = ConciseIndexScheme.build(network, spec=spec)
    result = scheme.query(0, 137)
    print(result.path.cost, result.response.total_s)
"""

from .costmodel import DEFAULT_SPEC, CostModel, ResponseTime, SystemSpec
from .engine import BatchResult, LruCache, QueryEngine
from .exceptions import (
    FileSizeLimitError,
    GraphError,
    NoPathError,
    PageOverflowError,
    PartitionError,
    PirError,
    PlanViolationError,
    ReproError,
    SchemeError,
    StorageError,
)
from .network import (
    CsrGraph,
    Path,
    RoadNetwork,
    astar_search,
    csr_for,
    dijkstra_tree,
    random_planar_network,
    read_network,
    shortest_path,
    shortest_path_cost,
    write_network,
)
from .partition import (
    Partitioning,
    compute_border_nodes,
    packed_kdtree_partition,
    plain_kdtree_partition,
)
from .pir import (
    AccessTrace,
    AdversaryView,
    SecureCoprocessor,
    ShardedPirSimulator,
    SquareRootOram,
    UsablePirSimulator,
)
from .precompute import (
    build_arc_flags,
    build_landmark_index,
    compute_approximate_passage_subgraphs,
    compute_border_products,
)
from .privacy import check_indistinguishability, views_identical
from .schemes import (
    ApproximatePassageIndexScheme,
    ArcFlagScheme,
    ClusteredPassageIndexScheme,
    ConciseIndexScheme,
    HybridScheme,
    LandmarkScheme,
    ObfuscationScheme,
    PassageIndexScheme,
    QueryPlan,
    QueryResult,
    Scheme,
    measure_cost_deviation,
)
from .storage import Database, Page, PageFile

__version__ = "1.0.0"

__all__ = [
    "AccessTrace",
    "AdversaryView",
    "ApproximatePassageIndexScheme",
    "ArcFlagScheme",
    "BatchResult",
    "ClusteredPassageIndexScheme",
    "ConciseIndexScheme",
    "CostModel",
    "CsrGraph",
    "DEFAULT_SPEC",
    "Database",
    "FileSizeLimitError",
    "GraphError",
    "HybridScheme",
    "LandmarkScheme",
    "LruCache",
    "NoPathError",
    "ObfuscationScheme",
    "Page",
    "PageFile",
    "PageOverflowError",
    "PartitionError",
    "Partitioning",
    "PassageIndexScheme",
    "Path",
    "PirError",
    "PlanViolationError",
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "ReproError",
    "ResponseTime",
    "RoadNetwork",
    "Scheme",
    "SchemeError",
    "SecureCoprocessor",
    "ShardedPirSimulator",
    "SquareRootOram",
    "StorageError",
    "SystemSpec",
    "UsablePirSimulator",
    "astar_search",
    "build_arc_flags",
    "build_landmark_index",
    "check_indistinguishability",
    "compute_approximate_passage_subgraphs",
    "compute_border_nodes",
    "compute_border_products",
    "csr_for",
    "dijkstra_tree",
    "measure_cost_deviation",
    "packed_kdtree_partition",
    "plain_kdtree_partition",
    "random_planar_network",
    "read_network",
    "shortest_path",
    "shortest_path_cost",
    "views_identical",
    "write_network",
    "__version__",
]
