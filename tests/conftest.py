"""Shared fixtures for the test suite.

The fixtures build one small road network and (session-scoped) one instance of
every scheme on it, so individual tests stay fast while still exercising the
full build pipeline.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro import SystemSpec
from repro.bench.workloads import generate_workload
from repro.network import random_planar_network
from repro.partition import compute_border_nodes, packed_kdtree_partition
from repro.precompute import compute_border_products
from repro.schemes import (
    ArcFlagScheme,
    ClusteredPassageIndexScheme,
    ConciseIndexScheme,
    HybridScheme,
    LandmarkScheme,
    PassageIndexScheme,
)

# the reference implementations in tests/oracles import as top-level modules
_ORACLES = str(Path(__file__).resolve().parent / "oracles")
if _ORACLES not in sys.path:
    sys.path.append(_ORACLES)

from networks import grid_network  # noqa: E402  (tests/oracles, on the path above)

#: Node count of the shared test network — small enough for fast builds,
#: large enough to produce a few dozen regions with the tiny page size below.
TEST_NETWORK_NODES = 220


@pytest.fixture(scope="session")
def tiny_spec() -> SystemSpec:
    """A system spec with a small page so the test network has many regions."""
    return SystemSpec(page_size=256)


@pytest.fixture(scope="session")
def small_network():
    """The shared small road network used across the scheme tests."""
    return random_planar_network(TEST_NETWORK_NODES, seed=3)


@pytest.fixture(scope="session")
def medium_network():
    """A slightly larger network for search-algorithm tests."""
    return random_planar_network(400, seed=5)


@pytest.fixture(scope="session")
def tiny_grid():
    """A small jittered grid network (deterministic shape)."""
    return grid_network(6, 6, jitter=0.15, seed=1)


@pytest.fixture(scope="session")
def query_pairs(small_network):
    """A seeded workload on the shared small network."""
    return generate_workload(small_network, count=8, seed=9)


@pytest.fixture(scope="session")
def partitioning(small_network, tiny_spec):
    return packed_kdtree_partition(small_network, tiny_spec.page_size - 8)


@pytest.fixture(scope="session")
def border_index(small_network, partitioning):
    return compute_border_nodes(small_network, partitioning)


@pytest.fixture(scope="session")
def border_products(small_network, partitioning, border_index):
    """Region sets and passage subgraphs for all region pairs."""
    return compute_border_products(
        small_network,
        partitioning,
        border_index,
        want_region_sets=True,
        want_subgraphs=True,
    )


@pytest.fixture(scope="session")
def ci_scheme(small_network, tiny_spec, partitioning, border_index, border_products):
    return ConciseIndexScheme.build(
        small_network,
        spec=tiny_spec,
        partitioning=partitioning,
        border_index=border_index,
        products=border_products,
    )


@pytest.fixture(scope="session")
def pi_scheme(small_network, tiny_spec, partitioning, border_index, border_products):
    return PassageIndexScheme.build(
        small_network,
        spec=tiny_spec,
        partitioning=partitioning,
        border_index=border_index,
        products=border_products,
    )


@pytest.fixture(scope="session")
def hybrid_scheme(small_network, tiny_spec, partitioning, border_index, border_products):
    threshold = max(2, border_products.max_region_set_size() // 3)
    return HybridScheme.build(
        small_network,
        spec=tiny_spec,
        region_set_threshold=threshold,
        partitioning=partitioning,
        border_index=border_index,
        products=border_products,
        passage_subgraphs=border_products.passage_subgraphs,
    )


@pytest.fixture(scope="session")
def clustered_scheme(small_network, tiny_spec):
    return ClusteredPassageIndexScheme.build(small_network, spec=tiny_spec, cluster_pages=2)


@pytest.fixture(scope="session")
def landmark_scheme(small_network, tiny_spec, query_pairs):
    return LandmarkScheme.build(
        small_network, spec=tiny_spec, num_landmarks=4, plan_pairs=query_pairs
    )


@pytest.fixture(scope="session")
def arcflag_scheme(small_network, tiny_spec, partitioning, border_index, query_pairs):
    return ArcFlagScheme.build(
        small_network,
        spec=tiny_spec,
        plan_pairs=query_pairs,
        partitioning=partitioning,
        border_index=border_index,
    )


@pytest.fixture()
def rng():
    return random.Random(1234)
