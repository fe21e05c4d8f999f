"""The memoised border products equal the reference walk on random networks.

:mod:`border_products_reference` holds the straightforward implementation
(one parent walk per source border and destination region, ``has_edge``
membership).  The fast path must return identical region sets and passage
subgraphs for region sets only, subgraphs only, both, and a restricted
``subgraph_pairs`` (HY's case), including on networks with one-way edges,
where a border node subdivides an edge in one direction only.
"""

from __future__ import annotations

import random

import pytest

from border_products_reference import compute_border_products as reference_products
from repro.network import RoadNetwork, random_planar_network
from repro.partition import compute_border_nodes, packed_kdtree_partition
from repro.precompute import compute_border_products

CASES = [(60, 1, 0.0), (90, 2, 0.0), (120, 3, 0.3), (150, 4, 0.5)]
MODES = {
    "regions": dict(want_region_sets=True, want_subgraphs=False),
    "subgraphs": dict(want_region_sets=False, want_subgraphs=True),
    "both": dict(want_region_sets=True, want_subgraphs=True),
}


def _network(nodes: int, seed: int, one_way_fraction: float) -> RoadNetwork:
    """A random planar network with ``one_way_fraction`` of its edges made one-way."""
    base = random_planar_network(nodes, seed=seed)
    if not one_way_fraction:
        return base
    rng = random.Random(seed)
    network = RoadNetwork()
    for node in base.nodes():
        network.add_node(node.node_id, node.x, node.y)
    for edge in base.edges():
        dropped = edge.source > edge.target and rng.random() < one_way_fraction
        if not dropped:
            network.add_edge(edge.source, edge.target, edge.weight)
    return network


def _setup(nodes: int, seed: int, one_way_fraction: float):
    network = _network(nodes, seed, one_way_fraction)
    partitioning = packed_kdtree_partition(network, 120)
    return network, partitioning, compute_border_nodes(network, partitioning)


def _assert_equal(observed, expected) -> None:
    assert observed.region_sets == expected.region_sets
    assert observed.passage_subgraphs == expected.passage_subgraphs


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("nodes,seed,one_way_fraction", CASES)
def test_matches_reference(nodes, seed, one_way_fraction, mode):
    setup = _setup(nodes, seed, one_way_fraction)
    _assert_equal(
        compute_border_products(*setup, **MODES[mode]),
        reference_products(*setup, **MODES[mode]),
    )


@pytest.mark.parametrize("nodes,seed,one_way_fraction", CASES)
def test_matches_reference_for_restricted_pairs(nodes, seed, one_way_fraction):
    network, partitioning, border_index = _setup(nodes, seed, one_way_fraction)
    regions = list(partitioning.region_ids())
    rng = random.Random(seed)
    pairs = rng.sample(
        [(i, j) for i in regions for j in regions], k=max(1, len(regions) ** 2 // 3)
    )
    setup = (network, partitioning, border_index)
    for want_region_sets in (False, True):
        kwargs = dict(
            want_region_sets=want_region_sets, want_subgraphs=True, subgraph_pairs=pairs
        )
        _assert_equal(
            compute_border_products(*setup, **kwargs),
            reference_products(*setup, **kwargs),
        )
