"""Property tests: the fast path must agree with the reference implementations.

Random seeded road networks are searched with both the array-backed (CSR)
fast path and the preserved dict-based reference implementations; costs must
be identical.  Likewise, batched PIR retrieval must return exactly what
repeated single retrievals return.
"""

import random

import pytest

from repro.exceptions import NoPathError
from repro.network import (
    astar_search,
    bidirectional_dijkstra,
    dijkstra_tree,
    random_planar_network,
    reference_astar_search,
    reference_bidirectional_dijkstra,
    reference_dijkstra_tree,
    reference_shortest_path,
    shortest_path,
)
from repro.pir import answer_shares, draw_shares, make_kernel

SEEDS = [101, 202, 303]


def sample_pairs(network, rng, count=12):
    node_ids = list(network.node_ids())
    return [(rng.choice(node_ids), rng.choice(node_ids)) for _ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
class TestSearchAgreement:
    def test_dijkstra_tree_distances_identical(self, seed):
        network = random_planar_network(150, seed=seed)
        rng = random.Random(seed)
        for source in rng.sample(list(network.node_ids()), 4):
            fast = dijkstra_tree(network, source)
            reference = reference_dijkstra_tree(network, source)
            assert fast.distances == pytest.approx(reference.distances)

    def test_point_to_point_costs_identical(self, seed):
        network = random_planar_network(150, seed=seed)
        rng = random.Random(seed + 1)
        for source, target in sample_pairs(network, rng):
            try:
                expected = reference_shortest_path(network, source, target).cost
            except NoPathError:
                with pytest.raises(NoPathError):
                    shortest_path(network, source, target)
                continue
            assert shortest_path(network, source, target).cost == pytest.approx(expected)

    def test_bidirectional_costs_identical(self, seed):
        network = random_planar_network(150, seed=seed)
        rng = random.Random(seed + 2)
        for source, target in sample_pairs(network, rng):
            try:
                expected = reference_bidirectional_dijkstra(network, source, target).cost
            except NoPathError:
                with pytest.raises(NoPathError):
                    bidirectional_dijkstra(network, source, target)
                continue
            observed = bidirectional_dijkstra(network, source, target)
            assert observed.cost == pytest.approx(expected)
            # the bidirectional path itself must be a real path of that cost
            rebuilt = sum(
                network.edge_weight(a, b)
                for a, b in zip(observed.nodes[:-1], observed.nodes[1:])
            )
            assert rebuilt == pytest.approx(observed.cost)

    def test_astar_costs_identical(self, seed):
        network = random_planar_network(150, seed=seed)
        rng = random.Random(seed + 3)
        for source, target in sample_pairs(network, rng, count=8):
            try:
                expected = reference_astar_search(network, source, target).cost
            except NoPathError:
                with pytest.raises(NoPathError):
                    astar_search(network, source, target)
                continue
            assert astar_search(network, source, target).cost == pytest.approx(expected)

    def test_early_termination_distances_identical(self, seed):
        network = random_planar_network(150, seed=seed)
        rng = random.Random(seed + 4)
        node_ids = list(network.node_ids())
        source = rng.choice(node_ids)
        targets = rng.sample(node_ids, 6)
        fast = dijkstra_tree(network, source, targets=targets)
        reference = reference_dijkstra_tree(network, source, targets=targets)
        for target in targets:
            assert fast.has_path_to(target) == reference.has_path_to(target)
            if fast.has_path_to(target):
                assert fast.distance_to(target) == pytest.approx(
                    reference.distance_to(target)
                )


def make_blocks(count, size, seed):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


class TestBatchedRetrievalAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_xor_retrieve_many_equals_repeated_retrieve(self, seed):
        blocks = make_blocks(24, 48, seed)
        kernel = make_kernel(blocks)
        client = random.Random(seed)
        rng = random.Random(seed + 1)
        indices = [rng.randrange(len(blocks)) for _ in range(20)]
        batched = answer_shares(kernel, *draw_shares(client, len(blocks), indices))
        singles = [
            answer_shares(kernel, *draw_shares(client, len(blocks), [index]))[0]
            for index in indices
        ]
        assert batched == singles
        assert batched == [blocks[index] for index in indices]
