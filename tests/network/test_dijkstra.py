"""Tests for Dijkstra and shortest-path trees."""


import pytest

from repro.exceptions import NoPathError
from repro.network import (
    RoadNetwork,
    SearchStats,
    all_pairs_sample_costs,
    dijkstra_tree,
    shortest_path,
    shortest_path_cost,
)


def build_diamond():
    """A diamond where the two-hop route beats the direct (expensive) edge."""
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0, 0), (1, 1), (1, -1), (2, 0)]):
        network.add_node(node_id, float(x), float(y))
    network.add_undirected_edge(0, 1, 1.0)
    network.add_undirected_edge(1, 3, 1.0)
    network.add_undirected_edge(0, 2, 2.0)
    network.add_undirected_edge(2, 3, 2.0)
    network.add_undirected_edge(0, 3, 5.0)
    return network


class TestPointToPoint:
    def test_shortest_path_prefers_cheap_route(self):
        network = build_diamond()
        path = shortest_path(network, 0, 3)
        assert path.nodes == (0, 1, 3)
        assert path.cost == pytest.approx(2.0)

    def test_trivial_query_source_equals_target(self):
        network = build_diamond()
        path = shortest_path(network, 2, 2)
        assert path.nodes == (2,)
        assert path.cost == 0.0

    def test_no_path_raises(self):
        network = build_diamond()
        network.add_node(99, 10.0, 10.0)
        with pytest.raises(NoPathError):
            shortest_path(network, 0, 99)

    def test_shortest_path_cost_helper(self):
        network = build_diamond()
        assert shortest_path_cost(network, 0, 3) == pytest.approx(2.0)

    def test_stats_are_collected(self):
        network = build_diamond()
        stats = SearchStats()
        shortest_path(network, 0, 3, stats=stats)
        assert stats.settled_nodes >= 2
        assert stats.relaxed_edges >= 2

    def test_directed_asymmetry(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        network.add_edge(0, 1, 1.0)
        assert shortest_path_cost(network, 0, 1) == 1.0
        with pytest.raises(NoPathError):
            shortest_path(network, 1, 0)


class TestShortestPathTree:
    def test_tree_distances_and_paths(self):
        network = build_diamond()
        tree = dijkstra_tree(network, 0)
        assert tree.distance_to(3) == pytest.approx(2.0)
        assert tree.distance_to(2) == pytest.approx(2.0)
        assert tree.path_to(3).nodes == (0, 1, 3)
        assert tree.has_path_to(1)

    def test_tree_target_early_termination(self):
        network = build_diamond()
        tree = dijkstra_tree(network, 0, targets=[1])
        assert tree.distance_to(1) == pytest.approx(1.0)

    def test_tree_missing_target_raises(self):
        network = build_diamond()
        network.add_node(42, 5.0, 5.0)
        tree = dijkstra_tree(network, 0)
        with pytest.raises(NoPathError):
            tree.distance_to(42)
        assert not tree.has_path_to(42)

    def test_path_reconstruction_cost_matches_distance(self, medium_network):
        tree = dijkstra_tree(medium_network, 0)
        for target in list(medium_network.node_ids())[::37]:
            if not tree.has_path_to(target):
                continue
            path = tree.path_to(target)
            assert path.cost == pytest.approx(tree.distance_to(target))
            assert path.source == 0
            assert path.target == target


class TestBatchCosts:
    def test_all_pairs_sample_costs(self):
        network = build_diamond()
        pairs = [(0, 3), (0, 2), (1, 2)]
        costs = all_pairs_sample_costs(network, pairs)
        assert costs[(0, 3)] == pytest.approx(2.0)
        assert costs[(0, 2)] == pytest.approx(2.0)
        assert costs[(1, 2)] == pytest.approx(3.0)
