"""Tests for A* search and its heuristics."""

import math

import pytest

from repro.exceptions import NoPathError
from repro.network import (
    RoadNetwork,
    SearchStats,
    astar_search,
    shortest_path,
    shortest_path_cost,
)
from search_reference import euclidean_heuristic, zero_heuristic


class TestAstarCorrectness:
    def test_matches_dijkstra_on_random_network(self, medium_network, rng):
        node_ids = list(medium_network.node_ids())
        for _ in range(12):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            expected = shortest_path_cost(medium_network, source, target)
            observed = astar_search(medium_network, source, target).cost
            assert math.isclose(observed, expected, rel_tol=1e-9)

    def test_zero_heuristic_degenerates_to_dijkstra(self, medium_network, rng):
        node_ids = list(medium_network.node_ids())
        source, target = node_ids[3], node_ids[-7]
        expected = shortest_path_cost(medium_network, source, target)
        observed = astar_search(medium_network, source, target, heuristic=zero_heuristic).cost
        assert math.isclose(observed, expected, rel_tol=1e-9)

    def test_source_equals_target(self, medium_network):
        path = astar_search(medium_network, 5, 5)
        assert path.nodes == (5,)
        assert path.cost == 0.0

    def test_no_path_raises(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        with pytest.raises(NoPathError):
            astar_search(network, 0, 1)


class TestAstarEfficiency:
    def test_euclidean_heuristic_settles_no_more_nodes(self, medium_network, rng):
        """A* with an admissible heuristic should not expand more nodes than Dijkstra."""
        node_ids = list(medium_network.node_ids())
        guided_total = 0
        blind_total = 0
        for _ in range(8):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            guided = SearchStats()
            astar_search(medium_network, source, target, stats=guided)
            blind = SearchStats()
            astar_search(medium_network, source, target, heuristic=zero_heuristic, stats=blind)
            guided_total += guided.settled_nodes
            blind_total += blind.settled_nodes
        assert guided_total <= blind_total

    def test_on_settle_callback_sees_source_first_and_target_last(self, medium_network):
        settled = []
        astar_search(medium_network, 2, 117, on_settle=settled.append)
        assert settled[0] == 2
        assert settled[-1] == 117

    def test_heuristic_is_admissible(self, medium_network, rng):
        """The Euclidean lower bound never exceeds the true remaining cost."""
        node_ids = list(medium_network.node_ids())
        target = node_ids[11]
        heuristic = euclidean_heuristic(medium_network, target)
        from repro.network import dijkstra_tree

        tree = dijkstra_tree(medium_network.reversed(), target)
        for node_id in node_ids[::23]:
            if tree.has_path_to(node_id):
                assert heuristic(node_id) <= tree.distance_to(node_id) + 1e-9
