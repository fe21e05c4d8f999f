"""Tests for the synthetic road-network generators."""

import math

import pytest

from repro.exceptions import GraphError
from repro.network import random_planar_network
from networks import bounding_box, grid_network, is_connected


class TestGridNetwork:
    """The grid fixture of ``tests/oracles/networks.py``."""

    def test_node_and_edge_counts(self):
        network = grid_network(4, 5, jitter=0.0, seed=0)
        assert network.num_nodes == 20
        # 4*(5-1) horizontal + 5*(4-1) vertical undirected edges, two directions each
        assert network.num_edges == 2 * (4 * 4 + 5 * 3)

    def test_grid_is_connected(self):
        network = grid_network(5, 5, seed=2)
        assert is_connected(network)

    def test_invalid_dimensions(self):
        with pytest.raises(GraphError):
            grid_network(0, 3)

    def test_weights_match_euclidean_length(self):
        network = grid_network(3, 3, jitter=0.1, seed=4)
        for edge in network.edges():
            assert edge.weight == pytest.approx(
                network.euclidean_distance(edge.source, edge.target), abs=1e-9
            )


class TestRandomPlanarNetwork:
    def test_size_and_sparsity(self):
        network = random_planar_network(500, edge_factor=1.15, seed=1)
        assert network.num_nodes == 500
        undirected = network.num_edges // 2
        assert undirected == pytest.approx(1.15 * 500, abs=3)

    def test_connected(self):
        network = random_planar_network(300, seed=2)
        assert is_connected(network)

    def test_deterministic_for_same_seed(self):
        first = random_planar_network(150, seed=9)
        second = random_planar_network(150, seed=9)
        assert first.num_edges == second.num_edges
        assert {(e.source, e.target) for e in first.edges()} == {
            (e.source, e.target) for e in second.edges()
        }

    def test_different_seeds_differ(self):
        first = random_planar_network(150, seed=1)
        second = random_planar_network(150, seed=2)
        coordinates_first = [(n.x, n.y) for n in first.nodes()]
        coordinates_second = [(n.x, n.y) for n in second.nodes()]
        assert coordinates_first != coordinates_second

    def test_weights_at_least_euclidean(self):
        """Edge weights are Euclidean length times a detour factor >= 1, so the
        Euclidean heuristic stays admissible."""
        network = random_planar_network(200, seed=3)
        for edge in network.edges():
            euclid = network.euclidean_distance(edge.source, edge.target)
            assert edge.weight >= euclid - 1e-9

    def test_rejects_too_few_nodes(self):
        with pytest.raises(GraphError):
            random_planar_network(2)

    def test_rejects_sub_tree_edge_factor(self):
        with pytest.raises(GraphError):
            random_planar_network(100, edge_factor=0.5)

    def test_coordinates_within_extent(self):
        network = random_planar_network(100, extent=50.0, seed=6)
        min_x, min_y, max_x, max_y = bounding_box(network)
        assert 0.0 <= min_x <= max_x <= 50.0
        assert 0.0 <= min_y <= max_y <= 50.0
