"""Tests for the road-network graph substrate."""

import math

import pytest

from repro.exceptions import GraphError
from repro.network import RoadNetwork
from networks import has_edge


def build_triangle():
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    network.add_node(1, 3.0, 0.0)
    network.add_node(2, 0.0, 4.0)
    network.add_edge(0, 1, 3.0)
    network.add_edge(1, 2, 5.0)
    network.add_edge(2, 0, 4.0)
    return network


class TestNodeAndEdgeConstruction:
    def test_add_node_and_lookup(self):
        network = RoadNetwork()
        node = network.add_node(7, 1.5, -2.5)
        assert node.node_id == 7
        assert network.node(7).x == 1.5
        assert network.node(7).y == -2.5
        assert 7 in network
        assert len(network) == 1

    def test_re_adding_same_node_is_idempotent(self):
        network = RoadNetwork()
        network.add_node(1, 2.0, 3.0)
        network.add_node(1, 2.0, 3.0)
        assert network.num_nodes == 1

    def test_re_adding_node_with_different_coordinates_fails(self):
        network = RoadNetwork()
        network.add_node(1, 2.0, 3.0)
        with pytest.raises(GraphError):
            network.add_node(1, 2.0, 4.0)

    def test_unknown_node_lookup_fails(self):
        network = RoadNetwork()
        with pytest.raises(GraphError):
            network.node(99)

    def test_edge_requires_existing_endpoints(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        with pytest.raises(GraphError):
            network.add_edge(0, 1, 1.0)
        with pytest.raises(GraphError):
            network.add_edge(2, 0, 1.0)

    def test_edge_weight_must_be_positive(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        with pytest.raises(GraphError):
            network.add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            network.add_edge(0, 1, -2.0)

    def test_undirected_edge_adds_both_directions(self):
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        network.add_node(1, 1.0, 0.0)
        network.add_undirected_edge(0, 1, 2.0)
        assert has_edge(network, 0, 1)
        assert has_edge(network, 1, 0)
        assert network.num_edges == 2


class TestGraphQueries:
    def test_neighbors_and_degree(self):
        network = build_triangle()
        assert network.neighbors(0) == [(1, 3.0)]
        assert network.out_degree(1) == 1
        assert network.num_edges == 3

    def test_edge_weight_lookup(self):
        network = build_triangle()
        assert network.edge_weight(1, 2) == 5.0
        with pytest.raises(GraphError):
            network.edge_weight(0, 2)

    def test_edges_iteration_covers_all(self):
        network = build_triangle()
        edges = {(edge.source, edge.target) for edge in network.edges()}
        assert edges == {(0, 1), (1, 2), (2, 0)}

    def test_euclidean_distance(self):
        network = build_triangle()
        assert network.euclidean_distance(0, 1) == pytest.approx(3.0)
        assert network.euclidean_distance(1, 2) == pytest.approx(5.0)

    def test_nearest_node(self):
        network = build_triangle()
        assert network.nearest_node(0.1, 0.1) == 0
        assert network.nearest_node(2.9, 0.2) == 1
        assert network.nearest_node(0.0, 3.8) == 2


class TestDerivedGraphs:
    def test_subgraph_keeps_only_internal_edges(self):
        network = build_triangle()
        sub = network.subgraph([0, 1])
        assert sub.num_nodes == 2
        assert has_edge(sub, 0, 1)
        assert not has_edge(sub, 1, 2)
        assert sub.num_edges == 1

    def test_reversed_flips_every_edge(self):
        network = build_triangle()
        reverse = network.reversed()
        assert has_edge(reverse, 1, 0)
        assert has_edge(reverse, 2, 1)
        assert has_edge(reverse, 0, 2)
        assert reverse.num_edges == network.num_edges

    def test_copy_is_independent(self):
        network = build_triangle()
        duplicate = network.copy()
        duplicate.add_node(10, 9.0, 9.0)
        assert 10 not in network
        assert duplicate.num_nodes == network.num_nodes + 1

    def test_max_node_id(self):
        network = build_triangle()
        assert network.max_node_id() == 2
        with pytest.raises(GraphError):
            RoadNetwork().max_node_id()

    def test_node_distance_helper(self):
        network = build_triangle()
        a = network.node(0)
        b = network.node(2)
        assert a.distance_to(b) == pytest.approx(4.0)
        assert math.isclose(b.distance_to(a), 4.0)
