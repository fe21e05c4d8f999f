"""Tests for border-node computation."""

import math

import pytest

from repro.network import shortest_path_cost
from repro.partition import compute_border_nodes


class TestBorderNodes:
    def test_border_nodes_only_on_inter_region_edges(self, small_network, partitioning, border_index):
        for border_id, (node_a, node_b) in border_index.original_edge_of_border.items():
            assert partitioning.region_of_node(node_a) != partitioning.region_of_node(node_b)
            assert border_index.is_border(border_id)

    def test_every_crossing_edge_has_exactly_one_border_node(
        self, small_network, partitioning, border_index
    ):
        crossing = set()
        for edge in small_network.edges():
            if partitioning.region_of_node(edge.source) != partitioning.region_of_node(edge.target):
                crossing.add((min(edge.source, edge.target), max(edge.source, edge.target)))
        assert len(crossing) == len(border_index.regions_of_border)

    def test_border_nodes_belong_to_both_adjacent_regions(self, partitioning, border_index):
        for border_id, (region_a, region_b) in border_index.regions_of_border.items():
            assert border_id in border_index.borders_of_region[region_a]
            assert border_id in border_index.borders_of_region[region_b]
            assert region_a != region_b

    def test_augmented_network_preserves_shortest_path_costs(
        self, small_network, border_index, rng
    ):
        """Subdividing crossing edges must not change any shortest-path cost."""
        node_ids = list(small_network.node_ids())
        for _ in range(6):
            source = rng.choice(node_ids)
            target = rng.choice(node_ids)
            original = shortest_path_cost(small_network, source, target)
            augmented = shortest_path_cost(border_index.augmented, source, target)
            assert math.isclose(original, augmented, rel_tol=1e-9, abs_tol=1e-9)

    def test_augmented_network_contains_all_original_nodes(self, small_network, border_index):
        for node_id in small_network.node_ids():
            assert node_id in border_index.augmented

    def test_border_node_ids_do_not_collide_with_original_ids(self, small_network, border_index):
        max_original = small_network.max_node_id()
        for border_id in border_index.border_nodes():
            assert border_id > max_original

    def test_every_region_with_neighbours_has_border_nodes(self, partitioning, border_index):
        """Every region of a connected network borders at least one other region."""
        if partitioning.num_regions > 1:
            empty = [r for r, borders in border_index.borders_of_region.items() if not borders]
            assert not empty
