"""Tests for the plain KD-tree partitioner."""

import pytest

from networks import validate_partitioning
from repro.exceptions import PartitionError
from repro.network import RoadNetwork, random_planar_network
from repro.partition import node_record_size, plain_kdtree_partition


class TestPlainKdTree:
    def test_every_region_fits_the_capacity(self, medium_network):
        capacity = 248
        partitioning = plain_kdtree_partition(medium_network, capacity)
        for region in partitioning.regions():
            size = sum(node_record_size(medium_network, n) for n in region.node_ids)
            assert size <= capacity

    def test_all_nodes_covered_exactly_once(self, medium_network):
        partitioning = plain_kdtree_partition(medium_network, 248)
        assigned = [n for region in partitioning.regions() for n in region.node_ids]
        assert sorted(assigned) == sorted(medium_network.node_ids())

    def test_split_tree_consistent_with_assignment(self, medium_network):
        partitioning = plain_kdtree_partition(medium_network, 248)
        validate_partitioning(partitioning)

    def test_single_region_when_everything_fits(self):
        network = random_planar_network(10, seed=1)
        partitioning = plain_kdtree_partition(network, 10_000)
        assert partitioning.num_regions == 1

    def test_capacity_smaller_than_a_record_rejected(self, medium_network):
        with pytest.raises(PartitionError):
            plain_kdtree_partition(medium_network, 8)

    def test_empty_network_rejected(self):
        with pytest.raises(PartitionError):
            plain_kdtree_partition(RoadNetwork(), 100)

    def test_handles_duplicate_coordinates_on_one_axis(self):
        """Nodes aligned on a vertical line force splits on the other axis."""
        network = RoadNetwork()
        for index in range(20):
            network.add_node(index, 1.0, float(index))
        for index in range(19):
            network.add_undirected_edge(index, index + 1, 1.0)
        partitioning = plain_kdtree_partition(network, 64)
        assert partitioning.num_regions >= 2
        validate_partitioning(partitioning)

    def test_region_count_scales_with_capacity(self, medium_network):
        small_pages = plain_kdtree_partition(medium_network, 200).num_regions
        large_pages = plain_kdtree_partition(medium_network, 800).num_regions
        assert small_pages > large_pages
