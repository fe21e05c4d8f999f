"""Tests for regions, partitionings and the split tree."""

import pytest

from client_decode_reference import tree_from_splits
from networks import validate_partitioning
from repro.exceptions import PartitionError
from repro.network import RoadNetwork
from repro.partition import LeafNode, Partitioning, Region, SplitNode


def tiny_network():
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    network.add_node(1, 1.0, 0.0)
    network.add_node(2, 5.0, 0.0)
    network.add_node(3, 6.0, 0.0)
    network.add_undirected_edge(0, 1, 1.0)
    network.add_undirected_edge(1, 2, 4.0)
    network.add_undirected_edge(2, 3, 1.0)
    return network


def tiny_partitioning():
    network = tiny_network()
    regions = [Region(0, (0, 1)), Region(1, (2, 3))]
    tree = SplitNode(0, 5.0, LeafNode(0), LeafNode(1))
    return network, Partitioning(network, regions, tree)


class TestPartitioning:
    def test_region_of_node(self):
        _, partitioning = tiny_partitioning()
        assert partitioning.region_of_node(0) == 0
        assert partitioning.region_of_node(3) == 1

    def test_region_of_point(self):
        _, partitioning = tiny_partitioning()
        assert partitioning.region_of_point(0.5, 0.0) == 0
        assert partitioning.region_of_point(5.5, 0.0) == 1
        # exactly at the split value goes right (strict less-than goes left)
        assert partitioning.region_of_point(5.0, 0.0) == 1

    def test_validate_passes_for_consistent_partitioning(self):
        _, partitioning = tiny_partitioning()
        validate_partitioning(partitioning)

    def test_validate_detects_inconsistency(self):
        network = tiny_network()
        regions = [Region(0, (0, 2)), Region(1, (1, 3))]  # nodes swapped across the split
        tree = SplitNode(0, 5.0, LeafNode(0), LeafNode(1))
        partitioning = Partitioning(network, regions, tree)
        with pytest.raises(PartitionError):
            validate_partitioning(partitioning)

    def test_duplicate_node_assignment_rejected(self):
        network = tiny_network()
        regions = [Region(0, (0, 1)), Region(1, (1, 2, 3))]
        tree = SplitNode(0, 5.0, LeafNode(0), LeafNode(1))
        with pytest.raises(PartitionError):
            Partitioning(network, regions, tree)

    def test_unassigned_node_rejected(self):
        network = tiny_network()
        regions = [Region(0, (0, 1))]
        with pytest.raises(PartitionError):
            Partitioning(network, regions, LeafNode(0))

    def test_unknown_region_lookup(self):
        _, partitioning = tiny_partitioning()
        with pytest.raises(PartitionError):
            partitioning.region(5)
        with pytest.raises(PartitionError):
            partitioning.region_of_node(99)

    def test_tree_splits_round_trip(self):
        _, partitioning = tiny_partitioning()
        records = partitioning.tree_splits()
        rebuilt = tree_from_splits(records)
        assert isinstance(rebuilt, SplitNode)
        assert rebuilt.value == 5.0
        assert isinstance(rebuilt.left, LeafNode)
        assert rebuilt.left.region_id == 0
        assert rebuilt.right.region_id == 1

    def test_accessors(self):
        _, partitioning = tiny_partitioning()
        assert partitioning.num_regions == 2
        assert [region.region_id for region in partitioning.regions()] == [0, 1]
        assert list(partitioning.region_ids()) == [0, 1]
        assert partitioning.region(0).num_nodes == 2
