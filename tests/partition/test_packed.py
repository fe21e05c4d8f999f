"""Tests for the packed KD-tree partitioner (Section 5.6)."""

import pytest

from networks import validate_partitioning
from repro.exceptions import PartitionError
from repro.network import RoadNetwork, random_planar_network
from repro.partition import (
    node_record_size,
    packed_kdtree_partition,
    plain_kdtree_partition,
)


def region_payload_size(network, region):
    return sum(node_record_size(network, node_id) for node_id in region.node_ids)


class TestPackedKdTree:
    def test_every_region_fits_the_capacity(self, medium_network):
        capacity = 248
        partitioning = packed_kdtree_partition(medium_network, capacity)
        for region in partitioning.regions():
            assert region_payload_size(medium_network, region) <= capacity

    def test_all_nodes_covered(self, medium_network):
        partitioning = packed_kdtree_partition(medium_network, 248)
        assigned = [n for region in partitioning.regions() for n in region.node_ids]
        assert sorted(assigned) == sorted(medium_network.node_ids())

    def test_split_tree_consistent_with_assignment(self, medium_network):
        partitioning = packed_kdtree_partition(medium_network, 248)
        validate_partitioning(partitioning)

    def test_utilization_beats_plain_partitioning(self, medium_network):
        """The headline claim of Section 5.6: packed pages are nearly full.

        The guarantee is at most one (maximum-size) record of waste per page,
        so the comparison uses a page capacity several times larger than a
        record, as in the paper's setting.
        """
        capacity = 504
        packed = packed_kdtree_partition(medium_network, capacity)
        plain = plain_kdtree_partition(medium_network, capacity)

        def utilization(partitioning):
            total = sum(
                region_payload_size(medium_network, region) for region in partitioning.regions()
            )
            return total / (partitioning.num_regions * capacity)

        assert utilization(packed) > utilization(plain)
        assert utilization(packed) > 0.80

    def test_utilization_exceeds_95_percent_at_paper_page_size(self):
        network = random_planar_network(1600, seed=5)
        capacity = 4088
        partitioning = packed_kdtree_partition(network, capacity)
        total = sum(region_payload_size(network, region) for region in partitioning.regions())
        assert total / (partitioning.num_regions * capacity) > 0.9

    def test_fewer_regions_than_plain(self, medium_network):
        capacity = 504
        packed = packed_kdtree_partition(medium_network, capacity)
        plain = plain_kdtree_partition(medium_network, capacity)
        assert packed.num_regions <= plain.num_regions

    def test_single_region_when_everything_fits(self):
        network = random_planar_network(10, seed=1)
        partitioning = packed_kdtree_partition(network, 10_000)
        assert partitioning.num_regions == 1

    def test_capacity_without_leeway_rejected(self, medium_network):
        largest = max(node_record_size(medium_network, n) for n in medium_network.node_ids())
        with pytest.raises(PartitionError):
            packed_kdtree_partition(medium_network, largest)

    def test_empty_network_rejected(self):
        with pytest.raises(PartitionError):
            packed_kdtree_partition(RoadNetwork(), 100)

    def test_clustered_capacity_reduces_region_count(self, medium_network):
        single = packed_kdtree_partition(medium_network, 248)
        clustered = packed_kdtree_partition(medium_network, 2 * 248)
        assert clustered.num_regions < single.num_regions
