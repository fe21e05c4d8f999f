"""Tests for header, look-up and region-data file builders."""

import pytest

from repro.exceptions import SchemeError
from repro.partition import packed_kdtree_partition
from repro.schemes import QueryPlan, RoundSpec
from repro.schemes.files import (
    DATA_FILE,
    HeaderInfo,
    build_lookup_file,
    build_region_data_file,
    decode_region_pages,
    lookup_entries_per_page,
    read_lookup_entry,
)
from repro.storage import Database


def make_header(**overrides):
    defaults = dict(
        scheme_name="CI",
        page_size=256,
        num_regions=10,
        data_file="data",
        index_file="index",
        lookup_file="lookup",
        data_pages_per_region=1,
        data_page_offset=0,
        lookup_entries_per_page=64,
        index_fetch_pages=2,
        data_round_pages=7,
        num_index_pages=40,
        num_data_pages=10,
        num_lookup_pages=2,
        tree_splits=[(0, 2, 0.0, 3, 0)],
        plan=QueryPlan.from_rounds([RoundSpec(includes_header=True)]),
    )
    defaults.update(overrides)
    return HeaderInfo(**defaults)


class TestHeaderInfo:
    def test_encode_decode_round_trip(self, partitioning):
        header = make_header(
            num_regions=partitioning.num_regions, tree_splits=partitioning.tree_splits()
        )
        decoded = HeaderInfo.decode(header.encode())
        assert decoded.scheme_name == "CI"
        assert decoded.num_regions == partitioning.num_regions
        assert decoded.index_fetch_pages == 2
        assert decoded.data_round_pages == 7
        assert decoded.plan == header.plan
        assert decoded.tree_splits == partitioning.tree_splits()

    def test_region_of_point_matches_partitioning(self, small_network, partitioning):
        header = make_header(
            num_regions=partitioning.num_regions, tree_splits=partitioning.tree_splits()
        )
        for node in list(small_network.nodes())[::17]:
            assert header.region_of_point(node.x, node.y) == partitioning.region_of_node(
                node.node_id
            )

    def test_lookup_page_for(self):
        header = make_header(num_regions=10, lookup_entries_per_page=16)
        page, slot = header.lookup_page_for(0, 5)
        assert (page, slot) == (0, 5)
        page, slot = header.lookup_page_for(3, 7)  # index 37
        assert (page, slot) == (2, 5)

    def test_data_pages_for_region_with_clustering_and_offset(self):
        header = make_header(data_pages_per_region=3, data_page_offset=100)
        assert header.data_pages_for_regions([0]) == [100, 101, 102]
        assert header.data_pages_for_regions([2, 0]) == [106, 107, 108, 100, 101, 102]
        assert header.region_payloads([b"a", b"b", b"c", b"d", b"e", b"f"]) == [
            [b"a", b"b", b"c"], [b"d", b"e", b"f"]
        ]

    def test_index_window_clamps_at_file_end(self):
        header = make_header(index_fetch_pages=3, num_index_pages=10)
        assert header.index_pages_starting_at(0) == [0, 1, 2]
        assert header.index_pages_starting_at(9) == [7, 8, 9]
        assert header.index_pages_starting_at(8) == [7, 8, 9]

    def test_index_window_smaller_file_than_window(self):
        header = make_header(index_fetch_pages=5, num_index_pages=3)
        assert header.index_pages_starting_at(1) == [0, 1, 2]


class TestLookupFile:
    def test_entries_round_trip(self):
        database = Database(page_size=64)
        lookup = build_lookup_file(database, num_regions=5, index_page_of_pair=lambda i, j: i * 5 + j)
        entries_per_page = lookup_entries_per_page(64)
        for region_i in range(5):
            for region_j in range(5):
                index = region_i * 5 + region_j
                page = lookup.read_page(index // entries_per_page)
                assert read_lookup_entry(page, index % entries_per_page) == index

    def test_page_count(self):
        database = Database(page_size=64)
        lookup = build_lookup_file(database, num_regions=8, index_page_of_pair=lambda i, j: 0)
        assert lookup.num_pages == (64 + 15) // 16  # 64 entries of 4 bytes, 16 per page


class TestRegionDataFile:
    def test_single_page_regions_round_trip(self, small_network, partitioning, tiny_spec):
        database = Database(tiny_spec.page_size)
        data_file = build_region_data_file(database, small_network, partitioning, 1)
        assert data_file.num_pages == partitioning.num_regions
        for region in partitioning.regions():
            decoded = decode_region_pages([data_file.read_page(region.region_id)])
            assert set(decoded) == set(region.node_ids)

    def test_clustered_regions_round_trip(self, small_network, tiny_spec):
        pages_per_region = 2
        capacity = pages_per_region * tiny_spec.page_size - 8
        partitioning = packed_kdtree_partition(small_network, capacity)
        database = Database(tiny_spec.page_size)
        data_file = build_region_data_file(database, small_network, partitioning, pages_per_region)
        assert data_file.num_pages == pages_per_region * partitioning.num_regions
        for region in partitioning.regions():
            pages = [
                data_file.read_page(page_number)
                for page_number in range(
                    region.region_id * pages_per_region,
                    (region.region_id + 1) * pages_per_region,
                )
            ]
            decoded = decode_region_pages(pages)
            assert set(decoded) == set(region.node_ids)

    def test_oversized_region_rejected(self, small_network, partitioning):
        database = Database(page_size=32)  # far too small for any region payload
        with pytest.raises(SchemeError):
            build_region_data_file(database, small_network, partitioning, 1)
