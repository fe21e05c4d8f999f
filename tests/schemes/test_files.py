"""Tests for header, look-up and region-data file builders."""

import pytest

from repro.exceptions import SchemeError, StorageError
from repro.partition import packed_kdtree_partition
from repro.schemes import QueryPlan, RoundSpec
from repro.schemes.files import (
    DATA_FILE,
    HeaderInfo,
    build_lookup_file,
    build_region_data_file,
    decode_region_bytes,
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


#: A three-record split tree: record 0 splits x at 0.5 into leaves 1 and 2.
SPLITS = [(0, 0, 0.5, 1, 2), (1, 2, 0.0, 4, 0), (2, 2, 0.0, 9, 0)]
SPLIT_RECORD_BYTES = 11  # one-byte axis, float64 value, one-byte children


def _encoded_layout():
    """A header's bytes plus the offsets of its split table and plan."""
    header = make_header(tree_splits=SPLITS)
    data = header.encode()
    plan_start = len(data) - len(header.plan.encode())
    splits_start = plan_start - SPLIT_RECORD_BYTES * len(SPLITS)
    return data, splits_start, plan_start


class TestHostileHeader:
    """Bytes from the (untrusted) LBS fail with StorageError, never untyped."""

    def test_split_walk_routes_both_sides(self):
        header = HeaderInfo.decode(_encoded_layout()[0])
        assert header.region_of_point(0.25, 0.0) == 4
        assert header.region_of_point(0.5, 0.0) == 9  # ties go right

    @pytest.mark.parametrize(
        "where",
        ["scheme-name", "fixed-fields", "page-counts", "split-count", "split-record", "plan"],
    )
    def test_truncation_raises_storage_error(self, where):
        data, splits_start, plan_start = _encoded_layout()
        cut = {
            "scheme-name": 2,
            "fixed-fields": 5,
            "page-counts": splits_start - 10,
            "split-count": splits_start - 1,
            "split-record": splits_start + 4,
            "plan": plan_start + 1,
        }[where]
        with pytest.raises(StorageError):
            HeaderInfo.decode(data[:cut])

    def test_short_header_bytes(self):
        with pytest.raises(StorageError):
            HeaderInfo.decode(b"\x03abc\x01")

    def test_axis_out_of_range_rejected_by_decode(self):
        data = make_header(tree_splits=[(0, 3, 0.5, 1, 2)] + SPLITS[1:]).encode()
        with pytest.raises(StorageError, match="axis 3"):
            HeaderInfo.decode(data)

    def test_axis_out_of_range_rejected_by_walk(self):
        header = make_header(tree_splits=[(0, 7, 0.5, 1, 2)] + SPLITS[1:])
        with pytest.raises(StorageError):
            header.region_of_point(0.0, 0.0)

    def test_child_out_of_range(self):
        header = HeaderInfo.decode(make_header(tree_splits=[(0, 0, 0.5, 1, 5)] + SPLITS[1:]).encode())
        assert header.region_of_point(0.0, 0.0) == 4
        with pytest.raises(StorageError):
            header.region_of_point(1.0, 0.0)

    def test_cycle(self):
        header = HeaderInfo.decode(make_header(tree_splits=[(0, 1, 0.5, 0, 0)]).encode())
        with pytest.raises(StorageError):
            header.region_of_point(0.0, 0.0)

    def test_empty_split_table(self):
        with pytest.raises(StorageError):
            make_header(tree_splits=[]).region_of_point(0.0, 0.0)

    def test_zero_lookup_entries_per_page(self):
        header = HeaderInfo.decode(make_header(lookup_entries_per_page=0).encode())
        with pytest.raises(StorageError, match="0 look-up entries"):
            header.lookup_page_for(1, 2)  # it divides by the count


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

    def test_slot_past_page_end(self):
        page = bytes(64)
        assert read_lookup_entry(page, 15) == 0
        with pytest.raises(StorageError):
            read_lookup_entry(page, 16)

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
            decoded = decode_region_bytes(data_file.read_page(region.region_id))
            assert list(decoded.ids) == list(region.node_ids)

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
            decoded = decode_region_bytes(b"".join(pages))
            assert list(decoded.ids) == list(region.node_ids)

    def test_oversized_region_rejected(self, small_network, partitioning):
        database = Database(page_size=32)  # far too small for any region payload
        with pytest.raises(SchemeError):
            build_region_data_file(database, small_network, partitioning, 1)
