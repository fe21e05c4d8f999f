"""Tests for the sharded PIR layer (shard maps, the sharded simulator)."""

import pytest

from repro.costmodel import SystemSpec
from repro.exceptions import PirError
from repro.pir import (
    AccessTrace,
    ShardMap,
    ShardedPirSimulator,
    UsablePirSimulator,
)


class TestShardMap:
    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    @pytest.mark.parametrize("num_blocks,num_shards", [(10, 3), (7, 7), (16, 4), (5, 1), (9, 2)])
    def test_locate_global_roundtrip(self, strategy, num_blocks, num_shards):
        shard_map = ShardMap(num_blocks, num_shards, strategy)
        seen = set()
        for index in range(num_blocks):
            shard, local = shard_map.locate(index)
            assert 0 <= shard < num_shards
            assert shard_map.global_index(shard, local) == index
            seen.add((shard, local))
        assert len(seen) == num_blocks  # the mapping is a bijection

    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    def test_shard_sizes_balanced(self, strategy):
        shard_map = ShardMap(11, 4, strategy)
        sizes = shard_map.shard_sizes()
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    def test_each_shard_holds_local_pages_zero_to_size(self, strategy):
        """Grouping the blocks by :meth:`ShardMap.locate` gives every shard
        the dense local range ``0 .. size - 1`` its page store serves."""
        shard_map = ShardMap(13, 3, strategy)
        locals_by_shard = [[] for _ in range(3)]
        for index in range(13):
            shard, local = shard_map.locate(index)
            locals_by_shard[shard].append(local)
        assert [sorted(found) for found in locals_by_shard] == [
            list(range(size)) for size in shard_map.shard_sizes()
        ]

    def test_range_shards_are_contiguous(self):
        shard_map = ShardMap(10, 3, "range")
        shards = [shard_map.shard_of(index) for index in range(10)]
        assert shards == sorted(shards)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(PirError):
            ShardMap(0, 1)
        with pytest.raises(PirError):
            ShardMap(4, 0)
        with pytest.raises(PirError):
            ShardMap(4, 2, "hash")
        shard_map = ShardMap(4, 2)
        with pytest.raises(PirError):
            shard_map.locate(4)
        with pytest.raises(PirError):
            shard_map.global_index(2, 0)


@pytest.fixture(scope="module")
def ci_database():
    from repro.network import random_planar_network
    from repro.schemes import ConciseIndexScheme

    network = random_planar_network(120, seed=3)
    scheme = ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))
    return scheme.database, scheme.spec


class TestShardedPirSimulator:
    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    def test_identical_to_unsharded_simulator(self, ci_database, strategy):
        database, spec = ci_database
        base = UsablePirSimulator(database, spec=spec, enforce_limits=False)
        sharded = ShardedPirSimulator(
            database, spec=spec, enforce_limits=False, num_shards=4, strategy=strategy
        )
        base_trace, sharded_trace = AccessTrace(), AccessTrace()
        base_trace.begin_round()
        sharded_trace.begin_round()
        for file_name in database.file_names():
            for page in range(database.file(file_name).num_pages):
                assert base.retrieve_page(file_name, page, base_trace) == \
                    sharded.retrieve_page(file_name, page, sharded_trace)
        assert base_trace.adversary_view() == sharded_trace.adversary_view()
        assert base_trace.private_page_requests() == sharded_trace.private_page_requests()
        assert base.simulated_pir_time_s == sharded.simulated_pir_time_s

    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_xor_reads_match_stored_pages(self, ci_database, strategy, num_shards):
        database, spec = ci_database
        sharded = ShardedPirSimulator(
            database,
            spec=spec,
            enforce_limits=False,
            num_shards=num_shards,
            strategy=strategy,
            xor_kernel="bigint",
        )
        page_file = database.file("data")
        pages = [(7 * index) % page_file.num_pages for index in range(40)]
        assert sharded.retrieve_pages("data", pages) == [
            page_file.read_page(page) for page in pages
        ]
        assert len(sharded.shard_load()) == num_shards
        assert sum(sharded.shard_load()) == len(pages)

    def test_each_shard_sees_only_its_own_sub_batch(self, ci_database):
        database, spec = ci_database
        sharded = ShardedPirSimulator(
            database,
            spec=spec,
            enforce_limits=False,
            num_shards=3,
            xor_kernel="bigint",
            log_queries=True,
        )
        num_pages = database.file("data").num_pages
        sharded.retrieve_pages("data", list(range(num_pages)))
        sizes = [counts["data"] for counts in sharded.shard_page_counts()]
        for shard_id, size in enumerate(sizes):
            subsets = [
                subset
                for file_name, shard, subset in sharded.queries_seen
                if file_name == "data" and shard == shard_id
            ]
            assert len(subsets) == 2 * size  # share A and share B per page
            assert all(index < size for subset in subsets for index in subset)

    def test_every_page_owned_by_exactly_one_shard(self, ci_database):
        database, spec = ci_database
        sharded = ShardedPirSimulator(
            database, spec=spec, enforce_limits=False, num_shards=3
        )
        for counts in sharded.shard_page_counts():
            assert all(owned > 0 for owned in counts.values())
        for file_name in database.file_names():
            num_pages = database.file(file_name).num_pages
            owned_total = sum(
                counts.get(file_name, 0) for counts in sharded.shard_page_counts()
            )
            assert owned_total == num_pages

    def test_batched_retrieval_matches_sequential(self, ci_database):
        database, spec = ci_database
        base = UsablePirSimulator(database, spec=spec, enforce_limits=False)
        sharded = ShardedPirSimulator(
            database, spec=spec, enforce_limits=False, num_shards=4
        )
        num_pages = database.file("data").num_pages
        pages = [index % num_pages for index in range(2 * num_pages + 3)]
        base_trace, sharded_trace = AccessTrace(), AccessTrace()
        base_trace.begin_round()
        sharded_trace.begin_round()
        assert sharded.retrieve_pages("data", pages, sharded_trace) == \
            base.retrieve_pages("data", pages, base_trace)
        assert base_trace.private_page_requests() == sharded_trace.private_page_requests()
        assert sum(sharded.shard_load()) == len(pages)

    def test_shard_load_tracks_serving(self, ci_database):
        database, spec = ci_database
        sharded = ShardedPirSimulator(
            database, spec=spec, enforce_limits=False, num_shards=2
        )
        assert sharded.shard_load() == [0, 0]
        sharded.retrieve_page("data", 0)
        sharded.retrieve_page("data", 1)
        assert sum(sharded.shard_load()) == 2

    def test_out_of_range_page_rejected(self, ci_database):
        database, spec = ci_database
        sharded = ShardedPirSimulator(
            database, spec=spec, enforce_limits=False, num_shards=2
        )
        num_pages = database.file("data").num_pages
        with pytest.raises(PirError):
            sharded.retrieve_page("data", num_pages)
        with pytest.raises(PirError):
            sharded.retrieve_pages("data", [0, num_pages])

    @pytest.mark.parametrize("strategy", ["round-robin", "range"])
    def test_store_views_share_one_kernel_per_shard(self, ci_database, strategy):
        # every view over the same database and layout (one per engine,
        # worker context or shard server) answers off the same packed image,
        # whose block l is the shard's local page l
        from repro.pir import ShardedPageStore

        database, _ = ci_database
        one = ShardedPageStore(database, num_shards=2, strategy=strategy)
        two = ShardedPageStore(database, num_shards=2, strategy=strategy)
        for file_name, file_map in one.maps.items():
            page_file = database.file(file_name)
            for shard_id in range(file_map.num_shards):
                kernel = one.shard_kernel(shard_id, file_name, "bigint")
                assert two.shard_kernel(shard_id, file_name, "bigint") is kernel
                size = file_map.shard_sizes()[shard_id]
                assert kernel.num_blocks == size
                for local in range(size):
                    assert kernel.answer_indices([local]) == page_file.read_page(
                        file_map.global_index(shard_id, local)
                    )

    def test_sharded_store_holds_no_page_copies(self, ci_database):
        # regression: ShardedPageStore used to materialize every shard's
        # pages into per-shard lists, duplicating the whole database in RAM;
        # it is now a pure index view over the backing page stores
        from repro.pir import ShardedPageStore

        database, _ = ci_database
        store = ShardedPageStore(database, num_shards=4)
        assert store.resident_page_bytes == 0
        # and it still serves real bytes, straight from the backing store
        page_file = database.file("data")
        local = store.locate("data", 0)[1]
        shard_of_page_zero = store.locate("data", 0)[0]
        assert store.read_local_batch(shard_of_page_zero, "data", [local]) == [
            page_file.read_page(0)
        ]
