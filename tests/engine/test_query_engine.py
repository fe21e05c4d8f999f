"""Tests for the batched query engine and its LRU page cache."""

import threading

import pytest

from repro.engine import BatchResult, LruCache, NullCache, QueryEngine
from repro.exceptions import SchemeError


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 0

    def test_miss_counts(self):
        cache = LruCache(4)
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh "a"; "b" is now the oldest
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)    # refresh, not insert: nothing evicted
        cache.put("c", 3)     # evicts "b" (oldest), not "a"
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_clear(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_get_put_stays_consistent(self):
        """Concurrent users of one cache: threads fill the cache while
        others read it.  The cache must never exceed capacity, never lose
        accounting, and never raise from the concurrent dict mutation."""
        cache = LruCache(32)
        keys = [f"page-{index}" for index in range(100)]
        errors = []
        barrier = threading.Barrier(4)

        def writer(offset):
            try:
                barrier.wait()
                for _ in range(5):
                    for index, key in enumerate(keys):
                        cache.put(key, index + offset)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                barrier.wait()
                for _ in range(5):
                    for key in keys:
                        value = cache.get(key)
                        assert value is None or isinstance(value, int)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(0,)),
            threading.Thread(target=writer, args=(1000,)),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == 2 * 5 * len(keys)


class TestNullCache:
    def test_every_get_misses(self):
        cache = NullCache()
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.misses == 1
        assert cache.hits == 0
        assert len(cache) == 0
        assert "a" not in cache
        cache.clear()


class TestQueryEngine:
    def test_single_query_matches_scheme(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        source, target = query_pairs[0]
        engine_result = engine.execute(source, target)
        direct_result = ci_scheme.query(source, target)
        assert engine_result.path.cost == pytest.approx(direct_result.path.cost)
        assert engine_result.adversary_view == direct_result.adversary_view

    def test_batch_verifies_costs_and_views(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(query_pairs)
        assert isinstance(batch, BatchResult)
        assert batch.num_queries == len(query_pairs)
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch.true_costs is not None
        for pair, result in zip(batch.pairs, batch.results):
            assert result.path.cost == pytest.approx(batch.true_costs[pair], rel=1e-4)

    def test_batch_shares_decoded_pages(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        first = engine.run_batch(query_pairs, verify_costs=False)
        second = engine.run_batch(query_pairs, verify_costs=False)
        # the header alone guarantees hits from the second query onward,
        # and the repeated batch should be served almost entirely from cache
        assert first.cache_hits > 0
        assert second.cache_hits > first.cache_hits or second.cache_misses == 0
        assert second.cache_misses <= first.cache_misses

    def test_batch_without_verification_skips_truth(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(query_pairs[:2], verify_costs=False)
        assert batch.true_costs is None
        assert batch.all_costs_correct  # vacuously true

    def test_empty_batch_returns_empty_result(self, ci_scheme):
        """Regression: ``run_batch([])`` used to crash — ``min(workers, 0)``
        produced ``ThreadPoolExecutor(max_workers=0)`` → ``ValueError``."""
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch([])
        assert isinstance(batch, BatchResult)
        assert batch.num_queries == 0
        assert batch.workers == 0
        assert batch.results == []
        assert batch.pairs == []
        assert batch.true_costs == {}
        assert batch.all_costs_correct
        assert batch.indistinguishable
        assert batch.queries_per_second == 0.0
        assert batch.mean_response_s == 0.0

    def test_empty_batch_without_verification(self, ci_scheme):
        batch = QueryEngine(ci_scheme).run_batch([], verify_costs=False, workers=4)
        assert batch.num_queries == 0
        assert batch.true_costs is None

    def test_disabled_cache_counts_misses_only(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme, cache_entries=0)
        first = engine.run_batch(query_pairs, verify_costs=False)
        second = engine.run_batch(query_pairs, verify_costs=False)
        assert first.cache_hits == 0
        assert second.cache_hits == 0  # nothing is ever retained
        assert second.cache_misses > 0
        assert second.all_costs_correct

    def test_disabled_cache_matches_cached_results(self, ci_scheme, query_pairs):
        cached = QueryEngine(ci_scheme).run_batch(query_pairs, verify_costs=False)
        uncached = QueryEngine(ci_scheme, cache_entries=0).run_batch(
            query_pairs, verify_costs=False
        )
        for with_cache, without_cache in zip(cached.results, uncached.results):
            assert with_cache.path.nodes == without_cache.path.nodes
            assert with_cache.adversary_view == without_cache.adversary_view

    def test_negative_cache_entries_rejected(self, ci_scheme):
        with pytest.raises(SchemeError):
            QueryEngine(ci_scheme, cache_entries=-1)

    def test_throughput_metrics(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(query_pairs[:3], verify_costs=False)
        assert batch.wall_seconds > 0.0
        assert batch.queries_per_second > 0.0
        assert 0.0 <= batch.cache_hit_rate <= 1.0

    def test_engine_works_across_schemes(self, pi_scheme, query_pairs):
        engine = QueryEngine(pi_scheme)
        batch = engine.run_batch(query_pairs[:4])
        assert batch.all_costs_correct
        assert batch.indistinguishable
