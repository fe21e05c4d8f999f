"""Tests for the sharded, multi-worker side of the query engine."""

import threading

import pytest

from repro.bench.workloads import generate_hotspot_workload, generate_workload
from repro.engine import QueryEngine
from repro.exceptions import SchemeError


class TestWorkerSharding:
    def test_invalid_worker_count_rejected(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        with pytest.raises(SchemeError):
            engine.run_batch(query_pairs, workers=0)

    def test_workers_capped_at_batch_size(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(query_pairs[:3], verify_costs=False, workers=10)
        assert batch.workers == 3
        assert batch.num_queries == 3

    def test_serial_batch_reports_one_worker(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(query_pairs[:2], verify_costs=False)
        assert batch.workers == 1

    def test_results_preserve_input_order(self, ci_scheme, small_network):
        pairs = generate_workload(small_network, count=10, seed=51)
        engine = QueryEngine(ci_scheme)
        batch = engine.run_batch(pairs, verify_costs=True, workers=3)
        assert batch.pairs == pairs
        assert batch.all_costs_correct
        for pair, result in zip(batch.pairs, batch.results):
            assert result.path.cost == pytest.approx(batch.true_costs[pair], rel=1e-4)

    def test_parallel_batch_verifies_views_and_costs(self, pi_scheme, query_pairs):
        engine = QueryEngine(pi_scheme)
        batch = engine.run_batch(query_pairs, workers=2)
        assert batch.indistinguishable
        assert batch.all_costs_correct

    def test_worker_caches_persist_across_batches(self, ci_scheme, query_pairs):
        engine = QueryEngine(ci_scheme)
        first = engine.run_batch(query_pairs, verify_costs=False, workers=2)
        second = engine.run_batch(query_pairs, verify_costs=False, workers=2)
        assert first.cache_hits + first.cache_misses > 0
        # the reused worker caches already hold every decoded page and graph
        assert second.cache_misses == 0
        assert second.cache_hits > 0

    def test_schemes_without_prepare_split_run_on_threads(self, landmark_scheme, query_pairs):
        # LM uses the default prepare_query (no retrieve/solve split); the
        # multi-worker engine must still execute it, with the serial results
        serial = QueryEngine(landmark_scheme).run_batch(query_pairs, verify_costs=False)
        threaded = QueryEngine(landmark_scheme).run_batch(
            query_pairs, verify_costs=False, workers=2
        )
        assert threaded.num_queries == len(query_pairs)
        assert threaded.indistinguishable
        for serial_result, threaded_result in zip(serial.results, threaded.results):
            assert serial_result.path.nodes == threaded_result.path.nodes
            assert serial_result.adversary_view == threaded_result.adversary_view

    def test_hotspot_workload_on_threads_matches_serial(self, ci_scheme, small_network):
        # repeated pairs share one worker's cached assemblies across queries
        pairs = generate_hotspot_workload(
            small_network, count=12, seed=83, hot_pairs=3, hot_fraction=0.75
        )
        serial = QueryEngine(ci_scheme).run_batch(pairs, workers=1)
        threaded = QueryEngine(ci_scheme).run_batch(pairs, workers=2)
        for serial_result, threaded_result in zip(serial.results, threaded.results):
            assert serial_result.path.nodes == threaded_result.path.nodes
            assert serial_result.adversary_view == threaded_result.adversary_view
            assert (
                serial_result.trace.private_page_requests()
                == threaded_result.trace.private_page_requests()
            )

    def test_multi_pair_batch_starts_no_helper_thread(
        self, ci_scheme, small_network, monkeypatch
    ):
        # one worker runs prepare -> solve in sequence on the calling thread
        pairs = generate_workload(small_network, count=8, seed=89)
        engine = QueryEngine(ci_scheme)
        started = []
        original_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        batch = engine.run_batch(pairs, verify_costs=False, workers=1)
        assert batch.num_queries == 8
        assert started == []


class TestShardedEngine:
    """``QueryEngine(shards=S)``: worker contexts own per-shard connections."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_store_matches_unsharded(self, ci_scheme, query_pairs, shards):
        plain = QueryEngine(ci_scheme).run_batch(query_pairs, verify_costs=False)
        sharded = QueryEngine(ci_scheme, shards=shards).run_batch(
            query_pairs, verify_costs=False, workers=2
        )
        assert sharded.shards == shards
        for plain_result, sharded_result in zip(plain.results, sharded.results):
            assert plain_result.path.nodes == sharded_result.path.nodes
            assert plain_result.adversary_view == sharded_result.adversary_view
            assert (
                plain_result.trace.private_page_requests()
                == sharded_result.trace.private_page_requests()
            )

    def test_worker_contexts_own_distinct_shard_connections(self, ci_scheme, query_pairs):
        from repro.pir import ShardedPirSimulator

        engine = QueryEngine(ci_scheme, shards=3)
        engine.run_batch(query_pairs, verify_costs=False, workers=2)
        contexts = engine._contexts
        assert len(contexts) >= 2
        simulators = [context.pir for context in contexts]
        assert all(isinstance(pir, ShardedPirSimulator) for pir in simulators)
        assert len({id(pir) for pir in simulators}) == len(simulators)
        # both contexts actually served pages through their own connections
        assert all(sum(shard.pages_served for shard in pir.shards) > 0 for pir in simulators[:2])

    def test_invalid_shard_count_rejected(self, ci_scheme):
        with pytest.raises(SchemeError):
            QueryEngine(ci_scheme, shards=0)


class TestPreparedQueries:
    def test_prepare_then_solve_matches_query(self, ci_scheme, query_pairs):
        source, target = query_pairs[0]
        prepared = ci_scheme.prepare_query(source, target)
        from_prepared = prepared.solve()
        direct = ci_scheme.query(source, target)
        assert from_prepared.path.nodes == direct.path.nodes
        assert from_prepared.adversary_view == direct.adversary_view

    def test_default_prepare_runs_query_eagerly(self, landmark_scheme, query_pairs):
        source, target = query_pairs[0]
        prepared = landmark_scheme.prepare_query(source, target)
        result = prepared.solve()
        assert result.path.cost > 0
