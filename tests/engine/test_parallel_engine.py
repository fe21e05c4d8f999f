"""Tests for the sharded/pipelined side of the query engine."""

from pathlib import Path

import pytest

from repro.bench.workloads import generate_workload
from repro.engine import QueryEngine
from repro.exceptions import SchemeError
from repro.pir import numpy_available


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

    def test_schemes_without_prepare_split_run_pipelined(self, landmark_scheme, query_pairs):
        # LM uses the default prepare_query (no retrieve/solve split); the
        # pipelined sharded engine must still execute it correctly
        engine = QueryEngine(landmark_scheme)
        batch = engine.run_batch(query_pairs[:4], verify_costs=False, workers=2)
        assert batch.num_queries == 4
        assert batch.indistinguishable


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
        assert all(sum(pir.shard_load()) > 0 for pir in simulators[:2])

    def test_invalid_shard_count_rejected(self, ci_scheme):
        with pytest.raises(SchemeError):
            QueryEngine(ci_scheme, shards=0)


class TestProcessWorkers:
    """``worker_mode="process"``: CPU-bound solves run on a process pool."""

    def test_process_mode_matches_thread_mode(self, ci_scheme, query_pairs):
        thread = QueryEngine(ci_scheme).run_batch(query_pairs, workers=2)
        process = QueryEngine(ci_scheme).run_batch(
            query_pairs, workers=2, worker_mode="process"
        )
        assert process.worker_mode == "process"
        assert process.all_costs_correct and process.indistinguishable
        for thread_result, process_result in zip(thread.results, process.results):
            assert thread_result.path.nodes == process_result.path.nodes
            assert thread_result.path.cost == pytest.approx(
                process_result.path.cost, rel=1e-12
            )
            assert thread_result.adversary_view == process_result.adversary_view

    def test_process_mode_handles_schemes_without_remote_split(
        self, landmark_scheme, query_pairs
    ):
        # LM has no RemoteSolve; its eager prepared queries solve in-process
        engine = QueryEngine(landmark_scheme)
        batch = engine.run_batch(query_pairs[:4], verify_costs=False,
                                 workers=2, worker_mode="process")
        assert batch.num_queries == 4
        assert batch.indistinguishable

    def test_remote_solve_is_picklable(self, ci_scheme, pi_scheme, query_pairs):
        import pickle

        for scheme in (ci_scheme, pi_scheme):
            prepared = scheme.prepare_query(*query_pairs[0])
            assert prepared.remote is not None
            remote = pickle.loads(pickle.dumps(prepared.remote))
            assert remote.cache_key is not None
            path, solve_seconds = remote.function(*remote.args)
            assert path.nodes == prepared.solve().path.nodes
            assert solve_seconds >= 0.0

    def test_process_mode_hotspot_workload_matches_serial(self, ci_scheme, small_network):
        # repeated pairs exercise the engine's in-flight solve dedup
        from repro.bench.workloads import generate_hotspot_workload

        pairs = generate_hotspot_workload(
            small_network, count=12, seed=83, hot_pairs=3, hot_fraction=0.75
        )
        serial = QueryEngine(ci_scheme).run_batch(pairs, workers=1, pipeline=False)
        process = QueryEngine(ci_scheme).run_batch(pairs, workers=2, worker_mode="process")
        for serial_result, process_result in zip(serial.results, process.results):
            assert serial_result.path.nodes == process_result.path.nodes
            assert serial_result.adversary_view == process_result.adversary_view
            assert (
                serial_result.trace.private_page_requests()
                == process_result.trace.private_page_requests()
            )

    def test_process_mode_reuses_cached_assemblies(self, ci_scheme, query_pairs):
        # a warm context cache (from a thread-mode batch) short-circuits the
        # process pool: the repeated batch solves via in-process cache hits
        engine = QueryEngine(ci_scheme)
        engine.run_batch(query_pairs, verify_costs=False)
        warm = engine.run_batch(query_pairs, verify_costs=False, worker_mode="process")
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0
        assert warm.indistinguishable

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    @pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
    def test_process_batch_adds_nothing_to_dev_shm(self, ci_scheme, query_pairs):
        # workers only solve: every retrieval, and so every packed kernel,
        # stays in the engine's process and nothing is copied out for them
        shm = Path("/dev/shm")
        before = {entry.name for entry in shm.iterdir()}
        with QueryEngine(ci_scheme, shards=2, pir_kernel="numpy") as engine:
            batch = engine.run_batch(query_pairs, workers=2, worker_mode="process")
            assert batch.all_costs_correct and batch.indistinguishable
            assert {entry.name for entry in shm.iterdir()} - before == set()

    def test_finish_requires_remote_split(self, landmark_scheme, query_pairs):
        prepared = landmark_scheme.prepare_query(*query_pairs[0])
        assert prepared.remote is None
        with pytest.raises(SchemeError):
            prepared.finish(None, 0.0)


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
