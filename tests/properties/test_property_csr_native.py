"""Property tests: the CSR-native client pipeline vs. the dict-merge oracles.

Every scheme's query path assembles its search graph straight into CSR form
(:mod:`repro.schemes.assembly`).  These tests re-run randomized workloads
with the assembly routed through the preserved ``reference_*`` dict-merge
oracles and assert that costs, paths, adversary views and the private access
traces are identical — and that sharding a batch across engine workers
changes nothing at all.
"""

from contextlib import contextmanager

import pytest

from repro.bench.workloads import generate_workload
from repro.engine import QueryEngine
from repro.network import CsrGraph
from repro.schemes import assembly


@contextmanager
def _reference_assembly():
    """Route scheme queries through the dict-merge reference oracles."""

    def region_csr(payload_groups):
        return CsrGraph.from_network(assembly.reference_region_graph(payload_groups))

    def passage_csr(payload_groups, index_pages, pair, entry=None):
        return CsrGraph.from_network(
            assembly.reference_passage_graph(payload_groups, index_pages, pair, entry)
        )

    saved = (assembly.assemble_region_csr, assembly.assemble_passage_csr)
    assembly.assemble_region_csr = region_csr
    assembly.assemble_passage_csr = passage_csr
    try:
        yield
    finally:
        assembly.assemble_region_csr, assembly.assemble_passage_csr = saved


def _assert_identical_batches(fast, reference):
    assert fast.indistinguishable and reference.indistinguishable
    for fast_result, reference_result in zip(fast.results, reference.results):
        assert fast_result.path.nodes == reference_result.path.nodes
        assert fast_result.path.cost == pytest.approx(
            reference_result.path.cost, rel=1e-12
        )
        assert fast_result.adversary_view == reference_result.adversary_view
        assert (
            fast_result.trace.private_page_requests()
            == reference_result.trace.private_page_requests()
        )
        assert fast_result.response.pir_s == reference_result.response.pir_s
        assert (
            fast_result.response.communication_s
            == reference_result.response.communication_s
        )


def _compare_against_oracle(scheme, network, seed, count=10):
    pairs = generate_workload(network, count=count, seed=seed)
    fast = QueryEngine(scheme).run_batch(pairs, verify_costs=True)
    with _reference_assembly():
        reference = QueryEngine(scheme).run_batch(pairs, verify_costs=True)
    assert fast.all_costs_correct
    assert reference.all_costs_correct
    _assert_identical_batches(fast, reference)


class TestCsrNativeMatchesDictMerge:
    @pytest.mark.parametrize("seed", [5, 17, 29])
    def test_ci_workloads(self, ci_scheme, small_network, seed):
        _compare_against_oracle(ci_scheme, small_network, seed)

    @pytest.mark.parametrize("seed", [5, 17, 29])
    def test_pi_workloads(self, pi_scheme, small_network, seed):
        _compare_against_oracle(pi_scheme, small_network, seed)

    def test_hybrid_workload(self, hybrid_scheme, small_network):
        # HY exercises both assembly branches (region sets and subgraphs)
        assert hybrid_scheme.num_replaced_pairs > 0
        _compare_against_oracle(hybrid_scheme, small_network, seed=11, count=12)

    def test_clustered_workload(self, clustered_scheme, small_network):
        _compare_against_oracle(clustered_scheme, small_network, seed=7, count=8)


class TestParallelExecutionIdentity:
    """``run_batch(workers=N)`` must be indistinguishable from serial runs."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_ci_parallel_matches_serial(self, ci_scheme, small_network, workers):
        pairs = generate_workload(small_network, count=9, seed=23)
        serial = QueryEngine(ci_scheme).run_batch(pairs, workers=1)
        parallel = QueryEngine(ci_scheme).run_batch(pairs, workers=workers)
        assert parallel.workers == workers
        assert parallel.all_costs_correct == serial.all_costs_correct
        assert parallel.true_costs == serial.true_costs
        _assert_identical_batches(serial, parallel)

    def test_pi_parallel_matches_serial(self, pi_scheme, small_network):
        pairs = generate_workload(small_network, count=8, seed=31)
        serial = QueryEngine(pi_scheme).run_batch(pairs, workers=1)
        parallel = QueryEngine(pi_scheme).run_batch(pairs, workers=4)
        _assert_identical_batches(serial, parallel)


class TestShardModeIdentity:
    """Every (shards, workers) combination must produce
    bit-identical paths, traces and adversary views to the serial engine."""

    @pytest.mark.parametrize(
        "shards,workers", [(2, 2), (4, 1), (4, 3), (2, 3), (3, 1), (3, 2)]
    )
    def test_ci_matrix_matches_serial(self, ci_scheme, small_network, shards, workers):
        pairs = generate_workload(small_network, count=8, seed=61)
        serial = QueryEngine(ci_scheme).run_batch(pairs, workers=1)
        combined = QueryEngine(ci_scheme, shards=shards).run_batch(pairs, workers=workers)
        assert combined.shards == shards
        assert combined.all_costs_correct == serial.all_costs_correct
        assert combined.true_costs == serial.true_costs
        _assert_identical_batches(serial, combined)

    @pytest.mark.parametrize("shards,workers", [(3, 2), (2, 3)])
    def test_pi_matrix_matches_serial(self, pi_scheme, small_network, shards, workers):
        pairs = generate_workload(small_network, count=8, seed=67)
        serial = QueryEngine(pi_scheme).run_batch(pairs, workers=1)
        combined = QueryEngine(pi_scheme, shards=shards).run_batch(pairs, workers=workers)
        _assert_identical_batches(serial, combined)

    def test_hybrid_threads_match_serial(self, hybrid_scheme, small_network):
        # HY exercises both solve branches (region sets and subgraphs)
        pairs = generate_workload(small_network, count=10, seed=71)
        serial = QueryEngine(hybrid_scheme).run_batch(pairs, workers=1)
        combined = QueryEngine(hybrid_scheme, shards=2).run_batch(pairs, workers=2)
        _assert_identical_batches(serial, combined)

    def test_range_sharding_matches_serial(self, ci_scheme, small_network):
        pairs = generate_workload(small_network, count=6, seed=73)
        serial = QueryEngine(ci_scheme).run_batch(pairs, workers=1)
        ranged = QueryEngine(ci_scheme, shards=3, shard_strategy="range").run_batch(
            pairs, workers=2
        )
        _assert_identical_batches(serial, ranged)
