"""Tests for the benchmark harness components (datasets, workloads, runner, reporting)."""

import pytest

from repro.bench import (
    DATASETS,
    BuildCache,
    dataset_spec,
    format_series,
    format_table,
    generate_workload,
    load_dataset,
    run_obfuscation_workload,
    run_workload,
    system_spec_for,
    table2_system,
)
from repro.schemes import ObfuscationScheme
from networks import is_connected


class TestDatasets:
    def test_registry_matches_table1(self):
        assert set(DATASETS) == {
            "oldenburg",
            "germany",
            "argentina",
            "denmark",
            "india",
            "north_america",
        }
        assert dataset_spec("oldenburg").paper_nodes == 6105
        assert dataset_spec("north_america").paper_edges == 179179

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_spec("atlantis")

    def test_quick_profile_is_scaled_down(self):
        for spec in DATASETS.values():
            assert spec.quick_nodes < spec.paper_nodes
            assert spec.nodes_for("quick") == spec.quick_nodes
            assert spec.nodes_for("paper") == spec.paper_nodes

    def test_load_dataset_generates_connected_network(self):
        network = load_dataset("oldenburg", profile="quick")
        assert network.num_nodes == dataset_spec("oldenburg").quick_nodes
        assert is_connected(network)

    def test_load_dataset_is_deterministic(self):
        first = load_dataset("oldenburg")
        second = load_dataset("oldenburg")
        assert {(e.source, e.target) for e in first.edges()} == {
            (e.source, e.target) for e in second.edges()
        }

    def test_profiles_and_specs(self):
        assert system_spec_for("quick").page_size == 512
        assert system_spec_for("paper").page_size == 4096
        with pytest.raises(ValueError):
            system_spec_for("bogus")
        with pytest.raises(ValueError):
            dataset_spec("oldenburg").nodes_for("bogus")


class TestWorkloads:
    def test_workload_size_and_reproducibility(self, small_network):
        first = generate_workload(small_network, count=15, seed=1)
        second = generate_workload(small_network, count=15, seed=1)
        assert first == second
        assert len(first) == 15
        assert all(source != target for source, target in first)

class TestRunner:
    def test_run_workload_aggregates(self, ci_scheme, query_pairs):
        summary = run_workload(ci_scheme, query_pairs[:4])
        assert summary.scheme_name == "CI"
        assert summary.num_queries == 4
        assert summary.all_costs_correct
        assert summary.indistinguishable
        assert summary.mean_response_s > 0
        assert summary.mean_pir_s > 0
        assert summary.storage_mb == pytest.approx(ci_scheme.storage_mb)
        assert summary.mean_page_accesses["data"] == ci_scheme.plan.pages_per_file()["data"]

    def test_empty_workload_rejected(self, ci_scheme):
        from repro.exceptions import SchemeError

        with pytest.raises(SchemeError):
            run_workload(ci_scheme, [])

    def test_obfuscation_runner(self, small_network, tiny_spec, query_pairs):
        scheme = ObfuscationScheme(small_network, spec=tiny_spec, set_size=5)
        row = run_obfuscation_workload(scheme, query_pairs[:3])
        assert row["scheme"] == "OBF"
        assert row["set_size"] == 5
        assert row["response_s"] > 0


class TestReporting:
    def test_format_table_alignment_and_missing_values(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text and "c" in text
        assert "2.500" in text
        assert "-" in text  # missing value placeholder

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_series(self):
        text = format_series({1: 2.0, 2: 4.0}, "x", "y", title="curve")
        assert "curve" in text
        assert "4.000" in text

    def test_table2_rows(self):
        rows = table2_system()
        parameters = {row["parameter"] for row in rows}
        assert "Disk page size" in parameters
        assert "Communication round-trip time" in parameters


class TestBuildCache:
    def test_cache_memoises_networks_and_partitionings(self):
        cache = BuildCache("quick")
        first = cache.network("oldenburg")
        second = cache.network("oldenburg")
        assert first is second
        partition_first = cache.partitioning("oldenburg")
        partition_second = cache.partitioning("oldenburg")
        assert partition_first is partition_second
        cache.clear()
        assert cache.network("oldenburg") is not first

    def test_scheme_builder_invoked_once(self):
        cache = BuildCache("quick")
        calls = []

        def builder():
            calls.append(1)
            return object()

        first = cache.scheme(("key",), builder)
        second = cache.scheme(("key",), builder)
        assert first is second
        assert len(calls) == 1
