"""Tests for the Section 4 full-materialisation space analysis."""

import pytest

from repro.costmodel import SystemSpec
from repro.exceptions import SchemeError
from networks import grid_network
from repro.schemes.full_materialization import (
    NODE_ID_BYTES,
    estimate_full_materialization_bytes,
    full_materialization_report,
    scaled_estimate,
)


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, jitter=0.1, seed=2)


class TestEstimate:
    def test_basic_shape(self, network):
        estimate = estimate_full_materialization_bytes(network, sample_sources=5)
        assert estimate.num_nodes == network.num_nodes
        assert estimate.sampled_pairs > 0
        assert estimate.mean_path_nodes >= 1.0
        assert estimate.total_bytes > 0

    def test_total_bytes_formula(self, network):
        estimate = estimate_full_materialization_bytes(network, sample_sources=5)
        expected = int(
            network.num_nodes * network.num_nodes * estimate.mean_path_nodes * NODE_ID_BYTES
        )
        assert estimate.total_bytes == expected

    def test_deterministic_for_fixed_seed(self, network):
        first = estimate_full_materialization_bytes(network, sample_sources=6, seed=3)
        second = estimate_full_materialization_bytes(network, sample_sources=6, seed=3)
        assert first == second

    def test_small_network_within_pir_limit(self, network):
        estimate = estimate_full_materialization_bytes(network, sample_sources=5)
        assert not estimate.exceeds_pir_limit

    def test_tiny_limit_flags_excess(self, network):
        spec = SystemSpec(max_file_bytes=1024)
        estimate = estimate_full_materialization_bytes(network, sample_sources=5, spec=spec)
        assert estimate.exceeds_pir_limit
        assert estimate.times_over_limit > 1.0

    def test_invalid_arguments(self, network):
        with pytest.raises(SchemeError):
            estimate_full_materialization_bytes(network, sample_sources=0)


class TestScaledEstimate:
    def test_scaling_grows_superquadratically(self, network):
        base = estimate_full_materialization_bytes(network, sample_sources=5)
        double = scaled_estimate(base, network.num_nodes * 2)
        assert double.total_bytes > 4 * base.total_bytes  # pairs alone give x4
        assert double.total_bytes < 16 * base.total_bytes

    def test_invalid_target(self, network):
        base = estimate_full_materialization_bytes(network, sample_sources=5)
        with pytest.raises(SchemeError):
            scaled_estimate(base, 0)


class TestReport:
    def test_report_row(self, network):
        row = full_materialization_report(network, paper_nodes=6105, sample_sources=5)
        assert row["nodes"] == network.num_nodes
        assert row["paper_scale_nodes"] == 6105
        assert row["paper_scale_gib"] > row["total_gib"]

    def test_report_without_paper_scale(self, network):
        row = full_materialization_report(network, sample_sources=5)
        assert "paper_scale_gib" not in row
