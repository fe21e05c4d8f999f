"""Tests for the response-time cost model."""

import pytest

from repro.costmodel import (
    CostModel,
    ResponseTime,
    SystemSpec,
    communication_time,
    pir_page_retrieval_time,
)


class TestPirPageRetrievalTime:
    def test_grows_with_file_size(self):
        spec = SystemSpec()
        small = pir_page_retrieval_time(1024, spec)
        large = pir_page_retrieval_time(1024 * 1024, spec)
        assert large > small

    def test_gigabyte_file_costs_on_the_order_of_a_second(self):
        """The paper reports ~1 s per page for a GByte file on the IBM 4764."""
        spec = SystemSpec()
        pages_in_gigabyte = 2**30 // spec.page_size
        cost = pir_page_retrieval_time(pages_in_gigabyte, spec)
        assert 0.3 < cost < 3.0

    def test_much_slower_than_plain_read(self):
        spec = SystemSpec()
        plain_read_s = spec.disk_seek_s + spec.page_size / spec.disk_rate_bps
        assert pir_page_retrieval_time(2**18, spec) > 10 * plain_read_s

    def test_single_page_file_is_cheapest(self):
        spec = SystemSpec()
        assert pir_page_retrieval_time(1, spec) <= pir_page_retrieval_time(2, spec)

    def test_invalid_file_size(self):
        with pytest.raises(ValueError):
            pir_page_retrieval_time(0)


class TestCommunication:
    def test_rtt_plus_bandwidth(self):
        spec = SystemSpec()
        time_s = communication_time(48 * 1024, rounds=1, spec=spec)
        assert time_s == pytest.approx(spec.round_trip_s + 1.0)

    def test_zero_bytes_costs_rtt_only(self):
        spec = SystemSpec()
        assert communication_time(0, rounds=2, spec=spec) == pytest.approx(2 * spec.round_trip_s)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            communication_time(-1, 1)


class TestResponseTime:
    def test_total_and_addition(self):
        first = ResponseTime(pir_s=1.0, communication_s=2.0, client_s=0.5)
        second = ResponseTime(pir_s=0.5, server_s=3.0)
        combined = first + second
        assert combined.pir_s == 1.5
        assert combined.total_s == pytest.approx(1.5 + 2.0 + 0.5 + 3.0)

    def test_scaled(self):
        response = ResponseTime(pir_s=1.0, communication_s=2.0)
        doubled = response.scaled(2.0)
        assert doubled.pir_s == 2.0
        assert doubled.communication_s == 4.0


class TestCostModel:
    def test_header_download_is_pure_communication(self):
        model = CostModel(SystemSpec())
        response = model.header_download(48 * 1024)
        assert response.pir_s == 0.0
        assert response.communication_s > 1.0

    def test_pir_round_accounts_for_each_file(self):
        spec = SystemSpec()
        model = CostModel(spec)
        response = model.pir_round({"index": 2, "data": 3}, {"index": 1000, "data": 500})
        expected_pir = 2 * pir_page_retrieval_time(1000, spec) + 3 * pir_page_retrieval_time(500, spec)
        assert response.pir_s == pytest.approx(expected_pir)
        assert response.communication_s > 0

    def test_pir_round_rejects_negative_counts(self):
        model = CostModel(SystemSpec())
        with pytest.raises(ValueError):
            model.pir_round({"data": -1}, {"data": 10})

    def test_plaintext_server_work(self):
        spec = SystemSpec(server_dijkstra_s_per_node=1e-6)
        model = CostModel(spec)
        assert model.plaintext_server_work(1_000_000).server_s == pytest.approx(1.0)

    def test_plaintext_transfer(self):
        spec = SystemSpec()
        model = CostModel(spec)
        response = model.plaintext_transfer(48 * 1024, rounds=1)
        assert response.communication_s == pytest.approx(spec.round_trip_s + 1.0)
