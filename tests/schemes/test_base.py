"""Tests for the scheme base machinery: round manager, plan enforcement, cost mapping."""

import random

import pytest

from repro.costmodel import CostModel, SystemSpec
from repro.exceptions import PlanViolationError
from repro.pir import AccessTrace, UsablePirSimulator
from repro.schemes import QueryPlan, RoundSpec, response_time_from_trace, verify_plan_conformance
from repro.schemes.base import RoundManager
from repro.storage import Database


@pytest.fixture()
def toy_database():
    database = Database(page_size=64)
    for name, pages in (("lookup", 2), ("data", 8)):
        page_file = database.create_file(name)
        for index in range(pages):
            page_file.new_page().append(bytes([index]) * 4)
    database.set_header(b"HDR")
    return database


@pytest.fixture()
def round_manager(toy_database):
    spec = SystemSpec(page_size=64)
    pir = UsablePirSimulator(toy_database, spec=spec, enforce_limits=False)
    trace = AccessTrace()
    return RoundManager(pir, trace, random.Random(0)), trace


class TestRoundManager:
    def test_fetch_and_round_counters(self, round_manager):
        manager, trace = round_manager
        manager.begin_round()
        manager.fetch("lookup", 1)
        assert manager.pages_fetched_this_round("lookup") == 1
        manager.begin_round()
        assert manager.pages_fetched_this_round("lookup") == 0
        manager.fetch_many("data", [0, 1, 2])
        assert manager.pages_fetched_this_round("data") == 3
        assert trace.total_pir_accesses() == 4

    def test_pad_issues_dummy_requests(self, round_manager):
        manager, trace = round_manager
        manager.begin_round()
        manager.fetch("data", 0)
        manager.pad("data", 5)
        assert manager.pages_fetched_this_round("data") == 5
        assert trace.pir_accesses_per_file() == {"data": 5}

    def test_pad_sends_real_pages_and_dummies_as_one_batch(
        self, round_manager, toy_database, monkeypatch
    ):
        manager, trace = round_manager
        batches = []
        retrieve_pages = manager._pir.retrieve_pages
        monkeypatch.setattr(
            manager._pir,
            "retrieve_pages",
            lambda name, pages, trace=None: batches.append(list(pages))
            or retrieve_pages(name, pages, trace),
        )
        manager.begin_round()
        real = manager.pad("data", 5, pages=[3, 1])
        assert real == [toy_database.file("data").read_page(n) for n in (3, 1)]
        # the same dummy stream the per-page driver drew, after the real pages
        rng = random.Random(0)
        assert batches == [[3, 1] + [rng.randrange(8) for _ in range(3)]]
        assert [page for _, _, page in trace.private_page_requests()] == batches[0]
        assert manager.pad("data", 5) == [] and len(batches) == 1

    def test_pad_rejects_overfetch(self, round_manager):
        manager, _ = round_manager
        manager.begin_round()
        manager.fetch_many("data", [0, 1, 2])
        with pytest.raises(PlanViolationError):
            manager.pad("data", 2)
        manager.begin_round()
        with pytest.raises(PlanViolationError):
            manager.pad("data", 2, pages=[0, 1, 2])

    def test_header_download(self, round_manager):
        manager, trace = round_manager
        manager.begin_round()
        assert manager.download_header() == b"HDR"
        assert trace.header_bytes == 3


class TestPlanConformance:
    def test_matching_trace_passes(self):
        plan = QueryPlan.from_rounds(
            [RoundSpec(includes_header=True), RoundSpec(fetches=(("data", 2),))]
        )
        trace = AccessTrace()
        trace.begin_round()
        trace.record_header_download(10)
        trace.begin_round()
        trace.record_pir_accesses("data", [4])
        trace.record_pir_accesses("data", [1])
        verify_plan_conformance(trace, plan)

    def test_wrong_page_count_fails(self):
        plan = QueryPlan.from_rounds([RoundSpec(fetches=(("data", 2),))])
        trace = AccessTrace()
        trace.begin_round()
        trace.record_pir_accesses("data", [4])
        with pytest.raises(PlanViolationError):
            verify_plan_conformance(trace, plan)

    def test_wrong_file_order_fails(self):
        plan = QueryPlan.from_rounds([RoundSpec(fetches=(("index", 1), ("data", 1)))])
        trace = AccessTrace()
        trace.begin_round()
        trace.record_pir_accesses("data", [0])
        trace.record_pir_accesses("index", [0])
        with pytest.raises(PlanViolationError):
            verify_plan_conformance(trace, plan)


    def test_every_query_is_checked_after_the_view_is_memoised(self):
        plan = QueryPlan.from_rounds([RoundSpec(fetches=(("data", 2),))])
        conforming = AccessTrace()
        conforming.begin_round()
        conforming.record_pir_accesses("data", [3, 0])
        verify_plan_conformance(conforming, plan)
        deviating = AccessTrace()
        deviating.begin_round()
        deviating.record_pir_accesses("data", [3, 0, 1])
        with pytest.raises(PlanViolationError):
            verify_plan_conformance(deviating, plan)
        verify_plan_conformance(conforming, plan)


class TestResponseTimeFromTrace:
    def test_pir_and_header_components(self, toy_database):
        spec = SystemSpec(page_size=64)
        trace = AccessTrace()
        trace.begin_round()
        trace.record_header_download(len(toy_database.header))
        trace.begin_round()
        trace.record_pir_accesses("data", [0])
        trace.record_pir_accesses("data", [1])
        response = response_time_from_trace(trace, toy_database, CostModel(spec), client_seconds=0.25)
        assert response.client_s == 0.25
        assert response.pir_s > 0
        assert response.communication_s > 2 * spec.round_trip_s - 1e-9

    def test_empty_trace_costs_only_client_time(self, toy_database):
        response = response_time_from_trace(
            AccessTrace(), toy_database, CostModel(SystemSpec(page_size=64)), client_seconds=0.1
        )
        assert response.pir_s == 0.0
        assert response.communication_s == 0.0
        assert response.total_s == pytest.approx(0.1)
