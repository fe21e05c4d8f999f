"""Tests for access traces and adversary views."""

from repro.pir import AccessTrace, AdversaryEvent, AdversaryView


class TestAccessTrace:
    def test_rounds_and_counters(self):
        trace = AccessTrace()
        assert trace.begin_round() == 1
        trace.record_header_download(100)
        assert trace.begin_round() == 2
        trace.record_pir_accesses("lookup", [3])
        trace.record_pir_accesses("index", [7])
        assert trace.header_bytes == 100
        assert trace.total_pir_accesses() == 2
        assert trace.pir_accesses_per_file() == {"lookup": 1, "index": 1}

    def test_one_batch_records_like_single_page_batches(self):
        single, batch = AccessTrace(), AccessTrace()
        for trace in (single, batch):
            trace.begin_round()
            trace.record_pir_accesses("lookup", [2])
            trace.begin_round()
        for page in (5, 0, 5):
            single.record_pir_accesses("data", [page])
        batch.record_pir_accesses("data", [5, 0, 5])
        batch.record_pir_accesses("data", [])
        assert batch.adversary_view() == single.adversary_view()
        assert batch.private_page_requests() == single.private_page_requests()
        assert batch.private_page_requests() == [
            (1, "lookup", 2), (2, "data", 5), (2, "data", 0), (2, "data", 5)
        ]
        assert batch.adversary_view().events[1:] == (AdversaryEvent(2, "pir", "data"),) * 3

    def test_private_pages_not_in_adversary_view(self):
        trace = AccessTrace()
        trace.begin_round()
        trace.record_pir_accesses("data", [41])
        view = trace.adversary_view()
        assert view.events == (AdversaryEvent(1, "pir", "data"),)
        # the page number 41 appears nowhere in the adversary-visible events
        assert all(not hasattr(event, "page_number") for event in view.events)
        assert trace.private_page_requests() == [(1, "data", 41)]


class TestAdversaryView:
    def test_equality_depends_only_on_event_sequence(self):
        first = AccessTrace()
        first.begin_round()
        first.record_pir_accesses("data", [5])
        second = AccessTrace()
        second.begin_round()
        second.record_pir_accesses("data", [99])
        assert first.adversary_view() == second.adversary_view()
        assert hash(first.adversary_view()) == hash(second.adversary_view())

    def test_inequality_when_files_differ(self):
        first = AccessTrace()
        first.begin_round()
        first.record_pir_accesses("data", [5])
        second = AccessTrace()
        second.begin_round()
        second.record_pir_accesses("index", [5])
        assert first.adversary_view() != second.adversary_view()

    def test_num_rounds(self):
        view = AdversaryView(
            (
                AdversaryEvent(1, "header", ""),
                AdversaryEvent(2, "pir", "lookup"),
                AdversaryEvent(3, "pir", "data"),
                AdversaryEvent(3, "pir", "data"),
            )
        )
        assert view.num_rounds() == 3
