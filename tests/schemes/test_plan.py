"""Tests for query plans."""

from repro.pir import AdversaryEvent
from repro.schemes import QueryPlan, RoundSpec
from repro.storage import RecordReader


def sample_plan():
    return QueryPlan.from_rounds(
        [
            RoundSpec(includes_header=True),
            RoundSpec(fetches=(("lookup", 1),)),
            RoundSpec(fetches=(("index", 3),)),
            RoundSpec(fetches=(("index", 2), ("data", 5))),
        ]
    )


class TestQueryPlan:
    def test_round_and_page_counts(self):
        plan = sample_plan()
        assert plan.num_rounds == 4
        assert plan.total_pir_pages() == 11
        assert plan.pages_per_file() == {"lookup": 1, "index": 5, "data": 5}

    def test_round_spec_helpers(self):
        round_spec = RoundSpec(fetches=(("index", 2), ("data", 5)))
        assert round_spec.pages_for("index") == 2
        assert round_spec.pages_for("missing") == 0
        assert round_spec.total_pages == 7

    def test_expected_adversary_view(self):
        plan = sample_plan()
        view = plan.expected_adversary_view()
        assert view.events[0] == AdversaryEvent(1, "header", "")
        assert view.events[1] == AdversaryEvent(2, "pir", "lookup")
        # round 4 must list index pages before data pages, in plan order
        round4 = [event for event in view.events if event.round_number == 4]
        assert [event.file_name for event in round4] == ["index"] * 2 + ["data"] * 5
        assert view.num_rounds() == 4

    def test_expected_view_is_built_once_per_plan(self):
        plan = sample_plan()
        view = plan.expected_adversary_view()
        assert plan.expected_adversary_view() is view
        assert view == plan._build_adversary_view()
        # the memo is not a dataclass field: equality, hashing and bytes hold
        fresh = sample_plan()
        assert fresh == plan and hash(fresh) == hash(plan)
        assert fresh.encode() == plan.encode()

    def test_encode_decode_round_trip(self):
        plan = sample_plan()
        decoded = QueryPlan.decode(RecordReader(plan.encode()))
        assert decoded == plan
        assert decoded.expected_adversary_view() == plan.expected_adversary_view()

    def test_empty_plan(self):
        plan = QueryPlan.from_rounds([])
        assert plan.num_rounds == 0
        assert plan.total_pir_pages() == 0
        assert plan.expected_adversary_view().events == ()
