"""Query plans (Section 3.1, Security Objective).

A query plan fixes, for every query, the number of processing rounds, the
files touched in each round, their order, and the exact number of pages
retrieved from each file.  Every query must follow the plan — padding its
requests with dummy retrievals when it needs fewer pages — which is what makes
any two queries indistinguishable to the LBS (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..pir import AdversaryEvent, AdversaryView
from ..storage import RecordReader, RecordWriter


@dataclass(frozen=True)
class RoundSpec:
    """One round of the plan: optional header download followed by PIR fetches."""

    #: Ordered ``(file name, number of pages)`` fetched through the PIR interface.
    fetches: Tuple[Tuple[str, int], ...] = ()
    #: Whether the round begins with the full (non-PIR) header download.
    includes_header: bool = False

    @property
    def total_pages(self) -> int:
        return sum(count for _, count in self.fetches)


@dataclass(frozen=True)
class QueryPlan:
    """The complete, publicly known query plan of a scheme."""

    rounds: Tuple[RoundSpec, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def total_pir_pages(self) -> int:
        return sum(round_spec.total_pages for round_spec in self.rounds)

    def pages_per_file(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for round_spec in self.rounds:
            for file_name, count in round_spec.fetches:
                totals[file_name] = totals.get(file_name, 0) + count
        return totals

    def expected_adversary_view(self) -> AdversaryView:
        """The adversary-visible event sequence every conforming query produces.

        A pure function of the frozen plan, so it is built once and kept on
        the instance (outside the dataclass fields: equality, hashing and the
        encoding are unaffected).
        """
        view = self.__dict__.get("_expected_view")
        if view is None:
            view = self._build_adversary_view()
            object.__setattr__(self, "_expected_view", view)
        return view

    def _build_adversary_view(self) -> AdversaryView:
        events: List[AdversaryEvent] = []
        for round_number, round_spec in enumerate(self.rounds, start=1):
            if round_spec.includes_header:
                events.append(AdversaryEvent(round_number, "header", ""))
            for file_name, count in round_spec.fetches:
                events.extend(
                    AdversaryEvent(round_number, "pir", file_name) for _ in range(count)
                )
        return AdversaryView(tuple(events))

    # ------------------------------------------------------------------ #
    # serialization (the plan is part of the public header file)
    # ------------------------------------------------------------------ #
    def encode(self) -> bytes:
        writer = RecordWriter()
        writer.varint(len(self.rounds))
        for round_spec in self.rounds:
            writer.varint(1 if round_spec.includes_header else 0)
            writer.varint(len(round_spec.fetches))
            for file_name, count in round_spec.fetches:
                writer.string(file_name)
                writer.varint(count)
        return writer.getvalue()

    @staticmethod
    def decode(reader: RecordReader) -> "QueryPlan":
        num_rounds = reader.varint()
        rounds: List[RoundSpec] = []
        for _ in range(num_rounds):
            includes_header = bool(reader.varint())
            num_fetches = reader.varint()
            fetches = tuple(
                (reader.string(), reader.varint()) for _ in range(num_fetches)
            )
            rounds.append(RoundSpec(fetches=fetches, includes_header=includes_header))
        return QueryPlan(tuple(rounds))

    @staticmethod
    def from_rounds(rounds: Iterable[RoundSpec]) -> "QueryPlan":
        return QueryPlan(tuple(rounds))
