"""Access traces and the adversary's view.

What the LBS (the adversary) can observe during query processing is exactly:

* that the header file was downloaded,
* for every PIR retrieval, *which file* was accessed and *when* (i.e. in which
  round and in which position within the round) — but never *which page*.

:class:`AccessTrace` records both the adversary-visible events and (separately)
the private information — the actual page numbers — so that tests can assert
both correctness (the right pages were fetched) and privacy (the adversary
view of any two queries is identical, Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class AdversaryEvent:
    """One event visible to the LBS."""

    round_number: int
    kind: str        # "header" or "pir"
    file_name: str   # which file was touched; "" for the header download


@dataclass(frozen=True)
class AdversaryView:
    """The complete sequence of adversary-visible events of one query."""

    events: Tuple[AdversaryEvent, ...]

    def num_rounds(self) -> int:
        return max((event.round_number for event in self.events), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdversaryView):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)


class AccessTrace:
    """Mutable recorder used by the PIR interface during one query."""

    def __init__(self) -> None:
        self._events: List[AdversaryEvent] = []
        self._private_pages: List[Tuple[int, str, int]] = []  # (round, file, page)
        self._round = 0
        self._header_bytes = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def begin_round(self) -> int:
        """Start a new processing round; returns its (1-based) number."""
        self._round += 1
        return self._round

    def record_header_download(self, num_bytes: int) -> None:
        self._header_bytes += num_bytes
        self._events.append(AdversaryEvent(self._round, "header", ""))

    def record_pir_accesses(self, file_name: str, page_numbers: Sequence[int]) -> None:
        """One PIR access of ``file_name`` per page of a batch, in request order."""
        round_number = self._round
        event = AdversaryEvent(round_number, "pir", file_name)
        self._events.extend([event] * len(page_numbers))
        self._private_pages.extend(
            (round_number, file_name, page_number) for page_number in page_numbers
        )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def header_bytes(self) -> int:
        return self._header_bytes

    def adversary_view(self) -> AdversaryView:
        """What the LBS has observed so far."""
        return AdversaryView(tuple(self._events))

    def private_page_requests(self) -> List[Tuple[int, str, int]]:
        """The actual (round, file, page) requests — *not* visible to the LBS."""
        return list(self._private_pages)

    def pir_accesses_per_file(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, file_name, _ in self._private_pages:
            counts[file_name] = counts.get(file_name, 0) + 1
        return counts

    def total_pir_accesses(self) -> int:
        return len(self._private_pages)
