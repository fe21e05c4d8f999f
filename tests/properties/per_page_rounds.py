"""The per-page protocol driver round batching replaced, kept as the oracle.

One PIR retrieval call per page, real pages first, then the padding drawn and
fetched one dummy at a time — what ``RoundManager`` did before a round became
one retrieval batch.  The batched driver must be indistinguishable from it in
everything but the number of calls (and the mask values, which follow the
draw grouping).
"""

from typing import List, Sequence

from repro.exceptions import PlanViolationError
from repro.schemes.base import RoundManager


class PerPageRoundManager(RoundManager):
    def fetch_many(self, file_name: str, page_numbers: Sequence[int]) -> List[bytes]:
        return [self.fetch(file_name, page_number) for page_number in page_numbers]

    def pad(
        self, file_name: str, target_pages: int, pages: Sequence[int] = ()
    ) -> List[bytes]:
        data = self.fetch_many(file_name, pages)
        already = self.pages_fetched_this_round(file_name)
        if already > target_pages:
            raise PlanViolationError(
                f"query fetched {already} pages from {file_name!r} but the plan "
                f"allows only {target_pages}"
            )
        num_pages = self._pir.database.file(file_name).num_pages
        for _ in range(target_pages - already):
            self.fetch(file_name, self._rng.randrange(num_pages))
        return data
