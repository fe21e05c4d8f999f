"""Page files: named, page-granular files hosted by the LBS.

The paper's database consists of a small number of files (header ``Fh``,
look-up ``Fl``, network index ``Fi``, region data ``Fd``); each of them is a
:class:`PageFile` here.  A page file owns a pluggable
:class:`~repro.storage.stores.PageStore` backend (memory, mmap or SQLite —
the paper notes its framework applies equally to disk, SSD or RAM storage)
and streams pages into it as they *seal*: only the page currently being
filled (the *tail*) lives in process memory as a mutable
:class:`~repro.storage.page.Page`; every earlier page is a sealed record in
the backend store.  Builders therefore construct arbitrarily large files
with O(1) resident pages, while byte accounting stays exact.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..exceptions import PageOverflowError, StorageError
from .page import DEFAULT_PAGE_SIZE, Page
from .stores import MemoryPageStore, PageStore


class PageFile:
    """A named sequence of fixed-size pages over a pluggable page store."""

    def __init__(
        self,
        name: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        store: Optional[PageStore] = None,
    ) -> None:
        if not name:
            raise StorageError("a page file needs a non-empty name")
        self.name = name
        self.page_size = page_size
        if store is not None and store.page_size != page_size:
            raise StorageError(
                f"store page size {store.page_size} does not match "
                f"file page size {page_size}"
            )
        #: Sealed-page backend (bare page files default to in-memory storage;
        #: databases pick the backend — see :class:`~repro.storage.database.
        #: Database`).
        self.store: PageStore = store if store is not None else MemoryPageStore(page_size)
        #: The mutable page currently being filled, if any.
        self._tail: Optional[Page] = None
        #: Store slot of a re-opened tail (None while the tail is brand new).
        self._tail_number: Optional[int] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def new_page(self) -> Page:
        """Append and return a fresh, empty page (sealing the previous tail)."""
        self._seal_tail()
        self._tail = Page(self.page_size)
        return self._tail

    def append_page(self, page: Page) -> int:
        """Append an existing page (sealed immediately); returns its page number."""
        if page.page_size != self.page_size:
            raise StorageError(
                f"page size {page.page_size} does not match file page size {self.page_size}"
            )
        self._seal_tail()
        return self.store.append_page(page.payload())

    def append_record_packed(self, data: bytes) -> int:
        """Append a record into the last page if it fits, else into a new page.

        Returns the page number holding the record.  Records larger than a
        page are rejected — callers that need multi-page records handle the
        spanning themselves (the ``Fi`` builders do).
        """
        if len(data) > self.page_size:
            raise PageOverflowError(
                f"record of {len(data)} bytes does not fit a single page of "
                f"file {self.name!r} (page size {self.page_size} bytes)"
            )
        if self._tail is None:
            last = self.store.num_pages - 1
            if last >= 0 and self.store.page_used(last) + len(data) <= self.page_size:
                # re-open the sealed last page: it still has room
                self._tail = Page.from_bytes(self.store.get_payload(last), self.page_size)
                self._tail_number = last
            else:
                self.new_page()
        elif not self._tail.fits(data):
            self.new_page()
        self._tail.append(data)
        return self._tail_page_number()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def _tail_page_number(self) -> int:
        """The page number the current tail occupies (requires a tail)."""
        if self._tail_number is not None:
            return self._tail_number
        return self.store.num_pages

    def _seal_tail(self) -> None:
        """Write the tail page (if any) to the store."""
        if self._tail is None:
            return
        if self._tail_number is None:
            self.store.append_page(self._tail.payload())
        else:
            self.store.put_page(self._tail_number, self._tail.payload())
        self._tail = None
        self._tail_number = None

    @property
    def num_pages(self) -> int:
        count = self.store.num_pages
        if self._tail is not None and self._tail_number is None:
            count += 1
        return count

    @property
    def size_bytes(self) -> int:
        """Physical file size (pages are padded to the page size)."""
        return self.num_pages * self.page_size

    @property
    def payload_bytes(self) -> int:
        """Total payload bytes across all pages."""
        total = self.store.payload_bytes
        if self._tail is not None:
            total += self._tail.used_bytes
            if self._tail_number is not None:
                # the store still holds the stale sealed copy of the tail
                total -= self.store.page_used(self._tail_number)
        return total

    @property
    def utilization(self) -> float:
        """Average fraction of each page occupied by payload."""
        if not self.num_pages:
            return 0.0
        return self.payload_bytes / self.size_bytes

    def _check_page_number(self, page_number: int) -> None:
        if page_number < 0 or page_number >= self.num_pages:
            raise StorageError(
                f"page {page_number} out of range for file {self.name!r} "
                f"with {self.num_pages} pages"
            )

    def page(self, page_number: int) -> Page:
        """The page at ``page_number`` (0-based).

        The live tail page is returned directly; sealed pages come back as
        reconstructed snapshots — mutating a snapshot does not write through
        to the store (use the builder APIs to write).
        """
        self._check_page_number(page_number)
        if self._tail is not None and page_number == self._tail_page_number():
            return self._tail
        return Page.from_bytes(self.store.get_payload(page_number), self.page_size)

    def page_used_bytes(self, page_number: int) -> int:
        """Payload bytes of one page without materialising it."""
        self._check_page_number(page_number)
        if self._tail is not None and page_number == self._tail_page_number():
            return self._tail.used_bytes
        return self.store.page_used(page_number)

    def read_page(self, page_number: int) -> bytes:
        """The padded page image at ``page_number``."""
        self._check_page_number(page_number)
        if self._tail is not None and page_number == self._tail_page_number():
            return self._tail.to_bytes()
        return self.store.get_page(page_number)

    def read_pages_batch(self, page_numbers: Sequence[int]) -> List[bytes]:
        """Padded page images for a batch of pages (one store round trip)."""
        num_pages = self.num_pages
        for page_number in page_numbers:
            if page_number < 0 or page_number >= num_pages:
                self._check_page_number(page_number)
        tail_number = self._tail_page_number() if self._tail is not None else None
        if tail_number is not None and any(n == tail_number for n in page_numbers):
            return [self.read_page(n) for n in page_numbers]
        return self.store.get_pages_batch(page_numbers)

    def pages(self) -> Iterator[Page]:
        for page_number in range(self.num_pages):
            yield self.page(page_number)

    def to_bytes(self) -> bytes:
        """The whole file image."""
        return b"".join(self.read_page(n) for n in range(self.num_pages))

    def flush(self) -> None:
        """Seal the tail page and push buffered pages to the store medium."""
        self._seal_tail()
        self.store.flush()

    def close(self) -> None:
        """Flush and release the backing store."""
        self._seal_tail()
        self.store.close()

    def __len__(self) -> int:
        return self.num_pages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageFile(name={self.name!r}, pages={self.num_pages}, "
            f"size={self.size_bytes} bytes, store={self.store.backend})"
        )
