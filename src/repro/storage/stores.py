"""Pluggable page-store backends: where a page file's sealed pages live.

The paper's architecture serves fixed-size pages through the PIR interface
and notes that the framework applies equally to disk, SSD or RAM storage.
This module makes that storage decision explicit: a :class:`PageStore` is the
append-mostly container behind every :class:`~repro.storage.pagefile.PageFile`,
and three interchangeable backends implement it:

* :class:`MemoryPageStore` — pages in Python lists, the historical behaviour
  and the default;
* :class:`MmapPageStore` — one fixed-record binary file per page file
  (``<name>.mpages``): a small header followed by ``4 + page_size`` byte
  records, appended with buffered writes and read back through a shared
  ``mmap`` (``get_page_view`` returns a zero-copy :class:`memoryview`);
* :class:`SqlitePageStore` — one SQLite database per page file
  (``<name>.sqlite``) with a ``pages(page, used, data)`` table, built with
  batched ``executemany`` inserts and served by indexed primary-key lookups.

The mmap and SQLite backends keep sealed pages *out of process memory*, so a
database can grow far beyond RAM while the builders stream pages into it.
Both persist across process restarts: reopen with
``open_page_store(..., create=False)`` and the store serves bit-identical
pages (property-tested).

Backend selection flows through three increasingly general seams:

1. explicit arguments (``Database(store_backend="sqlite", store_dir=...)``);
2. a context scope (:func:`store_backend_scope`) used by the CLI and tests to
   redirect every database built inside the block;
3. the ``REPRO_STORE_BACKEND`` environment variable (with optional
   ``REPRO_STORE_DIR``), which the CI matrix uses to run the whole test
   suite against each backend.

A store holds bytes only: it caches nothing decoded.  The client decodes the
pages it fetched through PIR, which carry no page identity, so its decode
cache (:mod:`repro.engine.cache`) is keyed by the bytes themselves.
"""

from __future__ import annotations

import abc
import mmap
import os
import sqlite3
import struct
import tempfile
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exceptions import StorageError

#: Backends selectable by name through every seam (CLI, env, scope, kwargs).
STORE_BACKENDS = ("memory", "mmap", "sqlite")

#: Environment variable naming the default backend (CI matrix uses this).
ENV_STORE_BACKEND = "REPRO_STORE_BACKEND"
#: Environment variable naming the default store directory.
ENV_STORE_DIR = "REPRO_STORE_DIR"

PathLike = Union[str, Path]

#: Context-scoped ``(backend, directory)`` default installed by
#: :func:`store_backend_scope` (None = fall back to the environment).
_store_options_var: ContextVar[Optional[Tuple[str, Optional[PathLike]]]] = ContextVar(
    "repro_store_options", default=None
)


def _normalize_backend(backend: str) -> str:
    backend = str(backend).strip().lower()
    if backend not in STORE_BACKENDS:
        raise StorageError(
            f"unknown page-store backend {backend!r}; expected one of {STORE_BACKENDS}"
        )
    return backend


@contextmanager
def store_backend_scope(
    backend: str, directory: Optional[PathLike] = None
) -> Iterator[None]:
    """Make ``backend`` the default page-store backend inside the block.

    Every :class:`~repro.storage.database.Database` created in the dynamic
    extent of the block (scheme builders included) places its page files on
    the given backend — the seam the CLI's ``--store``/``--store-dir`` flags
    use so schemes stream their build straight into an out-of-core store.
    """
    token = _store_options_var.set((_normalize_backend(backend), directory))
    try:
        yield
    finally:
        _store_options_var.reset(token)


def resolve_store_options(
    backend: Optional[str] = None, directory: Optional[PathLike] = None
) -> Tuple[str, Optional[PathLike]]:
    """The effective ``(backend, directory)`` for a new database.

    Explicit arguments win, then an active :func:`store_backend_scope`, then
    the ``REPRO_STORE_BACKEND``/``REPRO_STORE_DIR`` environment, then the
    in-memory default.
    """
    scoped = _store_options_var.get()
    if backend is None:
        if scoped is not None:
            backend = scoped[0]
        else:
            backend = os.environ.get(ENV_STORE_BACKEND) or "memory"
    backend = _normalize_backend(backend)
    if directory is None:
        if scoped is not None and scoped[1] is not None:
            directory = scoped[1]
        else:
            directory = os.environ.get(ENV_STORE_DIR) or None
    return backend, directory


# ---------------------------------------------------------------------- #
# the protocol
# ---------------------------------------------------------------------- #
class PageStore(abc.ABC):
    """Backend-neutral page container: sealed, fixed-size pages by number.

    Pages are stored as ``(payload, used)`` records — the payload is the
    written prefix, ``used == len(payload)``, and :meth:`get_page` pads the
    image to ``page_size`` exactly like :meth:`~repro.storage.page.Page.
    to_bytes`.  Appends are cheap and may be buffered; every read method
    observes all prior appends (stores flush internally as needed).
    """

    #: Backend name, matching the :data:`STORE_BACKENDS` entry.
    backend: str = "abstract"

    def __init__(self, page_size: int) -> None:
        if page_size <= 0:
            raise StorageError(f"page size must be positive, got {page_size}")
        self.page_size = page_size

    # ------------------------------------------------------------------ #
    # required backend primitives
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def num_pages(self) -> int:
        """Number of pages stored."""

    @abc.abstractmethod
    def get_payload(self, page_number: int) -> bytes:
        """The unpadded payload of one page."""

    @abc.abstractmethod
    def page_used(self, page_number: int) -> int:
        """Payload bytes of one page (``len(get_payload(n))`` without the read)."""

    @abc.abstractmethod
    def _append(self, payload: bytes) -> None:
        """Backend write of one new page record."""

    @abc.abstractmethod
    def _overwrite(self, page_number: int, payload: bytes) -> None:
        """Backend rewrite of an existing page record."""

    # ------------------------------------------------------------------ #
    # shared protocol surface
    # ------------------------------------------------------------------ #
    def get_page(self, page_number: int) -> bytes:
        """The padded ``page_size``-byte page image."""
        return self._pad(self.get_payload(page_number))

    def get_pages_batch(self, page_numbers: Sequence[int]) -> List[bytes]:
        """Padded images for a batch of pages (one backend round trip where
        the backend supports it)."""
        return [self.get_page(page_number) for page_number in page_numbers]

    def append_page(self, payload: bytes) -> int:
        """Append one page; returns its page number."""
        payload = bytes(payload)
        if len(payload) > self.page_size:
            raise StorageError(
                f"page payload of {len(payload)} bytes exceeds the "
                f"page size {self.page_size}"
            )
        self._append(payload)
        return self.num_pages - 1

    def put_page(self, page_number: int, payload: bytes) -> None:
        """Overwrite an existing page (used when a sealed tail is re-opened
        to pack another record into its free space)."""
        self._check_range(page_number)
        payload = bytes(payload)
        if len(payload) > self.page_size:
            raise StorageError(
                f"page payload of {len(payload)} bytes exceeds the "
                f"page size {self.page_size}"
            )
        self._overwrite(page_number, payload)

    def iter_payloads(self) -> Iterator[bytes]:
        """Iterate the unpadded payloads in page order."""
        for page_number in range(self.num_pages):
            yield self.get_payload(page_number)

    @property
    def payload_bytes(self) -> int:
        """Total payload bytes across all pages."""
        return sum(self.page_used(n) for n in range(self.num_pages))

    def flush(self) -> None:
        """Push buffered appends to the backend medium."""

    def close(self) -> None:
        """Flush and release backend resources (idempotent)."""
        self.flush()

    #: Where the store's bytes physically live (None for in-memory stores).
    path: Optional[Path] = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _pad(self, payload: bytes) -> bytes:
        return payload + b"\x00" * (self.page_size - len(payload))

    def _check_range(self, page_number: int) -> None:
        if page_number < 0 or page_number >= self.num_pages:
            raise StorageError(
                f"page {page_number} out of range for a store with "
                f"{self.num_pages} pages"
            )


# ---------------------------------------------------------------------- #
# memory backend
# ---------------------------------------------------------------------- #
class MemoryPageStore(PageStore):
    """Pages in a Python list — the historical in-RAM behaviour."""

    backend = "memory"

    def __init__(self, page_size: int) -> None:
        super().__init__(page_size)
        self._payloads: List[bytes] = []

    @property
    def num_pages(self) -> int:
        return len(self._payloads)

    def get_payload(self, page_number: int) -> bytes:
        self._check_range(page_number)
        return self._payloads[page_number]

    def page_used(self, page_number: int) -> int:
        self._check_range(page_number)
        return len(self._payloads[page_number])

    @property
    def payload_bytes(self) -> int:
        return sum(len(payload) for payload in self._payloads)

    def _append(self, payload: bytes) -> None:
        self._payloads.append(payload)

    def _overwrite(self, page_number: int, payload: bytes) -> None:
        self._payloads[page_number] = payload


# ---------------------------------------------------------------------- #
# mmap backend
# ---------------------------------------------------------------------- #
class MmapPageStore(PageStore):
    """One fixed-record binary file per page file, read through ``mmap``.

    Layout: an 8-byte header (magic ``RPS1`` + little-endian ``uint32`` page
    size) followed by one record per page — a ``uint32`` payload length and
    the zero-padded ``page_size``-byte page image.  Appends buffer in memory
    and flush with one sequential write; reads go through a shared read-only
    memory map, so resident memory stays bounded by the OS page cache, not
    the database size.  :meth:`get_page_view` exposes the zero-copy
    :class:`memoryview` of a page for callers that only need buffer access.
    """

    backend = "mmap"

    MAGIC = b"RPS1"
    _HEADER = struct.Struct("<4sI")
    _USED = struct.Struct("<I")
    #: Buffered appends are flushed in batches of this many pages.
    FLUSH_EVERY = 1024

    def __init__(
        self, path: PathLike, page_size: Optional[int] = None, create: bool = True
    ) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._pending: List[bytes] = []
        self._mm: Optional[mmap.mmap] = None
        self._closed = False
        if create:
            if page_size is None:
                raise StorageError("creating an mmap page store requires a page size")
            super().__init__(page_size)
            self._file = open(self.path, "w+b")
            self._file.write(self._HEADER.pack(self.MAGIC, page_size))
            self._file.flush()
            self._num_flushed = 0
            self._payload_total: Optional[int] = 0
        else:
            if not self.path.exists():
                raise StorageError(f"no mmap page store at {self.path}")
            self._file = open(self.path, "r+b")
            header = self._file.read(self._HEADER.size)
            if len(header) != self._HEADER.size:
                raise StorageError(f"truncated mmap page store header in {self.path}")
            magic, stored_size = self._HEADER.unpack(header)
            if magic != self.MAGIC:
                raise StorageError(f"{self.path} is not an mmap page store")
            if page_size is not None and page_size != stored_size:
                raise StorageError(
                    f"mmap page store {self.path} has page size {stored_size}, "
                    f"expected {page_size}"
                )
            super().__init__(stored_size)
            body = self.path.stat().st_size - self._HEADER.size
            if body % self._record_size:
                raise StorageError(f"mmap page store {self.path} is corrupt")
            self._num_flushed = body // self._record_size
            # computed lazily on first use: an eager scan would fault every
            # record header into memory, making reopening a database cost
            # RSS proportional to its size
            self._payload_total = None

    @property
    def _record_size(self) -> int:
        return self._USED.size + self.page_size

    def _offset(self, page_number: int) -> int:
        return self._HEADER.size + page_number * self._record_size

    @property
    def num_pages(self) -> int:
        return self._num_flushed + len(self._pending)

    @property
    def payload_bytes(self) -> int:
        total = self._payload_total
        if total is None:
            self._ensure_flushed()
            total = sum(self._used_at(n) for n in range(self._num_flushed))
            self._payload_total = total
            self._drop_residency()
        return total

    def _drop_residency(self) -> None:
        """Tell the kernel the mapped pages are disposable again.

        A full-file scan (payload accounting, a byte comparison) faults the
        whole map resident; dropping it keeps RSS bounded by the working set
        instead of the database size.  Purely advisory — pages re-fault from
        the page cache or disk on the next read.
        """
        if self._mm is not None and hasattr(mmap, "MADV_DONTNEED"):
            try:
                self._mm.madvise(mmap.MADV_DONTNEED)
            except OSError:  # pragma: no cover - kernel-dependent
                pass

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _mapping(self) -> mmap.mmap:
        if self._mm is None:
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        return self._mm

    def _ensure_flushed(self) -> None:
        if self._pending:
            self.flush()

    def _used_at(self, page_number: int) -> int:
        return int(
            self._USED.unpack_from(self._mapping(), self._offset(page_number))[0]
        )

    def get_payload(self, page_number: int) -> bytes:
        self._check_range(page_number)
        self._ensure_flushed()
        used = self._used_at(page_number)
        start = self._offset(page_number) + self._USED.size
        return bytes(self._mapping()[start:start + used])

    def get_page(self, page_number: int) -> bytes:
        self._check_range(page_number)
        self._ensure_flushed()
        start = self._offset(page_number) + self._USED.size
        return bytes(self._mapping()[start:start + self.page_size])

    def get_page_view(self, page_number: int) -> memoryview:
        """Zero-copy :class:`memoryview` of the padded page image."""
        self._check_range(page_number)
        self._ensure_flushed()
        start = self._offset(page_number) + self._USED.size
        return memoryview(self._mapping())[start:start + self.page_size]

    def get_pages_batch(self, page_numbers: Sequence[int]) -> List[bytes]:
        for page_number in page_numbers:
            self._check_range(page_number)
        self._ensure_flushed()
        mm = self._mapping()
        view = memoryview(mm)
        record, used_size = self._record_size, self._USED.size
        header = self._HEADER.size
        return [
            bytes(view[header + n * record + used_size:
                       header + n * record + used_size + self.page_size])
            for n in page_numbers
        ]

    def page_used(self, page_number: int) -> int:
        self._check_range(page_number)
        self._ensure_flushed()
        return self._used_at(page_number)

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _append(self, payload: bytes) -> None:
        self._pending.append(payload)
        if self._payload_total is not None:
            self._payload_total += len(payload)
        if len(self._pending) >= self.FLUSH_EVERY:
            self.flush()

    def _overwrite(self, page_number: int, payload: bytes) -> None:
        self._ensure_flushed()
        if self._payload_total is not None:
            self._payload_total += len(payload) - self._used_at(page_number)
        self._file.seek(self._offset(page_number))
        self._file.write(self._USED.pack(len(payload)))
        self._file.write(self._pad(payload))
        self._file.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                return
            pending, self._pending = self._pending, []
            self._file.seek(0, os.SEEK_END)
            self._file.write(
                b"".join(
                    self._USED.pack(len(payload)) + self._pad(payload)
                    for payload in pending
                )
            )
            self._file.flush()
            self._num_flushed += len(pending)
            # the old map does not cover the new records; remap lazily
            if self._mm is not None:
                self._mm.close()
                self._mm = None

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        self._file.close()
        self._closed = True


# ---------------------------------------------------------------------- #
# SQLite backend
# ---------------------------------------------------------------------- #
class SqlitePageStore(PageStore):
    """One SQLite database per page file with an indexed ``pages`` table.

    Appends buffer in memory and land in batched ``executemany`` inserts;
    lookups are primary-key point (or ``IN``-list) queries.  The connection
    is shared across the engine's worker threads behind a lock — reads are
    short, so serialising them costs less than per-thread connections.
    """

    backend = "sqlite"

    #: Buffered appends are flushed in batches of this many pages.
    FLUSH_EVERY = 1024
    #: SQLite bind-variable budget per ``IN``-list batch query.
    _IN_BATCH = 500

    def __init__(
        self, path: PathLike, page_size: Optional[int] = None, create: bool = True
    ) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._pending: List[Tuple[int, int, bytes]] = []
        self._closed = False
        if not create and not self.path.exists():
            raise StorageError(f"no SQLite page store at {self.path}")
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        if create:
            if page_size is None:
                raise StorageError("creating a SQLite page store requires a page size")
            super().__init__(page_size)
            with self._conn:
                self._conn.execute("DROP TABLE IF EXISTS pages")
                self._conn.execute("DROP TABLE IF EXISTS meta")
                self._conn.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
                )
                self._conn.execute(
                    "CREATE TABLE pages ("
                    "page INTEGER PRIMARY KEY, "
                    "used INTEGER NOT NULL, "
                    "data BLOB NOT NULL)"
                )
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('page_size', ?)",
                    (page_size,),
                )
            self._count = 0
        else:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'page_size'"
            ).fetchone()
            if row is None:
                raise StorageError(f"{self.path} is not a page-store database")
            stored_size = int(row[0])
            if page_size is not None and page_size != stored_size:
                raise StorageError(
                    f"SQLite page store {self.path} has page size {stored_size}, "
                    f"expected {page_size}"
                )
            super().__init__(stored_size)
            self._count = int(
                self._conn.execute("SELECT COUNT(*) FROM pages").fetchone()[0]
            )

    @property
    def num_pages(self) -> int:
        return self._count

    def _ensure_flushed(self) -> None:
        if self._pending:
            self.flush()

    def get_payload(self, page_number: int) -> bytes:
        self._check_range(page_number)
        with self._lock:
            self._ensure_flushed()
            row = self._conn.execute(
                "SELECT data FROM pages WHERE page = ?", (page_number,)
            ).fetchone()
        if row is None:
            raise StorageError(f"page {page_number} missing from {self.path}")
        return bytes(row[0])

    def page_used(self, page_number: int) -> int:
        self._check_range(page_number)
        with self._lock:
            self._ensure_flushed()
            row = self._conn.execute(
                "SELECT used FROM pages WHERE page = ?", (page_number,)
            ).fetchone()
        if row is None:
            raise StorageError(f"page {page_number} missing from {self.path}")
        return int(row[0])

    def get_pages_batch(self, page_numbers: Sequence[int]) -> List[bytes]:
        for page_number in page_numbers:
            self._check_range(page_number)
        wanted = sorted(set(page_numbers))
        by_number: Dict[int, bytes] = {}
        with self._lock:
            self._ensure_flushed()
            for start in range(0, len(wanted), self._IN_BATCH):
                chunk = wanted[start:start + self._IN_BATCH]
                placeholders = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT page, data FROM pages WHERE page IN ({placeholders})",
                    chunk,
                ).fetchall()
                for page_number, data in rows:
                    by_number[int(page_number)] = bytes(data)
        missing = [n for n in wanted if n not in by_number]
        if missing:
            raise StorageError(f"pages {missing} missing from {self.path}")
        return [self._pad(by_number[page_number]) for page_number in page_numbers]

    @property
    def payload_bytes(self) -> int:
        with self._lock:
            self._ensure_flushed()
            total = self._conn.execute("SELECT COALESCE(SUM(used), 0) FROM pages").fetchone()[0]
        return int(total)

    def _append(self, payload: bytes) -> None:
        self._pending.append((self._count, len(payload), payload))
        self._count += 1
        if len(self._pending) >= self.FLUSH_EVERY:
            self.flush()

    def _overwrite(self, page_number: int, payload: bytes) -> None:
        with self._lock:
            self._ensure_flushed()
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO pages (page, used, data) VALUES (?, ?, ?)",
                    (page_number, len(payload), payload),
                )

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                return
            pending, self._pending = self._pending, []
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO pages (page, used, data) VALUES (?, ?, ?)", pending
                )

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True


# ---------------------------------------------------------------------- #
# factory
# ---------------------------------------------------------------------- #
def store_file_name(backend: str, name: str) -> str:
    """The on-disk file name a named page file uses under ``backend``."""
    backend = _normalize_backend(backend)
    if backend == "mmap":
        return f"{name}.mpages"
    if backend == "sqlite":
        return f"{name}.sqlite"
    raise StorageError(f"backend {backend!r} stores no files")


def open_page_store(
    backend: str,
    name: str,
    page_size: Optional[int] = None,
    directory: Optional[PathLike] = None,
    create: bool = True,
) -> PageStore:
    """Open (or create) the page store for a named page file.

    ``directory`` is required for the on-disk backends; ``create=False``
    reopens an existing store (page size read back from the medium), which is
    how a persisted database survives a process restart.
    """
    backend = _normalize_backend(backend)
    if backend == "memory":
        if not create:
            raise StorageError("an in-memory page store cannot be reopened")
        if page_size is None:
            raise StorageError("creating a memory page store requires a page size")
        return MemoryPageStore(page_size)
    if directory is None:
        raise StorageError(f"the {backend!r} page-store backend needs a directory")
    directory = Path(directory)
    if create:
        directory.mkdir(parents=True, exist_ok=True)
    path = directory / store_file_name(backend, name)
    if backend == "mmap":
        return MmapPageStore(path, page_size=page_size, create=create)
    return SqlitePageStore(path, page_size=page_size, create=create)


def temporary_store_directory() -> tempfile.TemporaryDirectory:
    """A self-cleaning directory for a database's anonymous on-disk stores."""
    return tempfile.TemporaryDirectory(prefix="repro-pagestore-")
