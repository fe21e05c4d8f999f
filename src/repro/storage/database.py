"""The LBS-hosted database: a named collection of page files plus a header.

The header file ``Fh`` is special — it is small, needed by every querying
client, and therefore downloaded in full *without* the PIR interface (see the
paper, Section 5.3).  It is represented separately from the page files so the
distinction is explicit in the code.

A database also decides *where* its page files keep their sealed pages: the
``store_backend``/``store_dir`` arguments (falling back to an active
:func:`~repro.storage.stores.store_backend_scope` and then the
``REPRO_STORE_BACKEND``/``REPRO_STORE_DIR`` environment) select one of the
pluggable :mod:`~repro.storage.stores` backends for every file the database
creates.  With an on-disk backend and no explicit directory, the database
owns a self-cleaning temporary directory, so ``Database(store_backend=
"sqlite")`` "just works" for out-of-core builds that do not need to persist.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Optional

from ..exceptions import StorageError
from .page import DEFAULT_PAGE_SIZE
from .pagefile import PageFile
from .stores import (
    PathLike,
    open_page_store,
    resolve_store_options,
    temporary_store_directory,
)


class Database:
    """A collection of page files exposed to the PIR interface, plus a header."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        store_backend: Optional[str] = None,
        store_dir: Optional[PathLike] = None,
    ) -> None:
        self.page_size = page_size
        backend, directory = resolve_store_options(store_backend, store_dir)
        #: Backend name every file this database creates uses.
        self.store_backend = backend
        self._tmpdir = None
        if backend != "memory" and directory is None:
            self._tmpdir = temporary_store_directory()
            directory = self._tmpdir.name
        #: Directory holding the on-disk stores (None for the memory backend).
        self.store_dir: Optional[Path] = (
            Path(directory) if backend != "memory" and directory is not None else None
        )
        self._files: Dict[str, PageFile] = {}
        self._header: bytes = b""

    # ------------------------------------------------------------------ #
    # header (downloaded directly, not via PIR)
    # ------------------------------------------------------------------ #
    def set_header(self, data: bytes) -> None:
        self._header = bytes(data)

    @property
    def header(self) -> bytes:
        return self._header

    @property
    def header_size_bytes(self) -> int:
        return len(self._header)

    # ------------------------------------------------------------------ #
    # page files (accessed only through the PIR interface during queries)
    # ------------------------------------------------------------------ #
    def create_file(self, name: str) -> PageFile:
        if name in self._files:
            raise StorageError(f"file {name!r} already exists")
        store = open_page_store(
            self.store_backend, name, page_size=self.page_size,
            directory=self.store_dir,
        )
        page_file = PageFile(name, self.page_size, store=store)
        self._files[name] = page_file
        return page_file

    def file(self, name: str) -> PageFile:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"unknown file {name!r}") from None

    def has_file(self, name: str) -> bool:
        return name in self._files

    def file_names(self) -> Iterator[str]:
        return iter(self._files.keys())

    def files(self) -> Iterator[PageFile]:
        return iter(self._files.values())

    @property
    def total_size_bytes(self) -> int:
        """Total database size including the header."""
        return self.header_size_bytes + sum(f.size_bytes for f in self._files.values())

    @property
    def total_size_mb(self) -> float:
        return self.total_size_bytes / (1024.0 * 1024.0)

    def flush(self) -> None:
        """Seal every file's tail page and push buffered pages to the medium.

        Scheme builders call this once the build finishes, so a freshly built
        database is fully on its backend before the first query arrives.
        """
        for page_file in self._files.values():
            page_file.flush()

    def close(self) -> None:
        """Flush and release every file's backing store (idempotent)."""
        for page_file in self._files.values():
            page_file.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        files = ", ".join(
            f"{name}:{page_file.num_pages}p" for name, page_file in self._files.items()
        )
        return (
            f"Database(header={self.header_size_bytes}B, files=[{files}], "
            f"store={self.store_backend})"
        )
