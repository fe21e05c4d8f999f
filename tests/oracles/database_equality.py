"""Bit-for-bit database comparison, the check of the persistence and backend tests."""

from __future__ import annotations

from repro.storage import Database


def databases_equal(first: Database, second: Database) -> bool:
    """True when two databases are bit-for-bit identical (header, files, pages)."""
    if first.page_size != second.page_size or first.header != second.header:
        return False
    if set(first.file_names()) != set(second.file_names()):
        return False
    for name in first.file_names():
        file_a, file_b = first.file(name), second.file(name)
        if file_a.num_pages != file_b.num_pages:
            return False
        for page_a, page_b in zip(file_a.pages(), file_b.pages()):
            if page_a.used_bytes != page_b.used_bytes or page_a.payload() != page_b.payload():
                return False
    return True
