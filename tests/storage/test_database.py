"""Tests for the LBS database (named page files plus header)."""

import pytest

from repro.exceptions import StorageError
from repro.storage import Database


class TestDatabase:
    def test_create_and_lookup_files(self):
        database = Database(page_size=64)
        data = database.create_file("data")
        assert database.has_file("data")
        assert database.file("data") is data
        assert list(database.file_names()) == ["data"]

    def test_duplicate_file_rejected(self):
        database = Database(page_size=64)
        database.create_file("data")
        with pytest.raises(StorageError):
            database.create_file("data")

    def test_unknown_file_rejected(self):
        with pytest.raises(StorageError):
            Database().file("missing")

    def test_header_storage(self):
        database = Database()
        assert database.header == b""
        database.set_header(b"header-bytes")
        assert database.header == b"header-bytes"
        assert database.header_size_bytes == 12

    def test_total_size_includes_header_and_files(self):
        database = Database(page_size=32)
        database.set_header(b"h" * 10)
        data = database.create_file("data")
        data.new_page()
        data.new_page()
        assert database.total_size_bytes == 10 + 64
        assert database.total_size_mb == pytest.approx((10 + 64) / (1024 * 1024))
