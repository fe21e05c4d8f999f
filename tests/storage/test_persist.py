"""Tests for database disk persistence (save/load round trips and tampering)."""

import json

import pytest

from repro.exceptions import StorageError
from database_equality import databases_equal
from repro.storage import Database, load_database, save_database
from repro.storage.persist import HEADER_NAME, MANIFEST_NAME


def build_sample_database(page_size=128):
    database = Database(page_size)
    database.set_header(b"header-bytes-for-the-clients")
    lookup = database.create_file("lookup")
    lookup.append_record_packed(b"lookup-entry-1")
    lookup.append_record_packed(b"lookup-entry-2")
    data = database.create_file("data")
    for index in range(5):
        data.append_record_packed(bytes([index]) * 40)
    return database


class TestSaveLoadRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        original = build_sample_database()
        save_database(original, tmp_path)
        restored = load_database(tmp_path)
        assert databases_equal(original, restored)

    def test_manifest_and_files_written(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        assert (tmp_path / MANIFEST_NAME).exists()
        assert (tmp_path / HEADER_NAME).exists()
        assert (tmp_path / "lookup.pages").exists()
        assert (tmp_path / "data.pages").exists()

    def test_page_utilization_survives(self, tmp_path):
        original = build_sample_database()
        save_database(original, tmp_path)
        restored = load_database(tmp_path)
        for name in original.file_names():
            assert restored.file(name).utilization == original.file(name).utilization

    def test_resave_overwrites(self, tmp_path):
        database = build_sample_database()
        save_database(database, tmp_path)
        database.file("data").append_record_packed(b"extra-record")
        save_database(database, tmp_path)
        restored = load_database(tmp_path)
        assert databases_equal(database, restored)

    def test_empty_database(self, tmp_path):
        database = Database(64)
        database.set_header(b"h")
        save_database(database, tmp_path)
        restored = load_database(tmp_path)
        assert databases_equal(database, restored)

    def test_scheme_database_round_trip(self, ci_scheme, tmp_path):
        save_database(ci_scheme.database, tmp_path)
        restored = load_database(tmp_path)
        assert databases_equal(ci_scheme.database, restored)


class TestLoadFailures:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_unsupported_version(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["version"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_tampered_page_file_detected(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        image = bytearray((tmp_path / "data.pages").read_bytes())
        image[0] ^= 0xFF
        (tmp_path / "data.pages").write_bytes(bytes(image))
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_tampered_header_detected(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        (tmp_path / HEADER_NAME).write_bytes(b"evil header")
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_verification_can_be_disabled(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        image = bytearray((tmp_path / "data.pages").read_bytes())
        image[0] ^= 0xFF
        (tmp_path / "data.pages").write_bytes(bytes(image))
        restored = load_database(tmp_path, verify=False)
        assert restored.has_file("data")

    def test_missing_page_file(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        (tmp_path / "data.pages").unlink()
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_truncated_page_file(self, tmp_path):
        save_database(build_sample_database(), tmp_path)
        image = (tmp_path / "data.pages").read_bytes()
        (tmp_path / "data.pages").write_bytes(image[:-10])
        with pytest.raises(StorageError):
            load_database(tmp_path)


class TestDatabasesEqual:
    def test_different_headers(self):
        first = build_sample_database()
        second = build_sample_database()
        second.set_header(b"other header")
        assert not databases_equal(first, second)

    def test_different_file_sets(self):
        first = build_sample_database()
        second = build_sample_database()
        second.create_file("extra")
        assert not databases_equal(first, second)

    def test_identical(self):
        assert databases_equal(build_sample_database(), build_sample_database())
