"""Unit tests for the pluggable page-store backends."""

import os

import pytest

from repro.exceptions import StorageError
from repro.storage import (
    STORE_BACKENDS,
    MemoryPageStore,
    MmapPageStore,
    SqlitePageStore,
    open_page_store,
    resolve_store_options,
    store_backend_scope,
    store_file_name,
)


@pytest.fixture(params=STORE_BACKENDS)
def store(request, tmp_path):
    """One store per backend, pre-sized to 32-byte pages."""
    opened = open_page_store(request.param, "data", page_size=32, directory=tmp_path)
    yield opened
    opened.close()


class TestPageStoreContract:
    def test_backend_names(self, store):
        assert store.backend in STORE_BACKENDS

    def test_append_and_read_back(self, store):
        assert store.append_page(b"alpha") == 0
        assert store.append_page(b"beta") == 1
        assert store.num_pages == 2
        assert store.get_payload(0) == b"alpha"
        assert store.get_page(1) == b"beta" + b"\x00" * 28
        assert store.page_used(0) == 5
        assert store.payload_bytes == 9

    def test_batch_matches_single_reads(self, store):
        for i in range(6):
            store.append_page(bytes([65 + i]) * (i + 1))
        batch = store.get_pages_batch([4, 0, 2, 4])
        assert batch == [store.get_page(4), store.get_page(0), store.get_page(2), store.get_page(4)]

    def test_iter_pages_in_order(self, store):
        payloads = [b"a", b"bb", b"ccc"]
        for payload in payloads:
            store.append_page(payload)
        assert list(store.iter_payloads()) == payloads
        pages = [store.get_page(n) for n in range(store.num_pages)]
        assert [page[:3].rstrip(b"\x00") for page in pages] == payloads

    def test_put_page_overwrites(self, store):
        store.append_page(b"old")
        store.put_page(0, b"newer")
        assert store.get_payload(0) == b"newer"

    def test_out_of_range_reads_raise(self, store):
        store.append_page(b"x")
        for bad in (-1, 1, 99):
            with pytest.raises(StorageError):
                store.get_page(bad)
        with pytest.raises(StorageError):
            store.get_pages_batch([0, 1])

    def test_oversized_payload_rejected(self, store):
        with pytest.raises(StorageError):
            store.append_page(b"x" * 33)

    def test_close_is_idempotent(self, store):
        store.append_page(b"x")
        store.close()
        store.close()


class TestDiskBackends:
    @pytest.mark.parametrize("backend", ["mmap", "sqlite"])
    def test_reopen_serves_same_bytes(self, backend, tmp_path):
        store = open_page_store(backend, "data", page_size=64, directory=tmp_path)
        payloads = [os.urandom(17 * (i % 3) + 1) for i in range(40)]
        for payload in payloads:
            store.append_page(payload)
        store.close()

        reopened = open_page_store(backend, "data", directory=tmp_path, create=False)
        assert reopened.page_size == 64  # read back from the medium
        assert reopened.num_pages == 40
        assert list(reopened.iter_payloads()) == payloads
        reopened.close()

    @pytest.mark.parametrize("backend", ["mmap", "sqlite"])
    def test_reads_interleave_with_appends(self, backend, tmp_path):
        # reads must see pages still sitting in the append buffer
        store = open_page_store(backend, "data", page_size=16, directory=tmp_path)
        for i in range(10):
            store.append_page(bytes([i]) * 4)
            assert store.get_payload(i) == bytes([i]) * 4
        store.close()

    def test_mmap_zero_copy_view(self, tmp_path):
        store = MmapPageStore(tmp_path / "data.mpages", page_size=32)
        store.append_page(b"zero-copy")
        view = store.get_page_view(0)
        assert isinstance(view, memoryview)
        assert bytes(view[:9]) == b"zero-copy"
        view.release()
        store.close()

    def test_mmap_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "data.mpages"
        path.write_bytes(b"not a page store file")
        with pytest.raises(StorageError):
            MmapPageStore(path, create=False)

    def test_sqlite_reopen_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            SqlitePageStore(tmp_path / "absent.sqlite", create=False)


class TestFactory:
    def test_unknown_backend(self, tmp_path):
        with pytest.raises(StorageError):
            open_page_store("tape", "data", page_size=32, directory=tmp_path)

    def test_disk_backend_requires_directory(self):
        with pytest.raises(StorageError):
            open_page_store("sqlite", "data", page_size=32)

    def test_memory_backend_cannot_reopen(self, tmp_path):
        with pytest.raises(StorageError):
            open_page_store("memory", "data", create=False)

    def test_store_file_names(self):
        assert store_file_name("mmap", "data") == "data.mpages"
        assert store_file_name("sqlite", "index") == "index.sqlite"

    def test_resolve_order_scope_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        assert resolve_store_options()[0] == "sqlite"
        with store_backend_scope("mmap", tmp_path):
            backend, directory = resolve_store_options()
            assert backend == "mmap"
            assert directory == tmp_path
            # explicit argument beats the scope
            assert resolve_store_options("memory")[0] == "memory"
        assert resolve_store_options()[0] == "sqlite"

    def test_resolve_defaults_to_memory(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert resolve_store_options() == ("memory", None)

    def test_memory_store_is_default(self):
        store = MemoryPageStore(page_size=16)
        assert store.backend == "memory"
        assert store.num_pages == 0
