"""Tests for the SCP simulator and the hardware-aided PIR interface."""

import pytest

from repro import SystemSpec
from repro.exceptions import FileSizeLimitError, PirError
from repro.pir import AccessTrace, SecureCoprocessor, UsablePirSimulator
from repro.storage import Database


def make_database(num_pages=6, page_size=64):
    database = Database(page_size)
    data = database.create_file("data")
    for index in range(num_pages):
        data.new_page().append(bytes([index]) * 8)
    database.set_header(b"header")
    return database


class TestSecureCoprocessor:
    def test_memory_requirement_grows_with_sqrt(self):
        scp = SecureCoprocessor(SystemSpec(page_size=4096))
        small = scp.memory_required_for(1024)
        large = scp.memory_required_for(4096)
        assert large == pytest.approx(2 * small)

    def test_supports_small_file(self):
        spec = SystemSpec(page_size=64)
        scp = SecureCoprocessor(spec)
        database = make_database(page_size=64)
        assert scp.supports_file(database.file("data"))

    def test_rejects_file_over_max_size(self):
        spec = SystemSpec(page_size=64, max_file_bytes=128)
        scp = SecureCoprocessor(spec)
        database = make_database(num_pages=4, page_size=64)
        assert not scp.supports_file(database.file("data"))
        with pytest.raises(FileSizeLimitError):
            scp.check_file(database.file("data"))

    def test_rejects_file_over_memory_limit(self):
        spec = SystemSpec(page_size=64, scp_memory_bytes=100, scp_memory_factor=10.0)
        scp = SecureCoprocessor(spec)
        database = make_database(num_pages=6, page_size=64)
        assert not scp.supports_file(database.file("data"))

    def test_paper_limit_about_two_and_a_half_gigabytes(self):
        """With 32 MByte of SCP RAM and c = 10 the supported file size is in the
        gigabyte range, matching the 2.5 GByte limit stated in the paper."""
        spec = SystemSpec()
        scp = SecureCoprocessor(spec)
        supported_bytes = (spec.scp_memory_bytes / spec.scp_memory_factor) ** 2
        assert supported_bytes > 2 * 2**30


class TestUsablePirSimulator:
    def test_retrieves_correct_page_and_logs_trace(self):
        database = make_database()
        pir = UsablePirSimulator(database, spec=SystemSpec(page_size=64))
        trace = AccessTrace()
        trace.begin_round()
        page = pir.retrieve_page("data", 3, trace)
        assert page.startswith(bytes([3]) * 8)
        assert trace.total_pir_accesses() == 1
        assert trace.private_page_requests() == [(1, "data", 3)]
        view = trace.adversary_view()
        assert view.events[0].file_name == "data"
        assert view.events[0].kind == "pir"

    def test_accumulates_simulated_time(self):
        database = make_database()
        pir = UsablePirSimulator(database, spec=SystemSpec(page_size=64))
        pir.retrieve_page("data", 0)
        first = pir.simulated_pir_time_s
        pir.retrieve_page("data", 1)
        assert pir.simulated_pir_time_s == pytest.approx(2 * first)
        pir.reset_time()
        assert pir.simulated_pir_time_s == 0.0

    def test_out_of_range_page_rejected(self):
        pir = UsablePirSimulator(make_database(), spec=SystemSpec(page_size=64))
        with pytest.raises(PirError):
            pir.retrieve_page("data", 99)

    def test_header_download_recorded_but_not_pir(self):
        database = make_database()
        pir = UsablePirSimulator(database, spec=SystemSpec(page_size=64))
        trace = AccessTrace()
        trace.begin_round()
        header = pir.download_header(trace)
        assert header == b"header"
        assert trace.total_pir_accesses() == 0
        assert trace.header_bytes == len(b"header")
        assert trace.adversary_view().events[0].kind == "header"

    def test_enforce_limits_flag(self):
        spec = SystemSpec(page_size=64, max_file_bytes=128)
        database = make_database(num_pages=4, page_size=64)
        strict = UsablePirSimulator(database, spec=spec, enforce_limits=True)
        with pytest.raises(FileSizeLimitError):
            strict.retrieve_page("data", 0)
        relaxed = UsablePirSimulator(database, spec=spec, enforce_limits=False)
        assert relaxed.retrieve_page("data", 0)

    def test_adversary_log_is_opt_in(self):
        """XOR serving keeps the server-visible subsets only when asked:
        the log grows by two subsets per retrieval, unbounded."""
        database = make_database()
        spec = SystemSpec(page_size=64)
        reads = [0, 5, 5, 2]
        quiet = UsablePirSimulator(database, spec=spec, xor_kernel="bigint")
        logged = UsablePirSimulator(database, spec=spec, xor_kernel="bigint", log_queries=True)
        assert quiet.retrieve_pages("data", reads) == logged.retrieve_pages("data", reads)
        assert quiet.queries_seen == []
        assert len(logged.queries_seen) == 2 * len(reads)

    def test_file_page_counts(self):
        pir = UsablePirSimulator(make_database(), spec=SystemSpec(page_size=64))
        assert pir.file_page_counts() == {"data": 6}
