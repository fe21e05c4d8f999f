"""Tests for the Table 2 system specification."""

import pytest

from repro.costmodel import DEFAULT_SPEC


class TestSystemSpec:
    def test_defaults_match_table2(self):
        spec = DEFAULT_SPEC
        assert spec.page_size == 4096
        assert spec.disk_seek_s == pytest.approx(0.011)
        assert spec.disk_rate_bps == 125 * 1024 * 1024
        assert spec.scp_io_rate_bps == 80 * 1024 * 1024
        assert spec.scp_crypto_rate_bps == 10 * 1024 * 1024
        assert spec.bandwidth_bps == 48 * 1024
        assert spec.round_trip_s == pytest.approx(0.7)
        assert spec.scp_memory_bytes == 32 * 1024 * 1024
        assert spec.max_file_bytes == int(2.5 * 1024**3)

    def test_with_overrides_returns_new_spec(self):
        custom = DEFAULT_SPEC.with_overrides(page_size=512, round_trip_s=0.1)
        assert custom.page_size == 512
        assert custom.round_trip_s == 0.1
        assert DEFAULT_SPEC.page_size == 4096  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SPEC.page_size = 1  # type: ignore[misc]
