"""Tests for network-index entries, fragmentation and compression."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import repro
from repro.exceptions import SchemeError
from repro.schemes.index_entries import (
    KIND_REGION_RAW,
    KIND_SUBGRAPH_RAW,
    IndexFileBuilder,
    _ELEMENT_BYTES,
    _encode_raw,
    _fitting_count,
    _frame,
    _framed_raw_size,
    _varint_size,
    decode_index_entry,
)
from repro.storage import PageFile, RecordWriter, encode_varint


def build_index(entries, page_size=128, compress=True, max_region_set_size=None):
    page_file = PageFile("index", page_size=page_size)
    builder = IndexFileBuilder(
        page_file, compress=compress, max_region_set_size=max_region_set_size
    )
    for key, value in entries:
        if value and isinstance(next(iter(value)), tuple):
            builder.add_subgraph(key[0], key[1], value)
        else:
            builder.add_region_set(key[0], key[1], value)
    return page_file, builder


def fetch_entry(page_file, builder, key):
    location = builder.location_of(key)
    pages = [
        page_file.read_page(number)
        for number in range(location.start_page, location.start_page + location.page_span)
    ]
    return decode_index_entry(pages, key)


class TestRegionSetEntries:
    def test_round_trip_small_sets(self):
        entries = [((0, 1), {2, 3}), ((0, 2), {3, 4, 5}), ((1, 2), set())]
        page_file, builder = build_index(entries)
        for key, regions in entries:
            entry = fetch_entry(page_file, builder, key)
            assert entry is not None
            assert entry.regions >= frozenset(regions)

    def test_effective_set_is_superset_but_bounded(self):
        """Compression may inflate a set, but never beyond the plan value m."""
        rng = random.Random(0)
        max_size = 12
        entries = []
        for i in range(6):
            for j in range(6):
                size = rng.randrange(0, max_size + 1)
                entries.append(((i, j), set(rng.sample(range(50), size))))
        page_file, builder = build_index(entries, max_region_set_size=max_size)
        for key, regions in entries:
            entry = fetch_entry(page_file, builder, key)
            assert entry.regions >= frozenset(regions)
            assert len(entry.regions) <= max_size

    def test_duplicate_pair_rejected(self):
        page_file = PageFile("index", page_size=128)
        builder = IndexFileBuilder(page_file)
        builder.add_region_set(0, 1, {2})
        with pytest.raises(SchemeError):
            builder.add_region_set(0, 1, {3})

    def test_missing_pair_rejected(self):
        _, builder = build_index([((0, 1), {2})])
        with pytest.raises(SchemeError):
            builder.location_of((5, 5))

    def test_fragmented_large_set(self):
        big = set(range(200))
        page_file, builder = build_index([((0, 1), big), ((0, 2), {1})], page_size=128)
        location = builder.location_of((0, 1))
        assert location.page_span > 1
        assert builder.max_page_span == location.page_span
        entry = fetch_entry(page_file, builder, (0, 1))
        assert entry.regions == frozenset(big)

    def test_compression_reduces_size_for_overlapping_sets(self):
        base = set(range(30))
        entries = [((0, j), set(base) | {100 + j}) for j in range(20)]
        _, compressed_builder = build_index(entries, page_size=256, compress=True)
        _, raw_builder = build_index(entries, page_size=256, compress=False)
        compressed_pages = compressed_builder.page_file.num_pages
        raw_pages = raw_builder.page_file.num_pages
        assert compressed_pages <= raw_pages
        assert compressed_pages < raw_pages  # overlap is large, so compression must help


class TestSubgraphEntries:
    def edges(self, seed, count):
        rng = random.Random(seed)
        return {(rng.randrange(100), rng.randrange(100), float(rng.randrange(1, 50))) for _ in range(count)}

    def test_round_trip(self):
        entries = [((0, 1), self.edges(1, 5)), ((0, 2), self.edges(2, 8))]
        page_file, builder = build_index(entries, page_size=256)
        for key, edges in entries:
            entry = fetch_entry(page_file, builder, key)
            assert entry.edges is not None
            assert {(u, v) for u, v, _ in entry.edges} >= {(u, v) for u, v, _ in edges}

    def test_weights_survive_round_trip(self):
        edges = {(1, 2, 3.5), (2, 3, 7.25)}
        page_file, builder = build_index([((0, 1), edges)], page_size=256)
        entry = fetch_entry(page_file, builder, (0, 1))
        assert entry.edges == frozenset(edges)

    def test_fragmented_large_subgraph(self):
        edges = self.edges(3, 150)
        page_file, builder = build_index([((0, 1), edges)], page_size=128)
        assert builder.location_of((0, 1)).page_span > 1
        entry = fetch_entry(page_file, builder, (0, 1))
        assert {(u, v) for u, v, _ in entry.edges} == {(u, v) for u, v, _ in edges}

    def test_subgraph_compression_adds_only_edges(self):
        shared = self.edges(4, 20)
        entries = [((0, j), set(shared) | {(200 + j, 201 + j, 1.0)}) for j in range(10)]
        page_file, builder = build_index(entries, page_size=1024, compress=True)
        for key, edges in entries:
            entry = fetch_entry(page_file, builder, key)
            # the effective subgraph may be inflated by reference edges but
            # always contains the true subgraph
            assert entry.edges >= frozenset(edges)

    def test_empty_subgraph(self):
        page_file = PageFile("index", page_size=128)
        builder = IndexFileBuilder(page_file)
        builder.add_subgraph(3, 3, set())
        entry = fetch_entry(page_file, builder, (3, 3))
        assert entry.edges == frozenset()


class TestDecoding:
    def test_missing_key_returns_none(self):
        page_file, builder = build_index([((0, 1), {2})])
        assert decode_index_entry([page_file.read_page(0)], (9, 9)) is None

    def test_decoding_ignores_page_padding(self):
        page_file, builder = build_index([((0, 1), {2, 3, 4})], page_size=256)
        page = page_file.read_page(0)
        assert len(page) == 256  # padded
        entry = decode_index_entry([page], (0, 1))
        assert entry.regions == frozenset({2, 3, 4})


class TestFragmentSizing:
    """The arithmetic fragment size equals the length of the real encoding."""

    @given(st.integers(min_value=0, max_value=1 << 28))
    @example(127)
    @example(128)
    @example(16_383)
    @example(16_384)
    def test_varint_size(self, value):
        assert _varint_size(value) == len(encode_varint(value))

    @given(st.integers(min_value=0, max_value=300))
    @example(127)
    @example(128)
    def test_frame_size(self, body_bytes):
        assert len(_frame(bytes(body_bytes))) == _varint_size(body_bytes) + body_bytes

    # counts at the varint boundaries of the element count (127/128,
    # 16,383/16,384) and of the framed body (a region body crosses 127 bytes
    # between 29 and 30 elements, an edge body between 9 and 10)
    @given(st.integers(min_value=0, max_value=400))
    @example(9)
    @example(10)
    @example(29)
    @example(30)
    @example(127)
    @example(128)
    @example(16_383)
    @example(16_384)
    def test_framed_raw_size(self, count):
        regions = list(range(count))
        edges = [(k, k + 1, 0.5) for k in range(count)]
        for kind, elements in ((KIND_REGION_RAW, regions), (KIND_SUBGRAPH_RAW, edges)):
            assert _framed_raw_size(count, _ELEMENT_BYTES[kind]) == len(
                _frame(_encode_raw((3, 4), kind, elements))
            )

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=300),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=2**32 - 1),
                st.floats(width=32, allow_nan=False),
            ),
            max_size=300,
        ),
    )
    def test_packed_encoding_matches_the_record_writer(self, regions, edges):
        key = (7, 2**32 - 1)
        writer = RecordWriter()
        writer.uint32(key[0]).uint32(key[1]).raw(bytes([KIND_REGION_RAW]))
        writer.uint32_list(regions)
        assert _encode_raw(key, KIND_REGION_RAW, regions) == writer.getvalue()
        writer = RecordWriter()
        writer.uint32(key[0]).uint32(key[1]).raw(bytes([KIND_SUBGRAPH_RAW]))
        writer.varint(len(edges))
        for u, v, w in edges:
            writer.uint32(u).uint32(v).float32(w)
        assert _encode_raw(key, KIND_SUBGRAPH_RAW, edges) == writer.getvalue()

    @given(
        st.integers(min_value=0, max_value=20_000),
        st.sampled_from(sorted(_ELEMENT_BYTES.values())),
        st.integers(min_value=0, max_value=2_000),
    )
    @example(16_384 * 4 + 12, _ELEMENT_BYTES[KIND_REGION_RAW], 20_000)
    def test_fitting_count_is_the_largest_fit(self, free_bytes, element_bytes, limit):
        count = _fitting_count(free_bytes, element_bytes, limit)
        assert 0 <= count <= limit
        if count:
            assert _framed_raw_size(count, element_bytes) <= free_bytes
        if count < limit:
            assert _framed_raw_size(count + 1, element_bytes) > free_bytes


class TestElementLargerThanPage:
    """A page too small for one element is an error, not an endless loop.

    Each case runs in a child process under a timeout, so a regression to
    the endless loop fails the test instead of hanging the suite.
    """

    def place(self, page_size: int, call: str) -> str:
        script = (
            "from repro.exceptions import StorageError\n"
            "from repro.schemes.index_entries import IndexFileBuilder\n"
            "from repro.storage import Database\n"
            f"builder = IndexFileBuilder(Database({page_size}).create_file('idx'))\n"
            "try:\n"
            f"    builder.{call}\n"
            "except StorageError as error:\n"
            "    print('StorageError:', error)\n"
        )
        source_root = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_edge_larger_than_page(self):
        output = self.place(20, "add_subgraph(0, 1, [(1, 2, 1.0), (2, 3, 1.0)])")
        assert output.startswith("StorageError:")
        assert "20 bytes" in output and "edge needs 23 bytes" in output

    def test_region_larger_than_page(self):
        output = self.place(12, "add_region_set(0, 1, range(40))")
        assert output.startswith("StorageError:")
        assert "12 bytes" in output and "region needs 15 bytes" in output
