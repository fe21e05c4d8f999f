"""Property: every page the client decodes is untrusted bytes.

Each client page type — header, look-up, columnar region, compact region
and index — is mutated (bytes overwritten, inserted and deleted, the page
truncated) and decoded the way the client decodes it.  The result is a valid decode or a
:class:`~repro.exceptions.StorageError`: never another exception and never
an unbounded walk.  The seeds are real pages of every scheme that writes the
page type, on the shared test network.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import StorageError
from repro.partition import RegionColumns
from repro.partition.compact import (
    decode_region_payload_compact,
    encode_region_payload_compact,
)
from repro.schemes.files import HeaderInfo, decode_region_bytes, read_lookup_entry
from repro.schemes.index_entries import (
    IndexEntry,
    decode_index_entry,
    resolve_page_image,
)

#: Scheme fixtures (``tests/conftest.py``) by the scheme name in their header.
SCHEME_FIXTURES = {
    "CI": "ci_scheme",
    "PI": "pi_scheme",
    "HY": "hybrid_scheme",
    "LM": "landmark_scheme",
    "AF": "arcflag_scheme",
}
#: The schemes that write look-up, region and index pages.
INDEXED_SCHEMES = ["CI", "PI", "HY"]

EXAMPLES = settings(max_examples=150, deadline=None)

#: Up to six edits: ``(kind, position, byte)``; positions wrap to the page.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("set", "insert", "delete", "truncate")),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=6,
)


def mutate(page, edits):
    out = bytearray(page)
    for kind, position, value in edits:
        position %= len(out) + 1
        if kind == "set" and position < len(out):
            out[position] = value
        elif kind == "insert":
            out.insert(position, value)
        elif kind == "delete":
            del out[position : position + 1]
        elif kind == "truncate":
            del out[position:]
    return bytes(out)


@pytest.fixture(scope="module", params=sorted(SCHEME_FIXTURES))
def any_scheme(request):
    return request.getfixturevalue(SCHEME_FIXTURES[request.param])


@pytest.fixture(scope="module", params=INDEXED_SCHEMES)
def indexed_scheme(request):
    return request.getfixturevalue(SCHEME_FIXTURES[request.param])


def file_pages(scheme, file_name, first, count):
    page_file = scheme.database.file(file_name)
    return page_file.read_pages_batch(list(range(first, first + count)))


@EXAMPLES
@given(data=st.data())
def test_header_decodes_and_routes_or_raises(any_scheme, data):
    page = mutate(any_scheme.database.header, data.draw(EDITS))
    try:
        header = HeaderInfo.decode(page)
    except StorageError:
        return
    coordinate = st.floats(min_value=-1.0, max_value=2.0)
    try:
        region = header.region_of_point(data.draw(coordinate), data.draw(coordinate))
    except StorageError:
        pass
    else:
        assert isinstance(region, int)
    if header.num_regions:
        region_ids = st.integers(min_value=0, max_value=header.num_regions - 1)
        try:
            page_number, slot = header.lookup_page_for(
                data.draw(region_ids), data.draw(region_ids)
            )
        except StorageError:
            pass
        else:
            assert page_number >= 0 and 0 <= slot < header.lookup_entries_per_page
    # round 1 checks the counts against the true page counts the client
    # learns from the PIR layer; a header that passes sizes a bounded window
    database = any_scheme.database
    try:
        header.check_page_counts(lambda name: database.file(name).num_pages)
    except StorageError:
        return
    first = data.draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    try:
        window = header.index_pages_starting_at(first)
    except StorageError:
        return
    assert len(window) <= header.index_fetch_pages
    assert len(window) <= database.file(header.index_file).num_pages
    assert all(0 <= number < header.num_index_pages for number in window)
    assert all(b - a == 1 for a, b in zip(window, window[1:]))


@EXAMPLES
@given(data=st.data())
def test_lookup_entry_reads_or_raises(indexed_scheme, data):
    header = HeaderInfo.decode(indexed_scheme.database.header)
    page_number = data.draw(st.integers(min_value=0, max_value=header.num_lookup_pages - 1))
    (page,) = file_pages(indexed_scheme, header.lookup_file, page_number, 1)
    slot = data.draw(st.integers(min_value=0, max_value=header.lookup_entries_per_page - 1))
    try:
        entry = read_lookup_entry(mutate(page, data.draw(EDITS)), slot)
    except StorageError:
        return
    assert 0 <= entry < 1 << 32


@EXAMPLES
@given(data=st.data())
def test_region_payload_decodes_or_raises(indexed_scheme, data):
    header = HeaderInfo.decode(indexed_scheme.database.header)
    region = data.draw(st.integers(min_value=0, max_value=header.num_regions - 1))
    step = header.data_pages_per_region
    pages = file_pages(
        indexed_scheme, header.data_file, header.data_page_offset + region * step, step
    )
    try:
        decoded = decode_region_bytes(mutate(b"".join(pages), data.draw(EDITS)))
    except StorageError:
        return
    assert isinstance(decoded, RegionColumns)
    assert len(decoded.ids) * 2 == len(decoded.xy)
    assert len(decoded.ids) == len(decoded.degrees)
    assert sum(decoded.degrees) == len(decoded.neighbours) == len(decoded.weights)


@EXAMPLES
@given(data=st.data())
def test_compact_region_payload_decodes_or_raises(indexed_scheme, data):
    # no scheme writes the compact codec yet: seed it with the regions the
    # scheme's data file holds
    regions = list(indexed_scheme.partitioning.regions())
    region = regions[data.draw(st.integers(min_value=0, max_value=len(regions) - 1))]
    payload = encode_region_payload_compact(indexed_scheme.network, region.node_ids)
    try:
        decoded = decode_region_payload_compact(mutate(payload, data.draw(EDITS)))
    except StorageError:
        return
    assert isinstance(decoded, dict)


@EXAMPLES
@given(data=st.data())
def test_index_pages_resolve_or_raise(indexed_scheme, data):
    header = HeaderInfo.decode(indexed_scheme.database.header)
    first = data.draw(st.integers(min_value=0, max_value=header.num_index_pages - 1))
    window = header.index_pages_starting_at(first)
    pages = file_pages(indexed_scheme, header.index_file, window[0], len(window))
    victim = data.draw(st.integers(min_value=0, max_value=len(pages) - 1))
    pages[victim] = mutate(pages[victim], data.draw(EDITS))
    try:
        entries = resolve_page_image(pages[victim])
    except StorageError:
        pass
    else:
        assert all(isinstance(entry, IndexEntry) for entry in entries)
    region_ids = st.integers(min_value=0, max_value=header.num_regions - 1)
    key = (data.draw(region_ids), data.draw(region_ids))
    try:
        entry = decode_index_entry(pages, key)
    except StorageError:
        return
    assert entry is None or (entry.key == key and isinstance(entry, IndexEntry))
