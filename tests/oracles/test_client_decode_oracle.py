"""The flat-struct client decoders equal the field-by-field reference.

:mod:`client_decode_reference` holds the decoders that read every field
through :class:`~repro.storage.RecordReader` and route points through a
rebuilt split tree.  The fast decoders must return the same objects for
every input: node ids and split indices on both sides of the one- and
two-byte varint limits (127/128, 16,383/16,384), degrees 0/127/128/300,
floats of any bit pattern (compared by their packed bytes, so NaN and -0.0
count), trailing page padding — and a :class:`StorageError`, never a
``struct.error``, for every truncated input.  Region records are stored in
columns now; the reference reads the same nodes written in the row format.
"""

from __future__ import annotations

import random
import struct
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

import client_decode_reference as reference
from region_rows_reference import rows_of
from repro import SystemSpec
from repro.exceptions import StorageError
from repro.network import random_planar_network
from repro.partition import compute_border_nodes, decode_region_payload, packed_kdtree_partition
from repro.precompute import compute_border_products
from repro.schemes import (
    ConciseIndexScheme,
    HybridScheme,
    PassageIndexScheme,
    QueryPlan,
    RoundSpec,
)
from repro.schemes.files import HeaderInfo
from repro.storage import RecordWriter

#: Integers on both sides of the one-, two- and three-byte varint limits.
EDGE_INTS = (0, 1, 126, 127, 128, 129, 16383, 16384, 16385, 2**21, 2**32 - 1)
SPECIAL_FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-45, 3.5)
DEGREES = (0, 1, 2, 3, 127, 128, 300)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _int(rng: random.Random, bits: int = 32) -> int:
    return rng.choice(EDGE_INTS) if rng.random() < 0.5 else rng.getrandbits(bits)


def _float_bytes(rng: random.Random, codec: str) -> bytes:
    """Packed float bytes: a special value, or any bit pattern at all."""
    if rng.random() < 0.4:
        return struct.pack(codec, rng.choice(SPECIAL_FLOATS))
    return rng.randbytes(struct.calcsize(codec))


def _region_payload(seed: int, count: int) -> Tuple[bytes, bytes]:
    """One random region in the row format and in the column format."""
    rng = random.Random(seed)
    nodes = []
    for _ in range(count):
        node_id = _int(rng)
        xy = _float_bytes(rng, "<f") + _float_bytes(rng, "<f")
        edges = [(_int(rng), _float_bytes(rng, "<f")) for _ in range(rng.choice(DEGREES))]
        nodes.append((node_id, xy, edges))
    rows = RecordWriter().varint(count)
    columns = RecordWriter().varint(count)
    for node_id, xy, edges in nodes:
        rows.uint32(node_id).raw(xy).varint(len(edges))
        for neighbor, weight in edges:
            rows.uint32(neighbor).raw(weight)
        columns.uint32(node_id)
    edges = [edge for _, _, node_edges in nodes for edge in node_edges]
    columns.raw(b"".join(xy for _, xy, _ in nodes))
    for _, _, node_edges in nodes:
        columns.varint(len(node_edges))
    for neighbor, _ in edges:
        columns.uint32(neighbor)
    columns.raw(b"".join(weight for _, weight in edges))
    return rows.getvalue(), columns.getvalue()


def _canonical_payload(nodes):
    return [
        (node_id, _bits(x), _bits(y), [(neighbor, _bits(w)) for neighbor, w in adjacency])
        for node_id, (x, y, adjacency) in nodes.items()
    ]


def _header_bytes(seed: int, num_splits: int) -> bytes:
    rng = random.Random(seed)
    splits = []
    for index in range(num_splits):
        value = struct.unpack("<d", _float_bytes(rng, "<d"))[0]
        splits.append((index, rng.randrange(3), value, _int(rng), _int(rng)))
    rounds = [
        RoundSpec(
            fetches=tuple(
                (rng.choice(("lookup", "index", "data", "é")), _int(rng, 8))
                for _ in range(rng.randrange(3))
            ),
            includes_header=rng.random() < 0.5,
        )
        for _ in range(rng.randrange(5))
    ]
    header = HeaderInfo(
        scheme_name=rng.choice(("CI", "PI", "HY", "")),
        page_size=_int(rng),
        num_regions=_int(rng),
        data_file="data",
        index_file=rng.choice(("index", "combined")),
        lookup_file="lookup",
        data_pages_per_region=_int(rng),
        data_page_offset=_int(rng),
        lookup_entries_per_page=_int(rng),
        index_fetch_pages=_int(rng),
        data_round_pages=_int(rng),
        num_index_pages=_int(rng),
        num_data_pages=_int(rng),
        num_lookup_pages=_int(rng),
        tree_splits=splits,
        plan=QueryPlan.from_rounds(rounds),
        index_continuation_pages=_int(rng),
    )
    return header.encode()


def _canonical_header(header: HeaderInfo):
    fields = dict(vars(header))
    fields["tree_splits"] = [
        (index, axis, _bits(value), left, right)
        for index, axis, value, left, right in header.tree_splits
    ]
    return fields


payload_counts = st.one_of(st.integers(0, 4), st.sampled_from((127, 128)))
split_counts = st.one_of(st.integers(0, 4), st.sampled_from((127, 128, 130)))
seeds = st.integers(0, 2**32 - 1)
padding = st.integers(0, 64)


class TestRegionPayload:
    """The columnar decoder's row view equals the field-by-field decoder's
    reading of the same region in the row format."""

    @settings(max_examples=60, deadline=None)
    @given(seeds, payload_counts, padding)
    def test_matches_reference(self, seed, count, pad):
        rows, columns = _region_payload(seed, count)
        assert len(rows) == len(columns)
        fast = rows_of(decode_region_payload(columns + bytes(pad)))
        slow = reference.decode_region_payload(rows + bytes(pad))
        assert _canonical_payload(fast) == _canonical_payload(slow)

    @settings(max_examples=60, deadline=None)
    @given(seeds, payload_counts, st.data())
    def test_truncated_payload_raises_storage_error(self, seed, count, data):
        rows, columns = _region_payload(seed, count)
        cut = data.draw(st.integers(0, len(columns) - 1))
        with pytest.raises(StorageError):
            decode_region_payload(columns[:cut])
        with pytest.raises(StorageError):
            reference.decode_region_payload(rows[:cut])


class TestHeader:
    @settings(max_examples=60, deadline=None)
    @given(seeds, split_counts, padding)
    def test_matches_reference(self, seed, num_splits, pad):
        data = _header_bytes(seed, num_splits) + bytes(pad)
        fast = HeaderInfo.decode(data)
        assert _canonical_header(fast) == _canonical_header(reference.decode_header(data))
        assert fast.encode() == data[: len(data) - pad]

    @settings(max_examples=60, deadline=None)
    @given(seeds, split_counts, st.data())
    def test_truncated_header_raises_storage_error(self, seed, num_splits, data):
        header = _header_bytes(seed, num_splits)
        cut = data.draw(st.integers(0, len(header) - 1))
        with pytest.raises(StorageError):
            HeaderInfo.decode(header[:cut])
        with pytest.raises(StorageError):
            reference.decode_header(header[:cut])


@pytest.fixture(scope="module", params=[300, 600])
def built(request):
    """A network and its CI, PI and HY header bytes (one shared pre-computation)."""
    network = random_planar_network(request.param, seed=1)
    spec = SystemSpec(page_size=256)
    partitioning = packed_kdtree_partition(network, spec.page_size - 8)
    border_index = compute_border_nodes(network, partitioning)
    products = compute_border_products(
        network, partitioning, border_index, want_region_sets=True, want_subgraphs=True
    )
    headers = {
        scheme_class.name: scheme_class.build(
            network, spec, partitioning=partitioning, border_index=border_index, products=products
        ).database.header
        for scheme_class in (ConciseIndexScheme, PassageIndexScheme, HybridScheme)
    }
    return network, headers


@pytest.mark.parametrize("scheme_name", ["CI", "PI", "HY"])
def test_region_of_point_matches_reference(built, scheme_name):
    network, headers = built
    data = headers[scheme_name]
    header = HeaderInfo.decode(data)
    tree = reference.split_tree(reference.decode_header(data))
    xs = [node.x for node in network.nodes()]
    ys = [node.y for node in network.nodes()]
    points = list(zip(xs, ys))
    # every split value, hit exactly on its own axis (ties go right)
    points += [(value, value) for _, axis, value, _, _ in header.tree_splits if axis != 2]
    rng = random.Random(len(xs))
    span_x, span_y = max(xs) - min(xs), max(ys) - min(ys)
    points += [
        (
            rng.uniform(min(xs) - 0.1 * span_x, max(xs) + 0.1 * span_x),
            rng.uniform(min(ys) - 0.1 * span_y, max(ys) + 0.1 * span_y),
        )
        for _ in range(10_000)
    ]
    for x, y in points:
        assert header.region_of_point(x, y) == reference.descend(tree, x, y), (x, y)
