"""The packed kernel's one table strategy: the cache-blocked group-major gather.

``PackedDatabase.answer_rows`` answers every batch over a pack with group
tables — and, past the table budget, every batch the tiled product takes —
through ``_xor_table_rows``: groups are walked in blocks, each block's table
rows gathered with ``np.take(..., mode="clip")`` and folded into the answers.
These tests pin it to the big-int oracle across group widths, batch sizes,
ragged and whole group tails and block walks (one-shot, multi-block, ragged
last block), for single masks and both XOR shares in one call — and pin that
``mode="clip"`` never has anything to clip, while a valid mask does reach the
last row of the table image.
"""

import random

import pytest

from repro.pir import BigIntKernel, answer_shares, draw_shares, numpy_available

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: 37 is not a multiple of 8, 4 or 2: every group width ends on a zero-padded
#: group.  40 is a multiple of all three: every last group is whole, so an
#: all-ones mask reaches the last row of the table image.
BLOCK_COUNTS = [37, 40]
BATCHES = [1, 2, 17, 63, 64, 65, 300]
#: group width -> resident tables of that width (``None``: none fit, so the
#: batch goes to the row gather or, from ``TILED_MIN_BATCH``, the tiled product)
GROUP_BITS = [8, 4, 2, None]
WORDS = [1, 5, 32]
#: groups per gather block (``None``: the class constant — one shot here but
#: for the largest batches); 37 blocks are 5 / 10 / 19 groups and 40 are
#: 5 / 10 / 20, so 1 divides evenly and 3 leaves a ragged last block at every
#: width
WALKS = [None, 1, 3]


def oblivious_read_many(kernel, rng, indices):
    return answer_shares(kernel, *draw_shares(rng, kernel.num_blocks, indices))


def make_blocks(num_blocks, words, seed=0):
    rng = random.Random(seed)
    size = words * 8 - 3  # a block ends inside its last 64-bit word
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(num_blocks)]


def table_bytes(num_blocks, bits, words):
    return -(-num_blocks // bits) * (1 << bits) * words * 8


def make_masks(num_blocks, batch, seed=0):
    """``batch`` masks led by the index-bound pins: all ones (every digit of a
    whole group is ``entries - 1``, that group's largest row number), empty,
    and the single highest bit (the last real block)."""
    rng = random.Random(seed)
    pins = [(1 << num_blocks) - 1, 0, 1 << (num_blocks - 1)]
    return (pins + [rng.getrandbits(num_blocks) for _ in range(batch)])[:batch]


@pytest.fixture(params=BLOCK_COUNTS)
def num_blocks(request):
    return request.param


class Takes(list):
    """Groups gathered per ``np.take`` call; ``last_row[i]`` is whether call
    ``i`` read the last row of the table image it was handed."""

    def __init__(self):
        super().__init__()
        self.last_row = []


@pytest.fixture(autouse=True)
def take_stays_in_range(monkeypatch):
    """Every ``np.take`` of the kernel indexes inside its table image."""
    import numpy as np

    take = np.take
    calls = Takes()

    def checked_take(flat, index, **kwargs):
        assert kwargs.get("mode") == "clip" and kwargs.get("out") is not None
        assert 0 <= index.min() and index.max() < flat.shape[0]
        calls.append(index.shape[0])
        calls.last_row.append(index.max() == flat.shape[0] - 1)
        return take(flat, index, **kwargs)

    monkeypatch.setattr(np, "take", checked_take)
    return calls


@pytest.fixture
def make_pack(monkeypatch):
    """Build the pack under test with ``bits``-wide tables and a ``walk``."""
    from repro.pir.kernels import PackedDatabase

    def build(blocks, bits, words, walk, batch):
        budget = 0 if bits is None else table_bytes(len(blocks), bits, words)
        pack = PackedDatabase.from_blocks(blocks, max_table_bytes=budget)
        assert pack._group_bits == bits
        # one pack serves every thread of its process: nothing may write it
        assert not pack._rows.flags.writeable
        assert pack._tables is None or not pack._tables.flags.writeable
        if walk is not None:
            scratch = walk * rows_per_group(bits, batch) * words * 8
            monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", scratch)
        return pack

    return build


def rows_per_group(bits, batch):
    """Scratch rows one group costs: a mask each, or a tile table if larger."""
    from repro.pir.kernels import PackedDatabase

    if bits is not None:
        return batch
    return max(batch, 1 << PackedDatabase.TILE_GROUP_BITS)


def expected_takes(num_blocks, bits, batch, words, walk):
    """``np.take`` group counts of one ``answer_rows`` call, block by block."""
    from repro.pir.kernels import PackedDatabase

    if bits is None and batch < PackedDatabase.TILED_MIN_BATCH:
        return []  # the per-mask row gather reads rows, not tables
    groups = -(-num_blocks // (bits or PackedDatabase.TILE_GROUP_BITS))
    if walk is None:  # the class constant, not monkeypatched in this case
        scratch = PackedDatabase.GATHER_SCRATCH_BYTES
        walk = max(1, scratch // (rows_per_group(bits, batch) * words * 8))
    return [min(walk, groups - start) for start in range(0, groups, walk)]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("words", WORDS)
@pytest.mark.parametrize("bits", GROUP_BITS)
@pytest.mark.parametrize("batch", BATCHES)
class TestBlockedGatherEqualsOracle:
    def test_answers(
        self, make_pack, take_stays_in_range, num_blocks, batch, bits, words, walk
    ):
        from repro.pir.kernels import PackedDatabase

        blocks = make_blocks(num_blocks, words, seed=batch)
        pack = make_pack(blocks, bits, words, walk, batch)
        masks = make_masks(num_blocks, batch, seed=words)
        assert pack.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)
        takes = expected_takes(num_blocks, bits, batch, words, walk)
        assert take_stays_in_range == takes
        if takes:
            # the all-ones pin leads every batch: with whole last groups the
            # final gather reads the image's last row, with a ragged tail not
            whole_tail = num_blocks % (bits or PackedDatabase.TILE_GROUP_BITS) == 0
            assert take_stays_in_range.last_row[-1] == whole_tail

    def test_both_shares_in_one_call(
        self, make_pack, take_stays_in_range, num_blocks, batch, bits, words, walk
    ):
        blocks = make_blocks(num_blocks, words, seed=batch)
        pack = make_pack(blocks, bits, words, walk, 2 * batch)
        indices = random.Random(batch).choices(range(num_blocks), k=batch)
        answers = oblivious_read_many(pack, random.Random(7), indices)
        assert answers == [blocks[index] for index in indices]
        assert answers == oblivious_read_many(
            BigIntKernel(blocks), random.Random(7), indices
        )
        assert take_stays_in_range == expected_takes(
            num_blocks, bits, 2 * batch, words, walk
        )


@pytest.mark.parametrize("bits", [8, 4, 2])
def test_all_ones_batch_reaches_the_last_table_row_and_no_further(bits):
    """The largest row number any valid mask can produce is the table's last
    row: ``mode="clip"`` is a skipped bounds pass, never a clamp."""
    from repro.pir.kernels import PackedDatabase

    num_blocks = BLOCK_COUNTS[0]
    pack = PackedDatabase.from_blocks(
        make_blocks(num_blocks, 2), max_table_bytes=table_bytes(num_blocks, bits, 2)
    )
    groups, entries, _ = pack._tables.shape
    full_groups = num_blocks // bits  # the padded tail group has fewer blocks
    digits = pack._digits(pack._mask_matrix([(1 << num_blocks) - 1] * 3), bits)
    index = digits.T + pack._group_base[:, None]
    assert index.shape == (groups, 3)
    assert index[:full_groups].max() == full_groups * entries - 1
    assert index.max() < groups * entries


def test_empty_batch_touches_no_tables(take_stays_in_range):
    from repro.pir.kernels import PackedDatabase

    pack = PackedDatabase.from_blocks(make_blocks(37, 5))
    pack._tables = pack._group_base = object()  # any table access would raise
    rows = pack.answer_rows([])
    assert rows.shape == (0, 5) and pack.rows_to_blocks(rows) == []
    assert take_stays_in_range == []


def test_scratch_and_partial_are_allocated_once_per_call(monkeypatch):
    import numpy as np

    from repro.pir.kernels import PackedDatabase

    blocks = make_blocks(37, 5)
    pack = PackedDatabase.from_blocks(blocks, max_table_bytes=table_bytes(37, 2, 5))
    monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", 2 * 4 * 5 * 8)
    masks = make_masks(37, 4)
    allocations = []
    empty, empty_like = np.empty, np.empty_like
    monkeypatch.setattr(
        np, "empty", lambda *a, **k: allocations.append("scratch") or empty(*a, **k)
    )
    monkeypatch.setattr(
        np,
        "empty_like",
        lambda *a, **k: allocations.append("partial") or empty_like(*a, **k),
    )
    answers = pack.answer_many(masks)  # 19 groups, 2 per block: 10 blocks
    assert allocations == ["scratch", "partial"]
    assert answers == BigIntKernel(blocks).answer_many(masks)


@pytest.mark.parametrize("bits", [2, None])
def test_a_reused_scratch_starts_on_a_cache_line(monkeypatch, bits):
    """malloc only promises 16 bytes, and a scratch that splits 32-byte stores
    made the PI-sized walk ~20% slower in the processes that drew one."""
    import numpy as np

    from repro.pir.kernels import PackedDatabase

    blocks = make_blocks(37, 5)
    budget = 0 if bits is None else table_bytes(37, bits, 5)
    pack = PackedDatabase.from_blocks(blocks, max_table_bytes=budget)
    monkeypatch.setattr(PackedDatabase, "TILED_MIN_BATCH", 1)
    monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", 16 * 5 * 8)
    take, starts = np.take, []

    def recording_take(flat, index, **kwargs):
        starts.append(kwargs["out"].ctypes.data % 64)
        return take(flat, index, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    for batch in (1, 3, 16):
        masks = make_masks(37, batch)
        assert pack.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)
    assert len(starts) > 3 and set(starts) == {0}
