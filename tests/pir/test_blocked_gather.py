"""The packed kernel's one table strategy: the cache-blocked group-major gather.

``PackedDatabase.answer_rows`` answers every batch over a pack with group
tables — and, past the table budget, every batch the tiled product takes —
through ``_xor_table_rows``: groups are walked in blocks, each block's table
rows gathered with ``np.take(..., mode="clip")`` and folded into the answers.
These tests pin it to the big-int oracle across group widths, batch sizes,
ragged group tails and block walks (one-shot, multi-block, ragged last block),
for private packs, attached shared packs and both XOR shares in one call —
and pin that ``mode="clip"`` never has anything to clip.
"""

import random

import pytest

from repro.pir import BigIntKernel, answer_shares, draw_shares, numpy_available

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

#: not a multiple of 8, 4 or 2: every group width ends on a zero-padded group
NUM_BLOCKS = 37
BATCHES = [1, 2, 17, 63, 64, 65, 300]
#: group width -> resident tables of that width (``None``: none fit, so the
#: batch goes to the row gather or, from ``TILED_MIN_BATCH``, the tiled product)
GROUP_BITS = [8, 4, 2, None]
WORDS = [1, 5, 32]
#: groups per gather block (``None``: the class constant — one shot here but
#: for the largest batches); 37 blocks are 5 / 10 / 19 groups, so 1 divides
#: evenly and 3 leaves a ragged last block at every width
WALKS = [None, 1, 3]


def oblivious_read_many(kernel, rng, indices):
    return answer_shares(kernel, *draw_shares(rng, kernel.num_blocks, indices))


def make_blocks(words, seed=0):
    rng = random.Random(seed)
    size = words * 8 - 3  # a block ends inside its last 64-bit word
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(NUM_BLOCKS)]


def table_bytes(bits, words):
    return -(-NUM_BLOCKS // bits) * (1 << bits) * words * 8


def make_masks(batch, seed=0):
    """``batch`` masks led by the index-bound pins: all ones (every digit is
    ``entries - 1``, the largest row number of every group), empty, and the
    single highest bit (the last real block, inside the padded tail group)."""
    rng = random.Random(seed)
    pins = [(1 << NUM_BLOCKS) - 1, 0, 1 << (NUM_BLOCKS - 1)]
    return (pins + [rng.getrandbits(NUM_BLOCKS) for _ in range(batch)])[:batch]


@pytest.fixture(autouse=True)
def take_stays_in_range(monkeypatch):
    """Every ``np.take`` of the kernel indexes inside its table image."""
    import numpy as np

    take = np.take
    calls = []

    def checked_take(flat, index, **kwargs):
        assert kwargs.get("mode") == "clip" and kwargs.get("out") is not None
        assert 0 <= index.min() and index.max() < flat.shape[0]
        calls.append(index.shape[0])
        return take(flat, index, **kwargs)

    monkeypatch.setattr(np, "take", checked_take)
    return calls


@pytest.fixture(params=["private", "attached"])
def make_pack(request, monkeypatch):
    """Build the pack under test; ``attached`` serves it off shared memory."""
    from repro.pir.kernels import PackedDatabase

    owners = []

    def build(blocks, bits, words, walk, batch):
        budget = 0 if bits is None else table_bytes(bits, words)
        pack = PackedDatabase.from_blocks(blocks, max_table_bytes=budget)
        assert pack._group_bits == bits
        if walk is not None:
            scratch = walk * rows_per_group(bits, batch) * words * 8
            monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", scratch)
        if request.param == "attached":
            owners.append(pack)
            pack = PackedDatabase.attach(pack.to_shared())
            owners.append(pack)
        return pack

    yield build
    for pack in reversed(owners):
        pack.close_shared()


def rows_per_group(bits, batch):
    """Scratch rows one group costs: a mask each, or a tile table if larger."""
    from repro.pir.kernels import PackedDatabase

    if bits is not None:
        return batch
    return max(batch, 1 << PackedDatabase.TILE_GROUP_BITS)


def expected_takes(bits, batch, words, walk):
    """``np.take`` group counts of one ``answer_rows`` call, block by block."""
    from repro.pir.kernels import PackedDatabase

    if bits is None and batch < PackedDatabase.TILED_MIN_BATCH:
        return []  # the per-mask row gather reads rows, not tables
    groups = -(-NUM_BLOCKS // (bits or PackedDatabase.TILE_GROUP_BITS))
    if walk is None:  # the class constant, not monkeypatched in this case
        scratch = PackedDatabase.GATHER_SCRATCH_BYTES
        walk = max(1, scratch // (rows_per_group(bits, batch) * words * 8))
    return [min(walk, groups - start) for start in range(0, groups, walk)]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("words", WORDS)
@pytest.mark.parametrize("bits", GROUP_BITS)
@pytest.mark.parametrize("batch", BATCHES)
class TestBlockedGatherEqualsOracle:
    def test_answers(self, make_pack, take_stays_in_range, batch, bits, words, walk):
        blocks = make_blocks(words, seed=batch)
        pack = make_pack(blocks, bits, words, walk, batch)
        masks = make_masks(batch, seed=words)
        assert pack.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)
        assert take_stays_in_range == expected_takes(bits, batch, words, walk)

    def test_both_shares_in_one_call(
        self, make_pack, take_stays_in_range, batch, bits, words, walk
    ):
        blocks = make_blocks(words, seed=batch)
        pack = make_pack(blocks, bits, words, walk, 2 * batch)
        indices = random.Random(batch).choices(range(NUM_BLOCKS), k=batch)
        answers = oblivious_read_many(pack, random.Random(7), indices)
        assert answers == [blocks[index] for index in indices]
        assert answers == oblivious_read_many(
            BigIntKernel(blocks), random.Random(7), indices
        )
        assert take_stays_in_range == expected_takes(bits, 2 * batch, words, walk)


@pytest.mark.parametrize("bits", [8, 4, 2])
def test_all_ones_batch_reaches_the_last_table_row_and_no_further(bits):
    """The largest row number any valid mask can produce is the table's last
    row: ``mode="clip"`` is a skipped bounds pass, never a clamp."""
    from repro.pir.kernels import PackedDatabase

    pack = PackedDatabase.from_blocks(
        make_blocks(2), max_table_bytes=table_bytes(bits, 2)
    )
    groups, entries, _ = pack._tables.shape
    full_groups = NUM_BLOCKS // bits  # the padded tail group has fewer blocks
    digits = pack._digits(pack._mask_matrix([(1 << NUM_BLOCKS) - 1] * 3), bits)
    index = digits.T + pack._group_base[:, None]
    assert index.shape == (groups, 3)
    assert index[:full_groups].max() == full_groups * entries - 1
    assert index.max() < groups * entries


def test_empty_batch_touches_no_tables(take_stays_in_range):
    from repro.pir.kernels import PackedDatabase

    pack = PackedDatabase.from_blocks(make_blocks(5))
    pack._tables = pack._group_base = object()  # any table access would raise
    rows = pack.answer_rows([])
    assert rows.shape == (0, 5) and pack.rows_to_blocks(rows) == []
    assert take_stays_in_range == []


def test_scratch_and_partial_are_allocated_once_per_call(monkeypatch):
    import numpy as np

    from repro.pir.kernels import PackedDatabase

    blocks = make_blocks(5)
    pack = PackedDatabase.from_blocks(blocks, max_table_bytes=table_bytes(2, 5))
    monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", 2 * 4 * 5 * 8)
    masks = make_masks(4)
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

    blocks = make_blocks(5)
    budget = 0 if bits is None else table_bytes(bits, 5)
    pack = PackedDatabase.from_blocks(blocks, max_table_bytes=budget)
    monkeypatch.setattr(PackedDatabase, "TILED_MIN_BATCH", 1)
    monkeypatch.setattr(PackedDatabase, "GATHER_SCRATCH_BYTES", 16 * 5 * 8)
    take, starts = np.take, []

    def recording_take(flat, index, **kwargs):
        starts.append(kwargs["out"].ctypes.data % 64)
        return take(flat, index, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    for batch in (1, 3, 16):
        masks = make_masks(batch)
        assert pack.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)
    assert len(starts) > 3 and set(starts) == {0}
