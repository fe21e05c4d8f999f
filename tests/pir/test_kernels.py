"""Tests for the pluggable XOR-PIR server kernels (packed numpy vs big-int)."""

import importlib
import random

import pytest

from repro.exceptions import PirError
from repro.pir import (
    ENV_PIR_KERNEL,
    BigIntKernel,
    answer_shares,
    draw_shares,
    kernel_from_pages,
    make_kernel,
    mask_indices,
    numpy_available,
    random_subset_masks,
    resolve_kernel,
    shared_kernel,
    xor_bytes,
)
from repro.pir.kernels import PackedDatabase
from repro.storage import PageFile, open_page_store

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
without_numpy = pytest.mark.skipif(numpy_available(), reason="only without numpy")
KERNELS = ("bigint", "numpy") if numpy_available() else ("bigint",)


def oblivious_read_many(kernel, rng, indices, log=None):
    """A two-server XOR read of ``indices``: draw both shares, answer them."""
    return answer_shares(kernel, *draw_shares(rng, kernel.num_blocks, indices, log))


def make_blocks(count=8, size=32, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def oracle_answer(blocks, mask):
    """Straight-line XOR of the mask-selected blocks (independent of kernels)."""
    accumulator = 0
    for index, block in enumerate(blocks):
        if (mask >> index) & 1:
            accumulator ^= int.from_bytes(block, "big")
    return accumulator.to_bytes(len(blocks[0]), "big")


def random_masks(num_blocks, count, seed=0):
    rng = random.Random(seed)
    masks = [rng.getrandbits(num_blocks) for _ in range(count)]
    # always include the edge masks: empty subset and the full database
    return [0, (1 << num_blocks) - 1] + masks


def page_file_with(blocks, backend="memory", directory=None):
    page_size = len(blocks[0])
    store = open_page_store(backend, "kern", page_size=page_size, directory=directory)
    page_file = PageFile("kern", page_size=page_size, store=store)
    for block in blocks:
        page = page_file.new_page()
        page.append(block)
    page_file.flush()
    return page_file


class TestXorBytes:
    def test_xor_is_its_own_inverse(self):
        a = b"\x01\x02\x03"
        b = b"\xff\x00\x0f"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch_rejected(self):
        with pytest.raises(PirError):
            xor_bytes(b"ab", b"abc")

    @pytest.mark.parametrize("module", ["repro.serving.client", "repro.serving.loadgen"])
    def test_serving_modules_bind_the_kernel_xor(self, module):
        """The e2e tracer wraps ``xor_bytes`` under each serving module's
        name; both must be the kernel's one function."""
        assert importlib.import_module(module).xor_bytes is xor_bytes


class TestKernelSelection:
    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv(ENV_PIR_KERNEL, raising=False)
        expected = "numpy" if numpy_available() else "bigint"
        assert resolve_kernel() == expected
        assert resolve_kernel("auto") == expected

    def test_explicit_name_normalized(self):
        assert resolve_kernel(" BigInt ") == "bigint"

    def test_unknown_name_rejected(self):
        with pytest.raises(PirError):
            resolve_kernel("simd")

    def test_environment_variable_supplies_default(self, monkeypatch):
        monkeypatch.setenv(ENV_PIR_KERNEL, "bigint")
        assert resolve_kernel() == "bigint"
        # but an explicit argument still wins over the environment
        if numpy_available():
            assert resolve_kernel("numpy") == "numpy"

    def test_empty_environment_variable_means_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_PIR_KERNEL, "")
        assert resolve_kernel() == ("numpy" if numpy_available() else "bigint")

    @without_numpy
    def test_numpy_request_without_numpy_rejected(self):
        with pytest.raises(PirError):
            resolve_kernel("numpy")

    def test_make_kernel_builds_selected_implementation(self):
        blocks = make_blocks(4)
        bigint = make_kernel(blocks, kernel="bigint")
        assert isinstance(bigint, BigIntKernel)
        if numpy_available():
            packed = make_kernel(blocks, kernel="numpy")
            assert isinstance(packed, PackedDatabase)


class TestBigIntKernel:
    def test_answers_match_manual_xor(self):
        blocks = make_blocks(10, 24)
        kernel = BigIntKernel(blocks)
        for mask in random_masks(10, 20):
            assert kernel.answer_mask(mask) == oracle_answer(blocks, mask)

    def test_empty_subset_gives_zero_block(self):
        kernel = BigIntKernel(make_blocks(3, 8))
        assert kernel.answer_indices([]) == bytes(8)

    def test_empty_database_rejected(self):
        with pytest.raises(PirError):
            BigIntKernel([])
        with pytest.raises(PirError):
            BigIntKernel.from_fetcher(0, 8, lambda numbers: [])

    def test_invalid_mask_rejected(self):
        kernel = BigIntKernel(make_blocks(4, 8))
        with pytest.raises(PirError):
            kernel.answer_mask(-1)
        with pytest.raises(PirError):
            kernel.answer_mask(1 << 4)


@pytest.mark.parametrize("kernel_name", KERNELS)
class TestServerKernelAnswers:
    """One server's answer off ``make_kernel``, whichever kernel serves it."""

    def test_answer_is_xor_of_selected_blocks(self, kernel_name):
        blocks = make_blocks(4, 8)
        kernel = make_kernel(blocks, kernel=kernel_name)
        assert kernel.answer_mask(0b0101) == xor_bytes(blocks[0], blocks[2])

    def test_empty_mask_gives_zero_block(self, kernel_name):
        kernel = make_kernel(make_blocks(3, 8), kernel=kernel_name)
        assert kernel.answer_mask(0) == bytes(8)

    @pytest.mark.parametrize("blocks", [[b"ab", b"abc"], [b"abc", b"ab"]])
    def test_unequal_block_sizes_rejected(self, kernel_name, blocks):
        with pytest.raises(PirError, match="block 1 has"):
            make_kernel(blocks, kernel=kernel_name)

    def test_database_shape(self, kernel_name):
        kernel = make_kernel(make_blocks(5, 12), kernel=kernel_name)
        assert (kernel.num_blocks, kernel.block_size) == (5, 12)


@pytest.mark.parametrize("kernel_name", KERNELS)
class TestTwoServerRead:
    """``draw_shares`` -> ``answer_shares`` as a block-level private read."""

    def test_retrieves_every_block_correctly(self, kernel_name):
        blocks = make_blocks(16, 64)
        kernel = make_kernel(blocks, kernel=kernel_name)
        rng = random.Random(2)
        for index, block in enumerate(blocks):
            assert oblivious_read_many(kernel, rng, [index]) == [block]

    def test_repeated_retrievals_consistent(self, kernel_name):
        blocks = make_blocks(6, 16)
        kernel = make_kernel(blocks, kernel=kernel_name)
        rng = random.Random(4)
        for _ in range(5):
            assert oblivious_read_many(kernel, rng, [3]) == [blocks[3]]

    @pytest.mark.parametrize("index", [4, -1])
    def test_out_of_range_index_rejected_before_the_draw(self, kernel_name, index):
        kernel = make_kernel(make_blocks(4, 8), kernel=kernel_name)
        rng = random.Random(9)
        state = rng.getstate()
        seen = []
        with pytest.raises(PirError):
            oblivious_read_many(kernel, rng, [0, index], log=seen.append)
        assert rng.getstate() == state
        assert seen == []

    def test_batched_read_equals_per_index_reads(self, kernel_name):
        blocks = make_blocks(11, 24, seed=3)
        kernel = make_kernel(blocks, kernel=kernel_name)
        indices = [10, 0, 5, 5, 7]
        batched = oblivious_read_many(kernel, random.Random(1), indices)
        rng = random.Random(1)
        single = [oblivious_read_many(kernel, rng, [index])[0] for index in indices]
        assert batched == single == [blocks[index] for index in indices]


@requires_numpy
class TestPackedDatabase:
    # group padding: below, at and across group boundaries for every width
    @pytest.mark.parametrize("num_blocks", [1, 5, 8, 9, 37, 64, 200])
    @pytest.mark.parametrize("block_size", [7, 8, 32, 41])
    def test_bit_identical_to_bigint_oracle(self, num_blocks, block_size):
        blocks = make_blocks(num_blocks, block_size, seed=num_blocks)
        packed = PackedDatabase.from_blocks(blocks)
        oracle = BigIntKernel(blocks)
        masks = random_masks(num_blocks, 12, seed=block_size)
        assert packed.answer_many(masks) == oracle.answer_many(masks)
        for mask in masks[:4]:
            assert packed.answer_mask(mask) == oracle.answer_mask(mask)

    def test_answer_indices_matches_oracle(self):
        blocks = make_blocks(20, 16)
        packed = PackedDatabase.from_blocks(blocks)
        oracle = BigIntKernel(blocks)
        for indices in ([], [0], [3, 7, 19], list(range(20))):
            assert packed.answer_indices(indices) == oracle.answer_indices(indices)

    # 100 blocks of 2 words: table bytes are 53248 / 6400 / 3200 for 8/4/2 bits
    @pytest.mark.parametrize("budget,expected_bits", [
        (64 * 1024 * 1024, 8),
        (8000, 4),
        (3300, 2),
        (64, None),  # beyond any table: per-mask row-gather fallback
    ])
    def test_adaptive_group_width_stays_exact(self, monkeypatch, budget, expected_bits):
        # this pins the *class default* budget path; an ambient env override
        # (the CI fallback leg sets REPRO_PIR_MAX_TABLE_BYTES=1) would win
        from repro.pir.kernels import ENV_MAX_TABLE_BYTES

        monkeypatch.delenv(ENV_MAX_TABLE_BYTES, raising=False)
        monkeypatch.setattr(PackedDatabase, "MAX_TABLE_BYTES", budget)
        blocks = make_blocks(100, 16, seed=9)
        packed = PackedDatabase.from_blocks(blocks)
        assert packed._group_bits == expected_bits
        assert (packed._tables is None) == (expected_bits is None)
        oracle = BigIntKernel(blocks)
        masks = random_masks(100, 16, seed=2)
        assert packed.answer_many(masks) == oracle.answer_many(masks)

    def test_invalid_mask_errors_match_bigint(self):
        blocks = make_blocks(6, 8)
        packed, oracle = PackedDatabase.from_blocks(blocks), BigIntKernel(blocks)
        for bad in (-1, 1 << 6, (1 << 6) | 1):
            with pytest.raises(PirError) as packed_error:
                packed.answer_mask(bad)
            with pytest.raises(PirError) as oracle_error:
                oracle.answer_mask(bad)
            assert str(packed_error.value) == str(oracle_error.value)

    def test_packed_rows_are_immutable(self):
        packed = PackedDatabase.from_blocks(make_blocks(4, 8))
        with pytest.raises(ValueError):
            packed._rows[0, 0] = 1

    def test_packed_tables_are_immutable(self):
        # the combination tables are shared by every consumer of a memoised
        # pack, so a stray write must fail like one to the rows does
        packed = PackedDatabase.from_blocks(make_blocks(16, 8), max_table_bytes=1 << 20)
        assert packed._tables is not None
        with pytest.raises(ValueError):
            packed._tables[0, 0, 0] = 1

    def test_wrong_block_size_rejected(self):
        with pytest.raises(PirError):
            PackedDatabase.from_fetcher(2, 8, lambda numbers: [b"x" * 8, b"y" * 7])

    def test_empty_database_rejected(self):
        with pytest.raises(PirError):
            PackedDatabase.from_blocks([])

    def test_nbytes_accounts_for_tables(self):
        packed = PackedDatabase.from_blocks(make_blocks(16, 8))
        assert packed.nbytes >= packed._rows.nbytes > 0


@requires_numpy
class TestTiledFallbackGolden:
    """Golden answers at and just past the group-table budget.

    100 blocks of 16 bytes (2 words): the narrowest (2-bit) tables cost
    exactly 3200 bytes.  A budget of 3200 keeps resident tables; 3199 tips
    the pack into the fallback regime, where batches below
    ``TILED_MIN_BATCH`` run the per-mask row gather and serving-sized
    batches run the tiled GF(2) product.  Every strategy must produce the
    same bytes for the same masks — the budget is a memory knob, never an
    answer knob (invariant I2).
    """

    NUM_BLOCKS, BLOCK_SIZE = 100, 16
    TWO_BIT_TABLE_BYTES = 3200

    def _pack(self, budget):
        blocks = make_blocks(self.NUM_BLOCKS, self.BLOCK_SIZE, seed=7)
        return blocks, PackedDatabase.from_blocks(blocks, max_table_bytes=budget)

    def test_budget_boundary_is_exact(self):
        _, at_budget = self._pack(self.TWO_BIT_TABLE_BYTES)
        _, past_budget = self._pack(self.TWO_BIT_TABLE_BYTES - 1)
        assert at_budget._group_bits == 2 and at_budget._tables is not None
        assert past_budget._group_bits is None and past_budget._tables is None

    @pytest.mark.parametrize(
        "batch",
        [
            1,
            PackedDatabase.TILED_MIN_BATCH - 1,  # last row-gather batch
            PackedDatabase.TILED_MIN_BATCH,  # first tiled batch
            PackedDatabase.TILED_MIN_BATCH * 3,  # the coalesced serving regime
        ],
    )
    def test_at_and_past_budget_answers_are_golden(self, batch):
        blocks, at_budget = self._pack(self.TWO_BIT_TABLE_BYTES)
        _, past_budget = self._pack(self.TWO_BIT_TABLE_BYTES - 1)
        masks = random_masks(self.NUM_BLOCKS, batch, seed=batch)[:batch]
        golden = BigIntKernel(blocks).answer_many(masks)
        assert at_budget.answer_many(masks) == golden
        assert past_budget.answer_many(masks) == golden

    def test_tiled_and_gather_agree_on_every_batch(self):
        import numpy as np

        _, pack = self._pack(0)
        for batch in (1, 2, 11, 12, 13, 96):
            masks = random_masks(self.NUM_BLOCKS, batch, seed=batch)[:batch]
            matrix = pack._mask_matrix(masks)
            gather = pack._answer_rows_gather(
                matrix, np.zeros((batch, pack.words), dtype=np.uint64)
            )
            tiled = pack._answer_rows_tiled(
                matrix, np.zeros((batch, pack.words), dtype=np.uint64)
            )
            assert pack.rows_to_blocks(tiled) == pack.rows_to_blocks(gather)

    def test_dispatch_crosses_at_tiled_min_batch(self, monkeypatch):
        _, pack = self._pack(0)
        calls = []
        original_gather = PackedDatabase._answer_rows_gather
        original_tiled = PackedDatabase._answer_rows_tiled
        monkeypatch.setattr(
            PackedDatabase,
            "_answer_rows_gather",
            lambda self, m, o: calls.append("gather") or original_gather(self, m, o),
        )
        monkeypatch.setattr(
            PackedDatabase,
            "_answer_rows_tiled",
            lambda self, m, o: calls.append("tiled") or original_tiled(self, m, o),
        )
        small = random_masks(self.NUM_BLOCKS, pack.TILED_MIN_BATCH - 1, seed=1)
        pack.answer_many(small[: pack.TILED_MIN_BATCH - 1])
        large = random_masks(self.NUM_BLOCKS, pack.TILED_MIN_BATCH, seed=2)
        pack.answer_many(large[: pack.TILED_MIN_BATCH])
        assert calls == ["gather", "tiled"]

    def test_environment_budget_forces_fallback(self, monkeypatch):
        """The CI leg's knob: REPRO_PIR_MAX_TABLE_BYTES shrinks every pack."""
        from repro.pir.kernels import ENV_MAX_TABLE_BYTES

        monkeypatch.setenv(ENV_MAX_TABLE_BYTES, "1")
        blocks, pack = self._pack(None)
        assert pack._tables is None
        masks = random_masks(self.NUM_BLOCKS, 40, seed=5)
        assert pack.answer_many(masks) == BigIntKernel(blocks).answer_many(masks)

    def test_bad_environment_budget_rejected(self, monkeypatch):
        from repro.pir.kernels import ENV_MAX_TABLE_BYTES

        monkeypatch.setenv(ENV_MAX_TABLE_BYTES, "lots")
        with pytest.raises(PirError):
            self._pack(None)


class TestKernelFromPages:
    def test_memory_page_file_packs_exactly(self):
        blocks = make_blocks(12, 64)
        page_file = page_file_with(blocks)
        kernel = kernel_from_pages(page_file)
        expected = page_file.read_pages_batch(range(12))
        assert kernel.answer_many([1 << n for n in range(12)]) == expected

    def test_page_subset_packs_shard_view(self):
        blocks = make_blocks(10, 32)
        page_file = page_file_with(blocks)
        subset = [1, 4, 7]
        kernel = kernel_from_pages(page_file, page_numbers=subset)
        assert kernel.num_blocks == 3
        for local, global_page in enumerate(subset):
            assert kernel.answer_indices([local]) == page_file.read_page(global_page)

    def test_mmap_store_packs_through_zero_copy_views(self, tmp_path):
        blocks = make_blocks(9, 128)
        page_file = page_file_with(blocks, backend="mmap", directory=tmp_path)
        try:
            views = []
            original = page_file.store.get_page_view
            page_file.store.get_page_view = lambda n: views.append(n) or original(n)
            kernel = kernel_from_pages(page_file)
            assert sorted(views) == list(range(9)), "expected the zero-copy path"
            assert kernel.answer_many([1 << n for n in range(9)]) == blocks
        finally:
            page_file.close()

    def test_live_tail_page_is_packed_too(self):
        page_file = PageFile("tail", page_size=16)
        page_file.append_record_packed(b"0123456789abcdef")
        page_file.append_record_packed(b"fedcba9876543210")  # still the mutable tail
        assert page_file._tail is not None
        kernel = kernel_from_pages(page_file)
        assert kernel.num_blocks == 2
        assert kernel.answer_indices([1]) == page_file.read_page(1)

    def test_empty_page_file_rejected(self):
        with pytest.raises(PirError):
            kernel_from_pages(PageFile("empty", page_size=16))


class TestSharedKernel:
    def test_pack_is_memoised_per_store(self):
        page_file = page_file_with(make_blocks(6, 32))
        first = shared_kernel(page_file)
        assert shared_kernel(page_file) is first

    def test_kernel_name_and_subset_key_separate_entries(self):
        page_file = page_file_with(make_blocks(6, 32))
        whole = shared_kernel(page_file, kernel="bigint")
        subset = shared_kernel(page_file, page_numbers=[0, 1], kernel="bigint",
                               cache_key=("shard", 0))
        assert whole is not subset
        assert whole.num_blocks == 6 and subset.num_blocks == 2
        if numpy_available():
            assert shared_kernel(page_file, kernel="numpy") is not whole

    def test_growth_triggers_repack(self):
        blocks = make_blocks(4, 32)
        page_file = page_file_with(blocks)
        before = shared_kernel(page_file)
        page_file.new_page().append(b"!" * 32)
        page_file.flush()
        after = shared_kernel(page_file)
        assert after is not before
        assert after.num_blocks == 5

    def test_distinct_stores_do_not_share(self):
        blocks = make_blocks(5, 32)
        one = page_file_with(blocks)
        two = page_file_with(blocks)
        assert shared_kernel(one) is not shared_kernel(two)


class TestObliviousReadMany:
    @pytest.mark.parametrize("kernel_name", ["bigint", "numpy"])
    def test_recovers_requested_blocks(self, kernel_name):
        if kernel_name == "numpy" and not numpy_available():
            pytest.skip("numpy not installed")
        blocks = make_blocks(14, 48)
        kernel = make_kernel(blocks, kernel=kernel_name)
        rng = random.Random(11)
        indices = [rng.randrange(14) for _ in range(25)]
        assert oblivious_read_many(kernel, rng, indices) == [blocks[i] for i in indices]

    def test_empty_batch_short_circuits(self):
        kernel = make_kernel(make_blocks(3, 8), kernel="bigint")
        assert oblivious_read_many(kernel, random.Random(0), []) == []

    def test_an_empty_read_draws_nothing(self):
        rng = random.Random(6)
        state = rng.getstate()
        assert draw_shares(rng, 9, [], log=lambda subset: 1 / 0) == ([], [])
        assert rng.getstate() == state

    def test_a_batch_is_one_draw_off_the_stream(self):
        """The contract's grouping: ``k`` reads consume exactly the bits of
        one ``random_subset_masks(rng, n, k)`` call, whatever they read."""
        rng, reference = random.Random(8), random.Random(8)
        masks_a, masks_b = draw_shares(rng, 21, [20, 0, 7, 7])
        assert masks_a == random_subset_masks(reference, 21, 4)
        assert [a ^ b for a, b in zip(masks_a, masks_b)] == [1 << 20, 1, 1 << 7, 1 << 7]
        assert rng.getstate() == reference.getstate()

    def test_log_sees_share_a_then_share_b_in_request_order(self):
        seen = []
        masks_a, masks_b = draw_shares(random.Random(1), 10, [3, 9], log=seen.append)
        assert seen == [
            frozenset(mask_indices(mask))
            for pair in zip(masks_a, masks_b)
            for mask in pair
        ]

    @requires_numpy
    @pytest.mark.parametrize("max_table_bytes", [None, 1])
    @pytest.mark.parametrize("batch", [1, 5, 6, 15, 16, 31, 32, 45])
    def test_both_shares_answer_in_one_kernel_call(self, batch, max_table_bytes, monkeypatch):
        """Both XOR shares ride one ``answer_rows`` call, so the kernel sees
        twice the batch — with group tables and, past the table budget, on
        either side of ``TILED_MIN_BATCH`` the halves still combine to the
        big-int oracle's answers."""
        blocks = make_blocks(40, 24, seed=batch)
        packed = PackedDatabase.from_blocks(blocks, max_table_bytes=max_table_bytes)
        calls = []
        answer_rows = PackedDatabase.answer_rows
        monkeypatch.setattr(
            PackedDatabase,
            "answer_rows",
            lambda self, masks: calls.append(len(masks)) or answer_rows(self, masks),
        )
        indices = random.Random(batch).choices(range(40), k=batch)
        answers = oblivious_read_many(packed, random.Random(3), indices)
        assert calls == [2 * batch]
        assert answers == oblivious_read_many(BigIntKernel(blocks), random.Random(3), indices)
        assert answers == [blocks[i] for i in indices]

    @requires_numpy
    def test_adversary_log_identical_across_kernels(self):
        """Same RNG state => byte-identical mask stream => identical logs,
        whichever kernel answers.  This is the queries_seen parity the
        privacy analysis relies on."""
        blocks = make_blocks(18, 32)
        indices = [3, 0, 17, 9, 9, 4]
        logs = {}
        for name in ("bigint", "numpy"):
            kernel = make_kernel(blocks, kernel=name)
            seen = []
            answers = oblivious_read_many(
                kernel, random.Random(99), indices, log=seen.append
            )
            assert answers == [blocks[i] for i in indices]
            assert len(seen) == 2 * len(indices)
            logs[name] = seen
        assert logs["bigint"] == logs["numpy"]

    def test_logged_subsets_differ_only_at_retrieved_index(self):
        blocks = make_blocks(12, 16)
        kernel = make_kernel(blocks, kernel="bigint")
        seen = []
        oblivious_read_many(kernel, random.Random(5), [7], log=seen.append)
        subset_a, subset_b = seen
        assert subset_a.symmetric_difference(subset_b) == {7}

    def test_single_server_view_does_not_determine_index(self):
        """Each server sees a uniformly random subset: repeating one read
        sends different subsets, and the wanted index is in some but not all
        of them, exactly as any other index is."""
        kernel = make_kernel(make_blocks(8, 8), kernel="bigint")
        rng = random.Random(21)
        seen = []
        for _ in range(30):
            oblivious_read_many(kernel, rng, [2], log=seen.append)
        server_a = seen[::2]
        assert len(set(server_a)) > 1, "server A should not see a constant query"
        containing = sum(1 for subset in server_a if 2 in subset)
        assert 0 < containing < len(server_a)
