"""Tests for the subset-mask helpers and the kernels' mask validation."""

import random

import pytest

from repro.exceptions import PirError
from repro.pir import (
    make_kernel,
    mask_indices,
    numpy_available,
    random_subset_masks,
    xor_bytes,
)

KERNELS = ("bigint", "numpy") if numpy_available() else ("bigint",)


def make_blocks(count=8, size=32, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def subset_mask(indices):
    return sum(1 << index for index in indices)


class TestMaskHelpers:
    def test_roundtrip(self):
        indices = [0, 3, 7, 12]
        assert mask_indices(subset_mask(indices)) == indices

    def test_empty_mask(self):
        assert mask_indices(0) == []

    def test_negative_rejected(self):
        with pytest.raises(PirError):
            mask_indices(-1)

    def test_random_masks_are_bounded(self):
        rng = random.Random(5)
        masks = random_subset_masks(rng, num_blocks=10, count=50)
        assert len(masks) == 50
        assert all(0 <= mask < (1 << 10) for mask in masks)

    def test_random_masks_count_zero(self):
        assert random_subset_masks(random.Random(1), 4, 0) == []

    def test_random_masks_invalid_arguments(self):
        with pytest.raises(PirError):
            random_subset_masks(random.Random(1), 0, 3)
        with pytest.raises(PirError):
            random_subset_masks(random.Random(1), 4, -1)

    def test_mask_validated_against_database_size(self):
        # bit 8 names block 8, one past a 8-block database
        with pytest.raises(PirError):
            mask_indices(1 << 8, num_blocks=8)
        assert mask_indices((1 << 8) - 1, num_blocks=8) == list(range(8))

    def test_mask_validation_off_without_num_blocks(self):
        assert mask_indices(1 << 40) == [40]


@pytest.mark.parametrize("kernel_name", KERNELS)
class TestAnswerMask:
    def test_mask_answer_matches_subset_answer(self, kernel_name):
        blocks = make_blocks(6, 16)
        kernel = make_kernel(blocks, kernel=kernel_name)
        subset = [0, 2, 5]
        assert kernel.answer_mask(subset_mask(subset)) == kernel.answer_indices(subset)

    def test_out_of_range_mask_rejected(self, kernel_name):
        kernel = make_kernel(make_blocks(3, 8), kernel=kernel_name)
        with pytest.raises(PirError):
            kernel.answer_mask(1 << 3)
        with pytest.raises(PirError):
            kernel.answer_many([0b001, 1 << 3])

    def test_corrupted_mask_rejected_not_misdecoded(self, kernel_name):
        # a mask whose low bits are valid but which also names block 7 of a
        # 3-block database must error, not silently drop the invalid bit
        kernel = make_kernel(make_blocks(3, 8), kernel=kernel_name)
        with pytest.raises(PirError):
            kernel.answer_mask(0b101 | (1 << 7))
        with pytest.raises(PirError):
            kernel.answer_many([0b101 | (1 << 7)])

    def test_answer_many(self, kernel_name):
        blocks = make_blocks(5, 8)
        kernel = make_kernel(blocks, kernel=kernel_name)
        answers = kernel.answer_many([subset_mask([0]), subset_mask([1, 2])])
        assert answers[0] == blocks[0]
        assert answers[1] == xor_bytes(blocks[1], blocks[2])
