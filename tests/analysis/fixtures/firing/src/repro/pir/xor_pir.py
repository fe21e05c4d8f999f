"""Firing fixture: a second XOR client under pir/ drawing masks of its own."""
from repro.pir.batch import random_subset_masks


def retrieve_many(rng, num_blocks, indices):
    masks_a = random_subset_masks(rng, num_blocks, len(indices))
    return masks_a, [mask ^ (1 << index) for mask, index in zip(masks_a, indices)]
