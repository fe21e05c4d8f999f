"""Firing fixture: a shard client drawing its own masks beside draw_shares."""
from repro.pir.batch import random_subset_masks


def begin_read(rng, num_blocks, local_pages):
    masks_a = random_subset_masks(rng, num_blocks, len(local_pages))
    return masks_a, [mask ^ (1 << page) for mask, page in zip(masks_a, local_pages)]
