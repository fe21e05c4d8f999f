"""Clean fixture: the allowlisted guarded module-level numpy seam, and the
one function that may draw subset masks for the engine's read paths."""

from .batch import random_subset_masks

try:
    import numpy as _np
except ImportError:
    _np = None


def have_numpy():
    return _np is not None


def draw_shares(rng, num_blocks, indices):
    masks_a = random_subset_masks(rng, num_blocks, len(indices))
    return masks_a, [mask ^ (1 << index) for mask, index in zip(masks_a, indices)]
