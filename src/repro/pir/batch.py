"""Subset-mask helpers shared by the XOR-PIR client and server kernels.

Subsets of block indices are represented as integer bitmasks: bit ``i`` set
means block ``i`` is in the subset.  On top of being compact, this lets the
servers accumulate answers with native big-integer XOR instead of
byte-at-a-time loops.
"""

from __future__ import annotations

from typing import List, Optional

from ..exceptions import PirError


def validate_subset_mask(mask: int, num_blocks: Optional[int] = None) -> int:
    """Validate a subset bitmask against the database size and return it.

    Shared by the big-int and the packed numpy server kernels so both raise
    the identical :class:`PirError` for malformed masks: a corrupted mask
    naming a block ``>= num_blocks`` would otherwise index past the database
    or silently misdecode the answer.
    """
    if mask < 0:
        raise PirError("subset masks must be non-negative")
    if num_blocks is not None and mask >> num_blocks:
        raise PirError(
            f"subset mask names block index {mask.bit_length() - 1}, but the "
            f"database has only {num_blocks} blocks"
        )
    return mask


def mask_indices(mask: int, num_blocks: Optional[int] = None) -> List[int]:
    """The sorted block indices named by a subset bitmask.

    When ``num_blocks`` is given, the mask is validated against the database
    size via :func:`validate_subset_mask` and surfaces :class:`PirError` for
    malformed masks.
    """
    validate_subset_mask(mask, num_blocks)
    indices: List[int] = []
    remaining = mask
    while remaining:
        lowest = remaining & -remaining
        indices.append(lowest.bit_length() - 1)
        remaining ^= lowest
    return indices


def random_subset_masks(rng, num_blocks: int, count: int) -> List[int]:
    """``count`` independent uniform subset masks over ``num_blocks`` blocks.

    All ``num_blocks * count`` random bits are drawn with a single
    ``rng.getrandbits`` call, which is what makes batched retrieval cheaper
    than per-query subset generation.  Each slice of ``num_blocks`` bits is an
    independent uniform mask, so per-query privacy is unchanged.
    """
    if num_blocks <= 0:
        raise PirError("a PIR database needs at least one block")
    if count < 0:
        raise PirError("cannot draw a negative number of subsets")
    if count == 0:
        return []
    bits = rng.getrandbits(num_blocks * count)
    full = (1 << num_blocks) - 1
    return [(bits >> (position * num_blocks)) & full for position in range(count)]

