"""PIR substrate: the two-server XOR read path, the SCP simulators, ORAM and access traces."""

from .access_log import AccessTrace, AdversaryEvent, AdversaryView
from .batch import mask_indices, random_subset_masks, validate_subset_mask
from .kernels import (
    ENV_PIR_KERNEL,
    KERNEL_NAMES,
    BigIntKernel,
    PackedDatabase,
    answer_shares,
    draw_shares,
    kernel_from_pages,
    make_kernel,
    numpy_available,
    resolve_kernel,
    shared_kernel,
    xor_bytes,
)
from .oram import (
    OramServer,
    SquareRootOram,
    oblivious_sort_network,
    stream_encrypt,
)
from .scp import SecureCoprocessor, UsablePirSimulator
from .sharded import (
    PirShard,
    ShardMap,
    ShardedPageStore,
    ShardedPirSimulator,
)

__all__ = [
    "AccessTrace",
    "AdversaryEvent",
    "AdversaryView",
    "BigIntKernel",
    "ENV_PIR_KERNEL",
    "KERNEL_NAMES",
    "PackedDatabase",
    "OramServer",
    "PirShard",
    "SecureCoprocessor",
    "ShardMap",
    "ShardedPageStore",
    "ShardedPirSimulator",
    "SquareRootOram",
    "UsablePirSimulator",
    "answer_shares",
    "draw_shares",
    "kernel_from_pages",
    "make_kernel",
    "mask_indices",
    "numpy_available",
    "oblivious_sort_network",
    "random_subset_masks",
    "resolve_kernel",
    "shared_kernel",
    "stream_encrypt",
    "validate_subset_mask",
    "xor_bytes",
]
