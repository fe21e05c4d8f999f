"""PIR substrate: real protocols, the SCP simulator, and access traces."""

from .access_log import AccessTrace, AdversaryEvent, AdversaryView
from .additive_pir import AdditivePirClient, AdditivePirServer
from .batch import (
    indices_mask,
    mask_indices,
    random_subset_masks,
    retrieve_many,
    validate_subset_mask,
)
from .kernels import (
    ENV_PIR_KERNEL,
    KERNEL_NAMES,
    BigIntKernel,
    PackedDatabase,
    SharedPackHandle,
    SharedPackRegistry,
    answer_shares,
    draw_shares,
    kernel_from_pages,
    make_kernel,
    numpy_available,
    resolve_kernel,
    shared_kernel,
    shared_kernel_key,
    shared_pack_registry,
)
from .oram import (
    OramBackedPir,
    OramServer,
    SquareRootOram,
    oblivious_sort_network,
    stream_encrypt,
)
from .paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
    generate_prime,
)
from .protocol import PirProtocol, validate_block_database
from .scp import SecureCoprocessor, UsablePirSimulator
from .sharded import (
    PirShard,
    ShardMap,
    ShardedPageStore,
    ShardedPir,
    ShardedPirSimulator,
)
from .xor_pir import TwoServerXorPir, XorPirServer, xor_bytes

__all__ = [
    "AccessTrace",
    "AdditivePirClient",
    "AdditivePirServer",
    "AdversaryEvent",
    "AdversaryView",
    "BigIntKernel",
    "ENV_PIR_KERNEL",
    "KERNEL_NAMES",
    "PackedDatabase",
    "OramBackedPir",
    "OramServer",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "PirProtocol",
    "PirShard",
    "SecureCoprocessor",
    "SharedPackHandle",
    "SharedPackRegistry",
    "ShardMap",
    "ShardedPageStore",
    "ShardedPir",
    "ShardedPirSimulator",
    "SquareRootOram",
    "TwoServerXorPir",
    "UsablePirSimulator",
    "XorPirServer",
    "answer_shares",
    "draw_shares",
    "generate_keypair",
    "generate_prime",
    "indices_mask",
    "kernel_from_pages",
    "make_kernel",
    "mask_indices",
    "numpy_available",
    "oblivious_sort_network",
    "random_subset_masks",
    "resolve_kernel",
    "retrieve_many",
    "shared_kernel",
    "shared_kernel_key",
    "shared_pack_registry",
    "stream_encrypt",
    "validate_block_database",
    "validate_subset_mask",
    "xor_bytes",
]
