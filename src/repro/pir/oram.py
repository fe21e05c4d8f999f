"""Square-root ORAM: a runnable model of the paper's hardware-aided PIR core.

The PIR protocol the paper builds on (Williams & Sion, "Usable PIR" [36]) is
an oblivious-RAM construction executed by the secure co-processor against the
LBS's disk.  The cost simulator in :mod:`repro.pir.scp` reproduces its
*performance*; this module reproduces its *mechanism* at small scale, so that
tests and examples can demonstrate — not merely assume — that the physical
access pattern seen by the untrusted server is independent of the logical
requests.

The construction implemented here is the classic square-root ORAM of
Goldreich & Ostrovsky, the ancestor of [36]:

* the server stores ``N`` real blocks plus ``sqrt(N)`` dummy blocks, permuted
  by a secret permutation known only to the trusted side (the SCP), and a
  *shelter* of ``sqrt(N)`` slots;
* every logical access scans the entire shelter and then probes exactly one
  slot of the permuted area — the slot of the wanted block if it was not
  sheltered, or the next unused dummy if it was;
* after ``sqrt(N)`` accesses the epoch ends and the trusted side reshuffles
  the permuted area under a fresh permutation using an *oblivious* sorting
  network (Batcher odd-even merge sort), whose compare-exchange pattern is a
  fixed function of the array length and therefore reveals nothing.

All stored blocks are re-encrypted with a toy stream cipher on every write so
that the server cannot correlate contents across epochs.  The
:class:`OramServer` records every physical slot it is asked to touch, which is
exactly the adversary's evidence; the obliviousness tests assert the pattern
is invariant across logical workloads.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import PirError

#: Marker stored (encrypted) in the first byte of a slot payload.
_REAL = 1
_DUMMY = 0

#: Number of bytes used to encode the logical index inside a slot payload.
_INDEX_BYTES = 8


def _validate_block_database(blocks: Sequence[bytes]) -> List[bytes]:
    """Check that all blocks have equal size and return them as a list."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("an ORAM needs at least one block")
    size = len(blocks[0])
    for position, block in enumerate(blocks):
        if len(block) != size:
            raise ValueError(
                f"block {position} has {len(block)} bytes, expected {size} "
                "(ORAM slots hold equal-sized blocks)"
            )
    return blocks


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """A SHA-256-based keystream; a stand-in for the SCP's AES engine."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def stream_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt (or decrypt — the cipher is an involution) with the toy stream cipher."""
    stream = _keystream(key, nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


class OramServer:
    """The untrusted storage: an array of fixed-size encrypted slots.

    The server performs reads and writes exactly as asked and keeps a log of
    every physical slot it touches.  That log is the complete adversary view
    of the ORAM — it never sees plaintext or the permutation.
    """

    def __init__(self, num_slots: int, slot_size: int) -> None:
        if num_slots <= 0:
            raise PirError("an ORAM server needs at least one slot")
        if slot_size <= 0:
            raise PirError("slot size must be positive")
        self.num_slots = num_slots
        self.slot_size = slot_size
        self._slots: List[bytes] = [bytes(slot_size) for _ in range(num_slots)]
        #: Sequence of ("read" | "write", slot) events — the adversary's evidence.
        self.access_log: List[Tuple[str, int]] = []

    def _check_slot(self, slot: int) -> None:
        if slot < 0 or slot >= self.num_slots:
            raise PirError(f"slot {slot} out of range (server has {self.num_slots} slots)")

    def read(self, slot: int) -> bytes:
        self._check_slot(slot)
        self.access_log.append(("read", slot))
        return self._slots[slot]

    def write(self, slot: int, data: bytes) -> None:
        self._check_slot(slot)
        if len(data) != self.slot_size:
            raise PirError(
                f"slot write of {len(data)} bytes does not match slot size {self.slot_size}"
            )
        self.access_log.append(("write", slot))
        self._slots[slot] = bytes(data)

    def slots_touched(self) -> List[int]:
        """Physical slots in the order they were accessed (duplicates preserved)."""
        return [slot for _, slot in self.access_log]

    def clear_log(self) -> None:
        self.access_log.clear()


def oblivious_sort_network(length: int) -> List[Tuple[int, int]]:
    """The compare-exchange schedule of Batcher's odd-even merge sort.

    The schedule depends only on ``length`` — never on the data — which is what
    makes the reshuffle oblivious.  The list of ``(i, j)`` pairs (with
    ``i < j``) is returned in execution order.
    """
    if length < 0:
        raise PirError("cannot build a sorting network of negative length")
    pairs: List[Tuple[int, int]] = []
    padded = 1
    while padded < max(length, 1):
        padded *= 2

    def add_pair(i: int, j: int) -> None:
        if i < length and j < length:
            pairs.append((i, j))

    # Iterative Batcher odd-even merge sort over the padded power-of-two size.
    p = 1
    while p < padded:
        k = p
        while k >= 1:
            for j in range(k % p, padded - k, 2 * k):
                for i in range(0, k):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        add_pair(i + j, i + j + k)
            k //= 2
        p *= 2
    return pairs


class SquareRootOram:
    """Goldreich–Ostrovsky square-root ORAM over ``N`` equal-sized blocks.

    The trusted side (the SCP in the paper's architecture) holds the
    encryption key, the current permutation and a position map; the untrusted
    side is an :class:`OramServer`.  Logical ``read``/``write`` calls hide both
    which block is touched and whether the operation is a read or a write.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        rng: Optional[secrets.SystemRandom] = None,
    ) -> None:
        blocks = _validate_block_database(blocks)
        self._num_blocks = len(blocks)
        self._block_size = len(blocks[0])
        self._rng = rng if rng is not None else secrets.SystemRandom()
        self._key = secrets.token_bytes(16)
        self._epoch = 0

        self._shelter_capacity = max(1, math.isqrt(self._num_blocks))
        self._num_dummies = self._shelter_capacity
        self._main_slots = self._num_blocks + self._num_dummies
        # A slot stores nonce (20 bytes) + encrypted [kind | index | block].
        slot_size = 20 + 1 + _INDEX_BYTES + self._block_size
        self.server = OramServer(self._main_slots + self._shelter_capacity, slot_size)

        # Trusted-side state.
        self._position: Dict[int, int] = {}
        self._dummy_slots: List[int] = []
        self._shelter: Dict[int, bytes] = {}          # logical index -> plaintext block
        self._shelter_writes = 0
        self._accesses_this_epoch = 0
        self._dummies_used = 0

        self._plaintext = [bytes(block) for block in blocks]
        self._install_permutation(initial=True)

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def epoch(self) -> int:
        """Number of reshuffles performed so far."""
        return self._epoch

    @property
    def accesses_per_epoch(self) -> int:
        """Logical accesses served between two reshuffles (``sqrt(N)``)."""
        return self._shelter_capacity

    def read(self, index: int) -> bytes:
        """Obliviously read the block at logical ``index``."""
        return self._access(index, new_value=None)

    def write(self, index: int, value: bytes) -> None:
        """Obliviously overwrite the block at logical ``index``."""
        if len(value) != self._block_size:
            raise PirError(
                f"block write of {len(value)} bytes does not match block size {self._block_size}"
            )
        self._access(index, new_value=bytes(value))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _slot_payload(self, kind: int, index: int, data: bytes) -> bytes:
        return bytes([kind]) + index.to_bytes(_INDEX_BYTES, "big") + data

    def _encrypt_slot(self, slot: int, payload: bytes) -> bytes:
        nonce = self._epoch.to_bytes(8, "big") + slot.to_bytes(8, "big") + secrets.token_bytes(4)
        body = stream_encrypt(self._key, nonce, payload)
        return nonce + body

    def _decrypt_slot(self, ciphertext: bytes) -> bytes:
        nonce, body = ciphertext[:20], ciphertext[20:]
        return stream_encrypt(self._key, nonce, body)

    def _install_permutation(self, initial: bool = False) -> None:
        """(Re)permute the main area under a fresh secret permutation.

        On the very first installation the blocks are simply written out in
        permuted order.  On subsequent reshuffles the same result is achieved
        with an oblivious sorting network so that the server learns nothing
        from the reorganisation pattern (the schedule is data-independent).
        """
        order = list(range(self._main_slots))
        self._rng.shuffle(order)
        # order[k] is the item placed at physical slot k; invert it for the map.
        self._position = {}
        self._dummy_slots = []
        payloads: List[bytes] = [b""] * self._main_slots
        for slot, item in enumerate(order):
            if item < self._num_blocks:
                self._position[item] = slot
                payloads[slot] = self._slot_payload(_REAL, item, self._plaintext[item])
            else:
                self._dummy_slots.append(slot)
                payloads[slot] = self._slot_payload(_DUMMY, item, bytes(self._block_size))

        if initial:
            for slot, payload in enumerate(payloads):
                self.server.write(slot, self._slot_size_pad(self._encrypt_slot(slot, payload)))
        else:
            self._oblivious_rewrite(payloads)

        # Reset the shelter area to encrypted empty slots.
        for offset in range(self._shelter_capacity):
            slot = self._main_slots + offset
            empty = self._slot_payload(_DUMMY, 0, bytes(self._block_size))
            self.server.write(slot, self._slot_size_pad(self._encrypt_slot(slot, empty)))

        self._shelter = {}
        self._shelter_writes = 0
        self._accesses_this_epoch = 0
        self._dummies_used = 0

    def _slot_size_pad(self, data: bytes) -> bytes:
        if len(data) > self.server.slot_size:
            raise PirError("internal error: encrypted slot exceeds the slot size")
        return data + bytes(self.server.slot_size - len(data))

    def _oblivious_rewrite(self, payloads: List[bytes]) -> None:
        """Write the freshly permuted payloads back using a data-independent pattern.

        The square-root ORAM reshuffle is an oblivious sort of the old slots by
        their new (secretly tagged) positions.  The server-visible pattern of a
        Batcher network depends only on the array length, so we execute the
        network's compare-exchanges as read-read-write-write slot operations
        and then overwrite every slot with its new payload in sequential order
        — both phases are fixed schedules.
        """
        for i, j in oblivious_sort_network(self._main_slots):
            first = self.server.read(i)
            second = self.server.read(j)
            # The trusted side re-encrypts both slots; contents are swapped or
            # not depending on secret tags, which the server cannot see.
            self.server.write(i, self._slot_size_pad(self._encrypt_slot(i, self._decrypt_slot(first))))
            self.server.write(j, self._slot_size_pad(self._encrypt_slot(j, self._decrypt_slot(second))))
        for slot, payload in enumerate(payloads):
            self.server.write(slot, self._slot_size_pad(self._encrypt_slot(slot, payload)))

    def _scan_shelter(self) -> None:
        """Read every shelter slot (the fixed-cost scan of each access)."""
        for offset in range(self._shelter_capacity):
            self.server.read(self._main_slots + offset)

    def _append_to_shelter(self, index: int, value: bytes) -> None:
        slot = self._main_slots + self._shelter_writes
        payload = self._slot_payload(_REAL, index, value)
        self.server.write(slot, self._slot_size_pad(self._encrypt_slot(slot, payload)))
        self._shelter[index] = value
        self._shelter_writes += 1

    def _access(self, index: int, new_value: Optional[bytes]) -> bytes:
        if index < 0 or index >= self._num_blocks:
            raise PirError(f"block index {index} out of range")

        self._scan_shelter()

        in_shelter = index in self._shelter
        if in_shelter:
            # Probe the next unused dummy so the main-area access still happens
            # and every epoch touches distinct, random-looking slots.
            dummy_slot = self._dummy_slots[self._dummies_used]
            self.server.read(dummy_slot)
            self._dummies_used += 1
            value = self._shelter[index]
        else:
            slot = self._position[index]
            ciphertext = self.server.read(slot)
            payload = self._decrypt_slot(ciphertext)
            value = payload[1 + _INDEX_BYTES: 1 + _INDEX_BYTES + self._block_size]

        if new_value is not None:
            value = new_value
            self._plaintext[index] = new_value
        elif not in_shelter:
            self._plaintext[index] = value

        self._append_to_shelter(index, value)
        self._accesses_this_epoch += 1

        if self._accesses_this_epoch >= self.accesses_per_epoch:
            self._epoch += 1
            self._install_permutation()
        return value

