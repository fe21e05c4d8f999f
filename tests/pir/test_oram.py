"""Tests for the square-root ORAM."""

import secrets

import pytest

from repro.exceptions import PirError
from repro.pir import (
    OramServer,
    SquareRootOram,
    oblivious_sort_network,
    stream_encrypt,
)


def make_blocks(count, size=16):
    return [bytes([i % 256]) * size for i in range(count)]


class TestStreamCipher:
    def test_roundtrip(self):
        key = b"k" * 16
        nonce = b"n" * 20
        plaintext = b"the quick brown fox"
        ciphertext = stream_encrypt(key, nonce, plaintext)
        assert ciphertext != plaintext
        assert stream_encrypt(key, nonce, ciphertext) == plaintext

    def test_different_nonces_give_different_ciphertexts(self):
        key = b"k" * 16
        plaintext = b"same plaintext bytes"
        first = stream_encrypt(key, b"a" * 20, plaintext)
        second = stream_encrypt(key, b"b" * 20, plaintext)
        assert first != second

    def test_empty_plaintext(self):
        assert stream_encrypt(b"k", b"n", b"") == b""


class TestObliviousSortNetwork:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 8, 13, 16, 31, 64])
    def test_network_sorts_reversed_input(self, length):
        data = list(range(length))[::-1]
        for i, j in oblivious_sort_network(length):
            if data[i] > data[j]:
                data[i], data[j] = data[j], data[i]
        assert data == sorted(data)

    @pytest.mark.parametrize("length", [6, 10, 17, 33])
    def test_network_sorts_random_permutations(self, length):
        rng = secrets.SystemRandom()
        for _ in range(5):
            data = list(range(length))
            rng.shuffle(data)
            for i, j in oblivious_sort_network(length):
                if data[i] > data[j]:
                    data[i], data[j] = data[j], data[i]
            assert data == sorted(data)

    def test_schedule_depends_only_on_length(self):
        assert oblivious_sort_network(12) == oblivious_sort_network(12)

    def test_pairs_are_ordered_and_in_range(self):
        for i, j in oblivious_sort_network(20):
            assert 0 <= i < j < 20

    def test_negative_length_rejected(self):
        with pytest.raises(PirError):
            oblivious_sort_network(-1)


class TestOramServer:
    def test_read_write_roundtrip(self):
        server = OramServer(4, 8)
        server.write(2, b"12345678")
        assert server.read(2) == b"12345678"

    def test_slots_start_zeroed(self):
        server = OramServer(3, 4)
        assert server.read(0) == bytes(4)

    def test_access_log_records_operations(self):
        server = OramServer(4, 4)
        server.write(1, b"aaaa")
        server.read(3)
        assert server.access_log == [("write", 1), ("read", 3)]
        assert server.slots_touched() == [1, 3]

    def test_clear_log(self):
        server = OramServer(2, 4)
        server.read(0)
        server.clear_log()
        assert server.access_log == []

    def test_out_of_range_slot_rejected(self):
        server = OramServer(2, 4)
        with pytest.raises(PirError):
            server.read(2)
        with pytest.raises(PirError):
            server.write(-1, b"aaaa")

    def test_wrong_size_write_rejected(self):
        server = OramServer(2, 4)
        with pytest.raises(PirError):
            server.write(0, b"too long for slot")

    def test_invalid_construction(self):
        with pytest.raises(PirError):
            OramServer(0, 4)
        with pytest.raises(PirError):
            OramServer(4, 0)


class TestSquareRootOramCorrectness:
    def test_reads_return_original_blocks(self):
        blocks = make_blocks(9)
        oram = SquareRootOram(blocks)
        for index in range(9):
            assert oram.read(index) == blocks[index]

    def test_repeated_reads_of_same_block(self):
        blocks = make_blocks(4)
        oram = SquareRootOram(blocks)
        for _ in range(10):
            assert oram.read(2) == blocks[2]

    def test_reads_across_many_epochs(self):
        blocks = make_blocks(6)
        oram = SquareRootOram(blocks)
        for round_number in range(5):
            for index in range(6):
                assert oram.read(index) == blocks[index]
        assert oram.epoch >= 2

    def test_write_then_read(self):
        blocks = make_blocks(8)
        oram = SquareRootOram(blocks)
        oram.write(3, b"X" * 16)
        assert oram.read(3) == b"X" * 16

    def test_write_survives_reshuffle(self):
        blocks = make_blocks(4, size=8)
        oram = SquareRootOram(blocks)
        oram.write(1, b"NEWVALUE")
        # Force several epochs' worth of accesses.
        for _ in range(12):
            oram.read(0)
        assert oram.read(1) == b"NEWVALUE"

    def test_single_block_database(self):
        oram = SquareRootOram([b"only-block-here!"])
        for _ in range(4):
            assert oram.read(0) == b"only-block-here!"

    def test_out_of_range_index_rejected(self):
        oram = SquareRootOram(make_blocks(3))
        with pytest.raises(PirError):
            oram.read(3)
        with pytest.raises(PirError):
            oram.read(-1)

    def test_wrong_size_write_rejected(self):
        oram = SquareRootOram(make_blocks(3))
        with pytest.raises(PirError):
            oram.write(0, b"short")

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ValueError):
            SquareRootOram([b"aa", b"bbb"])

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            SquareRootOram([])


class TestSquareRootOramObliviousness:
    def _probe_pattern(self, oram, logical_sequence):
        """Return the list of (kind,) operation names per logical access."""
        oram.server.clear_log()
        kinds = []
        for index in logical_sequence:
            before = len(oram.server.access_log)
            oram.read(index)
            kinds.append([kind for kind, _ in oram.server.access_log[before:]])
        return kinds

    def test_operation_kind_sequence_is_workload_independent(self):
        blocks = make_blocks(9)
        seq_a = [0, 1, 2, 3, 4, 5, 6, 7, 8]
        seq_b = [4, 4, 4, 4, 4, 4, 4, 4, 4]
        kinds_a = self._probe_pattern(SquareRootOram(blocks), seq_a)
        kinds_b = self._probe_pattern(SquareRootOram(blocks), seq_b)
        assert kinds_a == kinds_b

    def test_each_access_has_constant_server_cost_between_reshuffles(self):
        blocks = make_blocks(16)
        oram = SquareRootOram(blocks)
        oram.server.clear_log()
        costs = []
        for index in [0, 1, 0, 2]:  # fewer than sqrt(16)=4 accesses triggers no reshuffle
            before = len(oram.server.access_log)
            oram.read(index)
            costs.append(len(oram.server.access_log) - before)
        # Shelter scan (4 reads) + 1 main probe + 1 shelter write, except the
        # 4th access which additionally reshuffles.
        assert costs[0] == costs[1] == costs[2] == 6

    def test_main_area_slots_probed_at_most_once_per_epoch(self):
        blocks = make_blocks(16)
        oram = SquareRootOram(blocks)
        main_slots = 16 + 4
        oram.server.clear_log()
        for index in [3, 3, 7]:  # stay within one epoch (no reshuffle reads)
            oram.read(index)
        probed = [
            slot
            for kind, slot in oram.server.access_log
            if kind == "read" and slot < main_slots
        ]
        assert len(probed) == len(set(probed))

    def test_server_never_sees_plaintext(self):
        blocks = [b"SECRETBLOCKDATA%d" % i + bytes(16 - len("SECRETBLOCKDATA0")) for i in range(4)]
        blocks = [block[:16] for block in blocks]
        oram = SquareRootOram(blocks)
        oram.read(2)
        stored = b"".join(oram.server._slots)
        for block in blocks:
            assert block not in stored

    def test_reshuffle_changes_stored_ciphertexts(self):
        blocks = make_blocks(4)
        oram = SquareRootOram(blocks)
        snapshot = list(oram.server._slots)
        for _ in range(4):  # one full epoch
            oram.read(0)
        assert oram.server._slots != snapshot
