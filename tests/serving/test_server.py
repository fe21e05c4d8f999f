"""Shard-server behaviour: serving, admission control, coalescing, drain.

Each test boots real servers on loopback (port 0) and talks to them over
actual sockets — the same path production clients use.  Answers are checked
against the local packed kernel, so a passing run is also a bit-correctness
check of the remote path.
"""

import random
import socket
import threading

import pytest

from repro.exceptions import PirError
from repro.pir.batch import mask_indices
from repro.pir.sharded import ShardedPageStore
from repro.serving import (
    RemotePirShard,
    RemoteServerError,
    ServerBusy,
    ShardCluster,
    ShardConnection,
    ShardServer,
)
from repro.serving import wire
from repro.storage import Database


def make_database(num_pages=10, page_size=64, files=("data",)):
    database = Database(page_size)
    for name in files:
        page_file = database.create_file(name)
        for index in range(num_pages):
            payload = bytes([index & 0xFF, len(name)]) * (page_size // 4)
            page_file.new_page().append(payload)
    return database


class TestHello:
    def test_hello_describes_the_shard_layout(self):
        database = make_database(num_pages=9, files=("data", "index"))
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=1) as server:
            conn = ShardConnection(server.address)
            info = wire.decode_hello_response(conn.request(wire.encode_hello_request()))
            conn.close()
        assert info.shard_id == 1
        assert info.num_shards == 2
        assert info.strategy == "round-robin"
        assert {f.name for f in info.files} == {"data", "index"}
        for file_info in info.files:
            assert file_info.num_pages == store.shard_num_pages(1, file_info.name)
            assert file_info.page_size == 64

    def test_layout_check_rejects_mismatched_cluster(self):
        database = make_database(num_pages=9)
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            shard = RemotePirShard(
                shard_id=1,  # wrong identity for this server
                store=store,
                address=server.address,
                rng=random.Random(0),
            )
            info = shard.hello()
            assert info.shard_id == 0 != shard.shard_id
            shard.close()


class TestAnswering:
    def test_answers_match_the_local_kernel(self):
        database = make_database(num_pages=12)
        store = ShardedPageStore(database, 3, "round-robin")
        with ShardServer(store, shard_id=2) as server:
            kernel = store.shard_kernel(2, "data", server.kernel)
            rng = random.Random(5)
            masks = [rng.getrandbits(kernel.num_blocks) for _ in range(6)]
            conn = ShardConnection(server.address)
            payload = conn.request(
                wire.encode_frame(b"")[:0]
                + wire.encode_answer_request("data", masks)
            )
            answers = wire.decode_answer_response(payload)
            conn.close()
            assert answers == kernel.answer_many(masks)
            assert server.stats()["masks_answered"] == len(masks)

    def test_remote_shard_reads_are_bit_identical(self):
        database = make_database(num_pages=11)
        store = ShardedPageStore(database, 2, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            shard = RemotePirShard(0, store, server.address, rng=random.Random(3))
            local = list(range(store.shard_num_pages(0, "data")))
            pages = shard.read_many("data", local)
            assert pages == store.read_local_batch(0, "data", local)
            assert shard.pages_served == len(local)
            shard.close()

    def test_unknown_file_is_an_error_and_server_survives(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(RemoteServerError, match="no pages"):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("missing", [1]))
                )
            # same connection still answers afterwards
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [0b11]))
            )
            assert len(answers) == 1
            conn.close()

    def test_mask_beyond_shard_blocks_is_an_error(self):
        database = make_database(num_pages=4)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(RemoteServerError, match="beyond"):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [1 << 64]))
                )
            conn.close()

    def test_malformed_payload_gets_an_error_response(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(PirError):
                wire.decode_answer_response(conn.request(b"\xff\x00garbage"))
            conn.close()


class TestAdmissionControl:
    def test_overfull_request_answers_busy(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, max_pending_masks=1) as server:
            conn = ShardConnection(server.address)
            with pytest.raises(ServerBusy):
                wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [1, 2]))
                )
            assert server.stats()["busy_rejections"] == 1
            # a request that fits is still served
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [1]))
            )
            assert len(answers) == 1
            conn.close()

    def test_client_retries_busy_then_gives_up(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, max_pending_masks=1) as server:
            shard = RemotePirShard(
                0, store, server.address, rng=random.Random(1),
                busy_retries=3, busy_backoff_s=0.0,
            )
            with pytest.raises(ServerBusy):
                shard.read_many("data", [0])  # two masks never fit in one pending slot
            assert server.stats()["busy_rejections"] == 4  # initial try + 3 retries
            shard.close()


class TestCoalescing:
    def test_concurrent_requests_flush_as_one_batch(self):
        database = make_database(num_pages=16)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(
            store, shard_id=0, coalesce_window_s=0.25, max_batch_masks=64
        ) as server:
            results = []
            barrier = threading.Barrier(2)

            def one_request():
                conn = ShardConnection(server.address)
                barrier.wait()
                payload = conn.request(wire.encode_answer_request("data", [0b1, 0b10]))
                results.append(wire.decode_answer_response(payload))
                conn.close()

            threads = [threading.Thread(target=one_request) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        assert len(results) == 2 and all(len(r) == 2 for r in results)
        assert stats["masks_answered"] == 4
        # both requests landed inside one coalescing window
        assert stats["flushes"] == 1
        assert stats["largest_flush"] == 4

    def test_full_batch_flushes_without_waiting_for_the_window(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(
            store, shard_id=0, coalesce_window_s=30.0, max_batch_masks=2
        ) as server:
            conn = ShardConnection(server.address)
            # 2 masks == max_batch_masks: flushes immediately despite the
            # pathological 30s window
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [1, 2]))
            )
            assert len(answers) == 2
            conn.close()


class TestQueryLogging:
    def test_queries_seen_stays_empty_unless_enabled(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            conn.request(wire.encode_answer_request("data", [0b101]))
            conn.close()
            assert server.queries_seen == []

    def test_queries_seen_records_subsets_when_enabled(self):
        database = make_database(num_pages=8)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, log_queries=True) as server:
            conn = ShardConnection(server.address)
            conn.request(wire.encode_answer_request("data", [0b101]))
            conn.close()
            assert server.queries_seen == [
                ("data", 0, frozenset(mask_indices(0b101)))
            ]


class TestLifecycle:
    def test_stop_refuses_new_connections(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        server = ShardServer(store, shard_id=0)
        address = server.start()
        server.stop()
        with pytest.raises((ConnectionError, OSError, PirError)):
            with socket.create_connection(address, timeout=2) as sock:
                sock.sendall(wire.encode_frame(wire.encode_hello_request()))
                if not sock.recv(1):
                    raise ConnectionError("server closed the listener")

    def test_cluster_boots_one_server_per_shard(self):
        database = make_database(num_pages=12)
        with ShardCluster(database, num_shards=3) as cluster:
            assert len(cluster.addresses) == 3
            assert len({address[1] for address in cluster.addresses}) == 3
            stats = cluster.stats()
            assert len(stats) == 3
            # every server answers HELLO with its own shard id
            for shard_id, address in enumerate(cluster.addresses):
                conn = ShardConnection(address)
                info = wire.decode_hello_response(
                    conn.request(wire.encode_hello_request())
                )
                conn.close()
                assert info.shard_id == shard_id

    def test_cluster_start_is_idempotent(self):
        database = make_database()
        cluster = ShardCluster(database, num_shards=2)
        try:
            cluster.start()
            first = list(cluster.addresses)
            cluster.start()
            assert list(cluster.addresses) == first
        finally:
            cluster.stop()


class TestAnswerThreads:
    """Multicore answering: kernel sub-calls split flushes, never answers."""

    def test_invalid_thread_count_rejected(self):
        database = make_database()
        store = ShardedPageStore(database, 1, "round-robin")
        with pytest.raises(PirError, match="answer_threads"):
            ShardServer(store, shard_id=0, answer_threads=0)

    def test_large_flush_splits_into_kernel_subcalls(self):
        from repro.serving.server import MIN_SPLIT_MASKS

        database = make_database(num_pages=12)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, answer_threads=3) as server:
            kernel = store.shard_kernel(0, "data", server.kernel)
            rng = random.Random(7)
            masks = [
                rng.getrandbits(kernel.num_blocks) for _ in range(2 * MIN_SPLIT_MASKS)
            ]
            conn = ShardConnection(server.address)
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", masks))
            )
            conn.close()
            stats = server.stats()
        # answer order is the request order even though chunks ran in parallel
        assert answers == kernel.answer_many(masks)
        assert stats["flushes"] == 1
        assert stats["kernel_subcalls"] == 2  # 128 masks / 64-mask split floor

    def test_small_flush_is_one_subcall(self):
        database = make_database(num_pages=12)
        store = ShardedPageStore(database, 1, "round-robin")
        with ShardServer(store, shard_id=0, answer_threads=4) as server:
            conn = ShardConnection(server.address)
            wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [0b101, 0b11]))
            )
            conn.close()
            stats = server.stats()
        assert stats["flushes"] == 1
        assert stats["kernel_subcalls"] == 1

    def test_answers_bit_identical_across_thread_counts(self):
        database = make_database(num_pages=14)
        rng = random.Random(9)
        masks = [rng.getrandbits(14) for _ in range(150)]
        outcomes = {}
        for answer_threads in (1, 4):
            store = ShardedPageStore(database, 1, "round-robin")
            with ShardServer(
                store, shard_id=0, answer_threads=answer_threads
            ) as server:
                conn = ShardConnection(server.address)
                outcomes[answer_threads] = wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", masks))
                )
                conn.close()
        assert outcomes[1] == outcomes[4]

    def test_cluster_passes_answer_threads_through(self):
        database = make_database(num_pages=9)
        with ShardCluster(database, num_shards=2, answer_threads=2) as cluster:
            assert all(server.answer_threads == 2 for server in cluster.servers)
            for stats in cluster.stats():
                assert stats["kernel_subcalls"] == 0
