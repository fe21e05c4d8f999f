"""Shard-server behaviour: serving, admission control, flush batching, drain.

Each test boots real servers on loopback (port 0) and talks to them over
actual sockets — the same path production clients use.  Answers are checked
against the local packed kernel, so a passing run is also a bit-correctness
check of the remote path.
"""

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.exceptions import PirError
from repro.pir.batch import mask_indices
from repro.pir.sharded import PirShard, ShardedPageStore
from repro.serving import (
    RemoteServerError,
    ServerBusy,
    ShardCluster,
    ShardConnection,
    ShardServer,
    TcpShardTransport,
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
            # wrong identity for this server
            transport = TcpShardTransport(1, store, server.address)
            info = transport.hello()
            assert info.shard_id == 0 != transport.shard_id
            transport.close()


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
            transport = TcpShardTransport(0, store, server.address)
            shard = PirShard(0, store, random.Random(3), transport=transport)
            local = list(range(store.shard_num_pages(0, "data")))
            pages = shard.read_many("data", local)
            assert pages == store.read_local_batch(0, "data", local)
            assert shard.pages_served == len(local)
            transport.close()

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
            transport = TcpShardTransport(
                0, store, server.address, busy_retries=3, busy_backoff_s=0.0
            )
            shard = PirShard(0, store, random.Random(1), transport=transport)
            with pytest.raises(ServerBusy):
                shard.read_many("data", [0])  # two masks never fit in one pending slot
            assert server.stats()["busy_rejections"] == 4  # initial try + 3 retries
            transport.close()


class StubKernelStore(ShardedPageStore):
    """A one-shard store view that serves whatever kernel the test installs."""

    def __init__(self, database):
        super().__init__(database, 1, "round-robin")
        self.real = super().shard_kernel(0, "data")
        self.stub = self.real

    def shard_kernel(self, shard_id, file_name, kernel=None):
        return self.stub


class GatedKernel:
    """Answers like ``kernel`` once the test opens the gate; records its threads."""

    def __init__(self, kernel, gated=True):
        self.kernel = kernel
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.threads = []
        if not gated:
            self.gate.set()

    def answer_many(self, masks):
        self.threads.append(threading.current_thread().name)
        self.entered.set()
        assert self.gate.wait(10), "the test never opened the kernel gate"
        return self.kernel.answer_many(masks)


class FailingOnceKernel:
    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0

    def answer_many(self, masks):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("kernel exploded")
        return self.kernel.answer_many(masks)


class RawConn:
    """A connection whose send and receive halves the test drives apart.

    The HELLO exchange in the constructor means the server has accepted the
    socket and is reading it, so a later frame sits in *its* buffer.
    """

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.send(wire.encode_hello_request())
        self.recv()

    def send(self, payload):
        self.sock.sendall(wire.encode_frame(payload))

    def ask(self, masks):
        self.send(wire.encode_answer_request("data", masks))

    def recv(self):
        # a PirError ("closed the connection") at EOF, like any client
        header = ShardConnection._recv_exact(self.sock, wire.HEADER_SIZE)
        return ShardConnection._recv_exact(self.sock, wire.decode_frame_length(header))

    def answers(self):
        return wire.decode_answer_response(self.recv())

    def at_eof(self):
        return self.sock.recv(1) == b""

    def close(self):
        self.sock.close()


def shard_threads():
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard-server")
    ]


#: Loopback delivers a sent frame to the peer's buffer within the send call
#: or a softirq later; the gated tests wait this long before opening the gate.
LOOPBACK_SETTLE_S = 0.05


class TestCoalescing:
    """Work-conserving flushes: batches form only behind a busy kernel."""

    def test_requests_behind_a_busy_kernel_leave_as_one_batch(self):
        store = StubKernelStore(make_database(num_pages=16))
        store.stub = gated = GatedKernel(store.real)
        rng = random.Random(11)
        requests = [[rng.getrandbits(16), rng.getrandbits(16)] for _ in range(5)]
        with ShardServer(store, shard_id=0) as server:
            first = RawConn(server.address)
            others = [RawConn(server.address) for _ in requests]
            first.ask([0b1])
            assert gated.entered.wait(10)
            # the kernel call holds the loop: these wait in the socket buffers
            for conn, masks in zip(others, requests):
                conn.ask(masks)
            time.sleep(LOOPBACK_SETTLE_S)
            gated.gate.set()
            assert first.answers() == store.real.answer_many([0b1])
            for conn, masks in zip(others, requests):
                assert conn.answers() == store.real.answer_many(masks)
            for conn in [first] + others:
                conn.close()
            stats = server.stats()
        assert stats["flushes"] == 2
        assert stats["largest_flush"] == sum(len(masks) for masks in requests)
        assert stats["masks_answered"] == 1 + stats["largest_flush"]

    def test_idle_server_flushes_every_request_at_once(self, monkeypatch):
        timers = []
        call_later = asyncio.BaseEventLoop.call_later

        def recording_call_later(loop, delay, callback, *args, **kwargs):
            timers.append((threading.current_thread().name, delay))
            return call_later(loop, delay, callback, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "call_later", recording_call_later)
        store = ShardedPageStore(make_database(num_pages=8), 1, "round-robin")
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            for mask in range(1, 21):
                answers = wire.decode_answer_response(
                    conn.request(wire.encode_answer_request("data", [mask]))
                )
                assert len(answers) == 1
            conn.close()
            stats = server.stats()
            timers_while_serving = list(timers)
        assert stats["flushes"] == 20
        assert stats["largest_flush"] == 1
        # no flush ever waited on a timer: the server scheduled none
        assert timers_while_serving == []

    def test_a_flush_is_one_kernel_call_on_the_loop_thread(self):
        store = StubKernelStore(make_database(num_pages=12))
        store.stub = recorder = GatedKernel(store.real, gated=False)
        masks = list(range(1, 151))
        with ShardServer(store, shard_id=0) as server:
            conn = ShardConnection(server.address)
            answers = wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", masks))
            )
            conn.close()
            assert shard_threads() == ["repro-shard-server-0"]
            stats = server.stats()
        assert answers == store.real.answer_many(masks)
        assert recorder.threads == ["repro-shard-server-0"]
        assert stats["kernel_subcalls"] == stats["flushes"] == 1

    def test_admission_bound_holds_for_requests_read_in_one_tick(self):
        store = StubKernelStore(make_database(num_pages=16))
        store.stub = gated = GatedKernel(store.real)
        with ShardServer(store, shard_id=0, max_pending_masks=8) as server:
            first = RawConn(server.address)
            others = [RawConn(server.address) for _ in range(5)]
            first.ask([0b1])
            assert gated.entered.wait(10)
            for conn in others:  # 10 masks against a bound of 8
                conn.ask([0b10, 0b100])
            time.sleep(LOOPBACK_SETTLE_S)
            gated.gate.set()
            assert first.answers() == store.real.answer_many([0b1])
            busy = 0
            for conn in others:
                try:
                    assert conn.answers() == store.real.answer_many([0b10, 0b100])
                except ServerBusy:
                    busy += 1
            for conn in [first] + others:
                conn.close()
            stats = server.stats()
        assert busy == stats["busy_rejections"] == 1
        assert stats["masks_answered"] == 1 + 8


class TestKernelFailure:
    def test_any_kernel_exception_answers_error_and_the_server_carries_on(self):
        store = StubKernelStore(make_database(num_pages=8))
        store.stub = FailingOnceKernel(store.real)
        server = ShardServer(store, shard_id=0)
        conn = ShardConnection(server.start(), timeout=5.0)
        with pytest.raises(RemoteServerError, match="ValueError: kernel exploded"):
            wire.decode_answer_response(
                conn.request(wire.encode_answer_request("data", [0b11]))
            )
        answers = wire.decode_answer_response(
            conn.request(wire.encode_answer_request("data", [0b101]))
        )
        conn.close()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0  # nothing left undrained
        assert answers == store.real.answer_many([0b101])
        assert server.stats()["flushes"] == 1
        assert server.stats()["requests_served"] == 2


class TestDrain:
    """``stop()`` mid-call: the pump is the drain, each batch has one owner."""

    def test_stop_mid_call_answers_every_admitted_request_exactly_once(self):
        store = StubKernelStore(make_database(num_pages=16))
        store.stub = gated = GatedKernel(store.real)
        first_masks = [random.Random(13).getrandbits(16)]
        server = ShardServer(store, shard_id=0)
        server.start()
        first = RawConn(server.address)
        late = RawConn(server.address)
        first.ask(first_masks)
        assert gated.entered.wait(10)  # the call holds the loop itself
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        stopper.join(0.2)
        assert stopper.is_alive()  # stop() waits for the call in flight
        late.ask([0b1])
        gated.gate.set()
        stopper.join(5.0)
        assert not stopper.is_alive()
        assert shard_threads() == []
        assert first.answers() == store.real.answer_many(first_masks)
        # read only once the loop was back, after the drain began: refused
        # (the ERROR, or the close if the drain had nothing left to wait for)
        with pytest.raises(PirError, match="draining|closed the connection"):
            late.answers()
        for conn in [first, late]:
            assert conn.at_eof()  # exactly one reply each, then the close
            conn.close()
        stats = server.stats()
        assert stats["flushes"] == 1
        assert stats["masks_answered"] == len(first_masks)


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
