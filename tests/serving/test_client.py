"""The TCP shard client against servers it must not trust or leak on.

A stub server answers blocks of the wrong size (the client must refuse them
with a typed error before record decoding sees a short page), and a layout
check that fails at construction must not leave HELLO'd sockets behind.
"""

import gc
import random
import socket
import threading
import warnings

import pytest

from repro.exceptions import PirError
from repro.pir.sharded import PirShard, ShardedPageStore
from repro.serving import RemotePirSimulator, ShardCluster, ShardConnection, TcpShardTransport
from repro.serving import wire
from repro.storage import Database

PAGE_SIZE = 64


def make_database(num_pages=10):
    database = Database(PAGE_SIZE)
    page_file = database.create_file("data")
    for index in range(num_pages):
        page_file.new_page().append(bytes([index, 7]) * (PAGE_SIZE // 4))
    return database


class StubServer:
    """Answers every ANSWER request with ``block`` once per mask."""

    def __init__(self, block):
        self.block = block
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            try:
                while True:
                    header = ShardConnection._recv_exact(conn, wire.HEADER_SIZE)
                    payload = ShardConnection._recv_exact(
                        conn, wire.decode_frame_length(header)
                    )
                    request = wire.decode_request(payload)
                    reply = wire.encode_answer_ok([self.block] * len(request.masks))
                    conn.sendall(wire.encode_frame(reply))
            except PirError:  # the client closed the connection
                pass

    def close(self):
        self.listener.close()
        self.thread.join(5)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("wrong_size", [PAGE_SIZE - 1, PAGE_SIZE + 8, 0])
def test_answered_blocks_of_the_wrong_size_are_refused(wrong_size):
    store = ShardedPageStore(make_database(), 1, "round-robin")
    server = StubServer(b"\x5a" * wrong_size)
    transport = TcpShardTransport(0, store, server.address, timeout=5.0)
    shard = PirShard(0, store, random.Random(2), transport=transport)
    try:
        with pytest.raises(PirError, match=r"shard server 0 .* 64 bytes for file 'data'"):
            shard.read_many("data", [1, 4])
        assert shard.pages_served == 0
    finally:
        transport.close()
        server.close()


def test_a_failed_layout_check_closes_what_it_opened():
    database = make_database()
    with ShardCluster(database, num_shards=2) as cluster:
        swapped = list(reversed(cluster.addresses))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                RemotePirSimulator(database, swapped)
            except PirError as exc:
                message = str(exc)
            # drop the traceback's frames, then whatever they kept alive
            gc.collect()
    assert "address 0 answered as shard 1" in message
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard-fanout")
    ] == []
