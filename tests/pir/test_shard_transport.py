"""The shard hand-off seam: what a ``PirShard`` gives its transport, and when.

A recording transport stands where the in-process kernel or the TCP client
would: it pins that only a file name and two mask lists cross the seam, that
the shares encode the wanted local pages and nothing else, that a round makes
one hand-over per shard it touches — after every shard's draw and log entry —
and that an in-process shard and a TCP shard hand over the same shares.
"""

import pytest

import repro.pir.kernels as kernels
from repro.pir import ShardedPirSimulator
from repro.serving import RemotePirSimulator, ShardCluster
from repro.storage import Database

NUM_SHARDS = 3
SEED = 5


def make_database(files=(("data", 23), ("index", 7)), page_size=64):
    database = Database(page_size)
    for name, num_pages in files:
        page_file = database.create_file(name)
        for index in range(num_pages):
            page_file.new_page().append(bytes([index, len(name)]) * (page_size // 4))
    return database


class RecordingTransport:
    """Answers through the wrapped transport; appends every call to ``events``
    as ``("answer", shard, arguments, adversary-log length at the call)``."""

    def __init__(self, inner, shard_id, simulator, events):
        self.inner = inner
        self.shard_id = shard_id
        self.simulator = simulator
        self.events = events

    def answer_shares(self, *args):
        self.events.append(
            ("answer", self.shard_id, args, len(self.simulator.queries_seen))
        )
        return self.inner.answer_shares(*args)


def record(simulator):
    """Wrap every shard's transport; returns the shared event list."""
    events = []
    for shard in simulator.shards:
        shard.transport = RecordingTransport(
            shard.transport, shard.shard_id, simulator, events
        )
    return events


@pytest.fixture
def database():
    return make_database()


@pytest.fixture
def simulator(database):
    return ShardedPirSimulator(
        database, num_shards=NUM_SHARDS, xor_kernel="auto", log_queries=True, kernel_seed=SEED
    )


def answers(events):
    return [event for event in events if event[0] == "answer"]


def test_only_a_file_name_and_two_mask_lists_cross_the_seam(database, simulator):
    events = record(simulator)
    reads = [22, 3, 3, 0, 17, 8, 1]
    pages = simulator.retrieve_pages("data", reads)
    assert pages == database.file("data").read_pages_batch(reads)
    wanted = {}  # shard -> local pages, in request order
    for page in reads:
        shard, local = simulator.shard_of_page("data", page)
        wanted.setdefault(shard, []).append(local)
    handed = {shard: args for _, shard, args, _ in answers(events)}
    assert sorted(handed) == sorted(wanted)
    for shard, args in handed.items():
        file_name, masks_a, masks_b = args  # exactly three arguments
        assert file_name == "data"
        assert all(type(mask) is int for mask in masks_a + masks_b)
        # the shares differ in the wanted local page's bit and nowhere else
        assert [a ^ b for a, b in zip(masks_a, masks_b)] == [
            1 << local for local in wanted[shard]
        ]
        shard_blocks = simulator.store.shard_num_pages(shard, "data")
        assert all(mask >> shard_blocks == 0 for mask in masks_a + masks_b)


def test_one_hand_over_per_round_file_and_shard_touched(simulator):
    events = record(simulator)
    rounds = [("data", [0, 3, 6, 9]), ("data", [1, 2]), ("index", [0, 1, 2, 3, 4]), ("data", [5])]
    for file_name, reads in rounds:
        before = len(events)
        simulator.retrieve_pages(file_name, reads)
        touched = {simulator.shard_of_page(file_name, page)[0] for page in reads}
        calls = answers(events[before:])
        assert sorted(shard for _, shard, _, _ in calls) == sorted(touched)
        assert {args[0] for _, _, args, _ in calls} == {file_name}
    assert simulator.shard_load() == [
        sum(1 for name, reads in rounds for page in reads
            if simulator.shard_of_page(name, page)[0] == shard)
        for shard in range(NUM_SHARDS)
    ]


def test_every_draw_and_log_entry_precedes_the_first_hand_over(simulator, monkeypatch):
    events = record(simulator)
    draw = kernels.random_subset_masks

    def recording_draw(rng, num_blocks, count):
        events.append(("draw", num_blocks, count))
        return draw(rng, num_blocks, count)

    monkeypatch.setattr(kernels, "random_subset_masks", recording_draw)
    reads = list(range(12))  # round-robin: every shard is touched
    simulator.retrieve_pages("data", reads)
    kinds = [event[0] for event in events]
    assert kinds == ["draw"] * NUM_SHARDS + ["answer"] * NUM_SHARDS
    # one draw per shard, for that shard's whole sub-batch, first touched first
    assert [event[1:] for event in events[:NUM_SHARDS]] == [
        (simulator.store.shard_num_pages(shard, "data"), 4) for shard in range(NUM_SHARDS)
    ]
    # the round's adversary log was complete before any share left
    assert [event[3] for event in events[NUM_SHARDS:]] == [2 * len(reads)] * NUM_SHARDS
    assert [entry[1] for entry in simulator.queries_seen] == [
        shard for shard in range(NUM_SHARDS) for _ in range(2 * 4)
    ]


def test_in_process_and_tcp_shards_hand_over_identical_shares(database, simulator):
    rounds = [("data", [4, 4, 19, 0, 7]), ("index", [6, 2]), ("data", [11])]
    local_events = record(simulator)
    with ShardCluster(database, num_shards=NUM_SHARDS) as cluster:
        remote = RemotePirSimulator(
            database, cluster.addresses, log_queries=True, kernel_seed=SEED
        )
        try:
            remote_events = record(remote)
            for file_name, reads in rounds:
                assert remote.retrieve_pages(file_name, reads) == simulator.retrieve_pages(
                    file_name, reads
                )
        finally:
            remote.close()
    # hand-overs overlap over TCP: compare them shard by shard
    for shard in range(NUM_SHARDS):
        assert [event for event in remote_events if event[1] == shard] == [
            event for event in local_events if event[1] == shard
        ]
    assert len(remote_events) == len(local_events) > len(rounds)
    assert remote.queries_seen == simulator.queries_seen
    assert remote.shard_load() == simulator.shard_load()


def test_direct_read_shards_draw_nothing(database, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a direct page-store read drew masks")

    monkeypatch.setattr(kernels, "random_subset_masks", no_draw)
    simulator = ShardedPirSimulator(database, num_shards=NUM_SHARDS, log_queries=True)
    reads = [2, 9, 9, 20]
    assert simulator.retrieve_pages("data", reads) == database.file("data").read_pages_batch(reads)
    assert simulator.queries_seen == []
    assert sum(simulator.shard_load()) == len(reads)
