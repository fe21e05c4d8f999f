"""Tests for shared-memory packed kernels and the shared-pack registry.

The shared pack is a pure *placement* change: ``to_shared()`` re-homes a
:class:`~repro.pir.kernels.PackedDatabase` onto ``multiprocessing``
shared-memory segments and ``attach()`` maps the same bytes read-only into
another process — answers must stay bit-identical (invariant I2) and the
machine must end up with exactly one pack build per shard regardless of how
many workers attach.  Ownership is explicit: whoever published unlinks, and
nothing may leak into ``/dev/shm`` after engines and clusters close — not
even when an attached worker is killed outright.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.exceptions import PirError
from repro.network import random_planar_network
from repro.pir import numpy_available, shared_pack_registry
from repro.schemes import ConciseIndexScheme
from repro.serving import ShardCluster

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
requires_dev_shm = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
)

SPEC = SystemSpec(page_size=256)


def make_blocks(count=24, size=48, seed=3):
    import random

    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(count)]


def random_masks(num_blocks, count=12, seed=9):
    import random

    rng = random.Random(seed)
    masks = [rng.getrandbits(num_blocks) for _ in range(count)]
    return [0, (1 << num_blocks) - 1] + masks


def shm_names():
    """Current segment names under /dev/shm (empty off-Linux)."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return frozenset()
    return frozenset(entry.name for entry in root.iterdir())


@pytest.fixture
def ci_scheme():
    network = random_planar_network(110, seed=11)
    return ConciseIndexScheme.build(network, spec=SPEC)


# ---------------------------------------------------------------------- #
# child helpers (top-level so the fork context finds them by reference)
# ---------------------------------------------------------------------- #
def _child_attach_and_answer(handle, masks, connection):
    """Attach to a published pack and send its answers back."""
    from repro.pir.kernels import PackedDatabase

    try:
        pack = PackedDatabase.attach(handle)
        connection.send(pack.answer_many(masks))
        pack.close_shared(unlink=False)
    except BaseException as exc:  # pragma: no cover - failure reporting only
        connection.send(exc)
    finally:
        connection.close()


def _child_attach_and_hang(handle, event):
    """Attach, signal readiness, then wait to be killed."""
    from repro.pir.kernels import PackedDatabase

    PackedDatabase.attach(handle)
    event.set()
    time.sleep(60)  # pragma: no cover - the parent SIGKILLs us first


@requires_numpy
class TestToSharedAndAttach:
    def test_attach_answers_bit_identical(self):
        from repro.pir import BigIntKernel
        from repro.pir.kernels import PackedDatabase

        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = PackedDatabase.from_blocks(blocks)
        expected = BigIntKernel(blocks).answer_many(masks)
        assert pack.answer_many(masks) == expected

        handle = pack.to_shared()
        # re-homing the arrays must not change a single answer bit
        assert pack.answer_many(masks) == expected
        attached = PackedDatabase.attach(handle)
        try:
            assert attached.answer_many(masks) == expected
            assert attached.num_blocks == pack.num_blocks
            assert attached.block_size == pack.block_size
        finally:
            attached.close_shared(unlink=False)
            pack.close_shared()

    def test_pack_stays_usable_after_close_shared(self):
        """The shared_kernel memo may hand this object out again after the
        owner unlinked — close_shared must re-home the arrays privately."""
        from repro.pir.kernels import PackedDatabase

        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = PackedDatabase.from_blocks(blocks)
        expected = pack.answer_many(masks)
        pack.to_shared()
        pack.close_shared()
        assert pack.shared_handle is None
        assert pack.answer_many(masks) == expected

    def test_to_shared_is_idempotent(self):
        from repro.pir.kernels import PackedDatabase

        pack = PackedDatabase.from_blocks(make_blocks())
        handle = pack.to_shared()
        assert pack.to_shared() is handle
        pack.close_shared()

    def test_attach_does_not_count_as_a_build(self):
        from repro.pir.kernels import PackedDatabase

        registry = shared_pack_registry()
        pack = PackedDatabase.from_blocks(make_blocks())
        handle = pack.to_shared()
        before = registry.pack_builds
        attached = PackedDatabase.attach(handle)
        attached.close_shared(unlink=False)
        assert registry.pack_builds == before
        pack.close_shared()

    def test_attached_pack_is_read_only(self):
        from repro.pir.kernels import PackedDatabase

        pack = PackedDatabase.from_blocks(make_blocks())
        attached = PackedDatabase.attach(pack.to_shared())
        try:
            with pytest.raises((ValueError, RuntimeError)):
                attached._rows[0, 0] = 1  # shared packs are read-only (I2)
        finally:
            attached.close_shared(unlink=False)
            pack.close_shared()

    def test_attach_in_subprocess_bit_identical(self):
        from repro.pir import BigIntKernel
        from repro.pir.kernels import PackedDatabase

        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = PackedDatabase.from_blocks(blocks)
        handle = pack.to_shared()
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_attach_and_answer, args=(handle, masks, child_end)
        )
        process.start()
        answers = parent_end.recv()
        process.join(timeout=30)
        if isinstance(answers, BaseException):
            raise answers
        assert answers == BigIntKernel(blocks).answer_many(masks)
        # the child's exit must not have torn down the parent's segments
        assert pack.answer_many(masks) == answers
        pack.close_shared()

    def test_stale_handle_attach_raises(self):
        from repro.pir.kernels import PackedDatabase

        pack = PackedDatabase.from_blocks(make_blocks())
        handle = pack.to_shared()
        pack.close_shared()  # owner unlinks; the handle now points nowhere
        with pytest.raises(PirError):
            PackedDatabase.attach(handle)

    def test_mismatched_handle_rejected(self):
        from dataclasses import replace

        from repro.pir.kernels import PackedDatabase

        pack = PackedDatabase.from_blocks(make_blocks())
        handle = pack.to_shared()
        wrong = replace(handle, rows_crc=handle.rows_crc ^ 1)
        with pytest.raises(PirError, match="mismatch"):
            PackedDatabase.attach(wrong)
        pack.close_shared()

    @requires_dev_shm
    @pytest.mark.parametrize("segment", ["rows", "tables"])
    @pytest.mark.parametrize("fault", ["missing", "short"])
    def test_bad_segment_raises_pir_error_and_maps_nothing(self, segment, fault):
        """A handle naming a segment that is gone, or one shorter than the
        handle's geometry, raises ``PirError`` naming that segment — for the
        tables segment as for the rows segment — with every segment the
        failed attach had mapped unmapped again and ``/dev/shm`` unchanged."""
        from dataclasses import replace
        from multiprocessing import shared_memory

        from repro.pir.kernels import PackedDatabase

        def mappings():
            """This process's live mappings of /dev/shm segments."""
            lines = Path("/proc/self/maps").read_text().splitlines()
            return sorted(line.split()[-1] for line in lines if "/dev/shm/" in line)

        pack = PackedDatabase.from_blocks(make_blocks(), max_table_bytes=1 << 20)
        handle = pack.to_shared()
        assert handle.tables_name is not None
        stub = shared_memory.SharedMemory(create=True, size=8)  # far too short
        # created here, so attaching must leave its tracker registration alone
        shared_pack_registry().note_owned(stub.name)
        try:
            names, mapped = shm_names(), mappings()
            bad_name = stub.name if fault == "short" else "repro-test-no-such-segment"
            bad = replace(handle, **{f"{segment}_name": bad_name})
            with pytest.raises(PirError, match=bad_name) as caught:
                PackedDatabase.attach(bad)
            # checked while the traceback still holds attach()'s locals alive:
            # the unmap is attach()'s doing, not the garbage collector's
            assert mappings() == mapped
            assert shm_names() == names
            del caught
        finally:
            shared_pack_registry().forget_owned(stub.name)
            stub.close()
            stub.unlink()
            pack.close_shared()


@requires_numpy
class TestSharedPackRegistry:
    def test_publish_adopt_unpublish_lifecycle(self):
        from repro.pir.kernels import PackedDatabase

        registry = shared_pack_registry()
        blocks = make_blocks()
        masks = random_masks(len(blocks))
        key = ("numpy", "unit", len(blocks), "shard", 0, 1, "round-robin")
        pack = PackedDatabase.from_blocks(blocks)
        handle = registry.publish(key, pack)
        try:
            assert registry.handles()[key] == handle
            builds = registry.pack_builds
            registry.adopt({key: handle})
            adopted = registry.adopted(key)
            assert adopted is not None
            assert adopted.answer_many(masks) == pack.answer_many(masks)
            # adoption attached; it must not have built a new pack
            assert registry.pack_builds == builds
        finally:
            registry.unpublish([key])
        assert key not in registry.handles()
        assert pack.shared_handle is None

    def test_same_process_attach_reuses_published_pack(self):
        from repro.pir.kernels import PackedDatabase

        registry = shared_pack_registry()
        key = ("numpy", "reuse", 24, "shard", 0, 1, "round-robin")
        pack = PackedDatabase.from_blocks(make_blocks())
        handle = registry.publish(key, pack)
        try:
            assert registry.attach(handle) is pack
        finally:
            registry.unpublish([key])

    def test_publish_shard_packs_keys_match_worker_lookup(self, ci_scheme):
        from repro.pir.kernels import shared_kernel_key
        from repro.pir.sharded import ShardedPageStore

        store = ShardedPageStore(ci_scheme.database, num_shards=2)
        handles = store.publish_shard_packs(kernel="numpy")
        try:
            assert handles, "a CI database must publish at least one shard pack"
            for file_name, file_map in store.maps.items():
                page_file = ci_scheme.database.file(file_name)
                for shard_id in range(file_map.num_shards):
                    page_numbers = [
                        file_map.global_index(shard_id, local)
                        for local in range(file_map.shard_sizes()[shard_id])
                    ]
                    key = shared_kernel_key(
                        page_file,
                        page_numbers,
                        kernel="numpy",
                        cache_key=("shard", shard_id, file_map.num_shards, store.strategy),
                    )
                    assert key in handles
        finally:
            shared_pack_registry().unpublish(handles)

    def test_bigint_kernel_publishes_nothing(self, ci_scheme):
        from repro.pir.sharded import ShardedPageStore

        store = ShardedPageStore(ci_scheme.database, num_shards=2)
        assert store.publish_shard_packs(kernel="bigint") == {}


@requires_numpy
@requires_dev_shm
class TestNoSegmentLeaks:
    """Every close path must leave /dev/shm exactly as it found it."""

    def test_owner_close_unlinks_segments(self):
        from repro.pir.kernels import PackedDatabase

        before = shm_names()
        pack = PackedDatabase.from_blocks(make_blocks())
        handle = pack.to_shared()
        created = shm_names() - before
        assert created, "to_shared must create /dev/shm segments"
        assert handle.rows_name.lstrip("/") in created
        pack.close_shared()
        assert shm_names() - before == frozenset()

    def test_engine_close_unlinks_published_packs(self, ci_scheme):
        pairs = [(0, 50), (3, 70)]
        before = shm_names()
        with QueryEngine(ci_scheme, shards=2, pir_kernel="numpy") as engine:
            engine.run_batch(pairs, workers=2, worker_mode="process")
            assert shm_names() - before, "process batches must publish shard packs"
        assert shm_names() - before == frozenset()

    def test_cluster_stop_unlinks_shared_packs(self, ci_scheme):
        before = shm_names()
        with ShardCluster(
            ci_scheme.database, num_shards=2, kernel="numpy", share_packs=True
        ):
            assert shm_names() - before, "share_packs must publish shard packs"
        assert shm_names() - before == frozenset()

    def test_killed_attached_worker_leaks_nothing(self):
        """SIGKILLing a worker that attached must neither unlink the owner's
        segments (the worker never owned them) nor leak any of its own."""
        from repro.pir.kernels import PackedDatabase

        before = shm_names()
        blocks = make_blocks()
        masks = random_masks(len(blocks))
        pack = PackedDatabase.from_blocks(blocks)
        expected = pack.answer_many(masks)
        handle = pack.to_shared()

        context = multiprocessing.get_context("fork")
        ready = context.Event()
        process = context.Process(target=_child_attach_and_hang, args=(handle, ready))
        process.start()
        assert ready.wait(timeout=30), "worker never attached"
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=30)
        assert process.exitcode == -signal.SIGKILL

        # the segments survived the crash and still answer bit-identically
        attached = PackedDatabase.attach(handle)
        assert attached.answer_many(masks) == expected
        attached.close_shared(unlink=False)
        pack.close_shared()
        assert shm_names() - before == frozenset()
