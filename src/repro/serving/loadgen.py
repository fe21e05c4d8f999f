"""Open-loop load generator for the PIR shard service.

Drives a booted shard cluster the way a population of independent users
would: retrievals *arrive* on a fixed schedule (``rate`` per second for
``duration_s``), regardless of whether earlier ones have completed — the
open-loop discipline that makes tail latency honest.  If the servers fall
behind, requests queue and p99 grows (or the servers answer ``BUSY``);
nothing in the generator slows the arrival process down.  That queue is
also the only place server-side batches come from: a shard server flushes
an admitted request at once when idle and merges only what arrived while
its kernel was busy, so flush sizes in ``shard_stats`` read the load, not
a timer.

Each simulated arrival is one full two-server XOR retrieval of a random
page: the client draws the two subset masks, ships both in one request to
the page's owning shard, XOR-combines the answers and (optionally)
verifies the block against the local database — so a loadgen run is also
an end-to-end bit-correctness check of the serving path.

Latency is measured from the *scheduled arrival* to completion, so client-
side queueing behind a saturated connection counts against the service,
warmup completions are excluded, and sustained throughput is the number
of in-window completions over the measurement window.  The benchmark
(``benchmarks/bench_serving.py``) and the ``repro-spc loadgen`` CLI both
run through :func:`run_loadgen`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..exceptions import PirError
from ..pir.batch import random_subset_masks
from ..pir.kernels import xor_bytes
from ..pir.sharded import ShardedPageStore
from ..storage import Database
from . import wire


@dataclass
class LoadReport:
    """Everything one open-loop run measured."""

    file_name: str
    num_shards: int
    offered_rate: float
    duration_s: float
    warmup_s: float
    connections: int
    arrivals: int = 0
    completed: int = 0
    #: Completions whose arrival fell inside the measurement window.
    measured: int = 0
    busy: int = 0
    errors: int = 0
    mismatches: int = 0
    verified: bool = False
    #: In-window arrivals completed per second of measurement window (the
    #: floored metric: every arrival must complete, correctly, eventually).
    retrievals_per_s: float = 0.0
    #: Completions over the actual completion span — when the servers fall
    #: behind the arrival schedule this drops below the offered rate even
    #: though every retrieval eventually completes (not floored: it tracks
    #: machine capacity, which CI workers do not promise).
    service_rate_per_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    #: Client processes the load was generated from (1 = in-process).
    client_procs: int = 1
    #: Per-shard server-side flush statistics, when the caller supplies them.
    shard_stats: List[dict] = field(default_factory=list)
    #: Raw in-window latency samples in seconds (sorted); kept so
    #: multi-process runs can merge children into honest aggregate
    #: percentiles instead of averaging percentiles.
    latencies_s: List[float] = field(default_factory=list, repr=False)

    def summary_lines(self) -> List[str]:
        processes = (
            f", {self.client_procs} client process(es)"
            if self.client_procs > 1
            else ""
        )
        return [
            f"open-loop load: {self.offered_rate:g}/s offered for "
            f"{self.duration_s:g}s ({self.warmup_s:g}s warmup), "
            f"{self.num_shards} shard(s), {self.connections} connection(s)"
            f"{processes}",
            f"  arrivals={self.arrivals} completed={self.completed} "
            f"busy={self.busy} errors={self.errors} mismatches={self.mismatches}",
            f"  sustained {self.retrievals_per_s:,.0f} retrievals/s "
            f"(service rate {self.service_rate_per_s:,.0f}/s), "
            f"latency p50={self.p50_ms:.2f}ms p99={self.p99_ms:.2f}ms "
            f"max={self.max_ms:.2f}ms",
        ]


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def run_loadgen(
    addresses: Sequence[Tuple[str, int]],
    database: Database,
    strategy: str = "round-robin",
    file_name: Optional[str] = None,
    rate: float = 1000.0,
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    connections: int = 16,
    seed: int = 17,
    verify: bool = True,
) -> LoadReport:
    """Run one open-loop burst against already-booted shard servers."""
    addresses = [(host, int(port)) for host, port in addresses]
    if not addresses:
        raise PirError("loadgen needs at least one shard address")
    if warmup_s >= duration_s:
        raise PirError("warmup must be shorter than the run duration")
    store = ShardedPageStore(database, len(addresses), strategy)
    if file_name is None:
        # default to the largest file: the shard slices stay non-trivial
        file_name = max(
            store.maps, key=lambda name: store.maps[name].num_blocks
        )
    if file_name not in store.maps:
        raise PirError(f"file {file_name!r} has no sharded pages")
    num_pages = store.maps[file_name].num_blocks
    page_file = database.file(file_name)
    expected: List[bytes] = (
        page_file.read_pages_batch(list(range(num_pages))) if verify else []
    )
    report = LoadReport(
        file_name=file_name,
        num_shards=len(addresses),
        offered_rate=rate,
        duration_s=duration_s,
        warmup_s=warmup_s,
        connections=max(len(addresses), connections),
        verified=verify,
    )
    latencies, completion_span = asyncio.run(
        _drive(addresses, store, file_name, expected, report, rate, duration_s,
               warmup_s, connections, seed, verify)
    )
    latencies.sort()
    window = duration_s - warmup_s
    report.retrievals_per_s = report.measured / window if window > 0 else 0.0
    report.service_rate_per_s = (
        report.completed / completion_span if completion_span > 0 else 0.0
    )
    report.latencies_s = latencies
    report.p50_ms = _percentile(latencies, 0.50) * 1000.0
    report.p99_ms = _percentile(latencies, 0.99) * 1000.0
    report.max_ms = latencies[-1] * 1000.0 if latencies else 0.0
    return report


def _loadgen_child(connection: Any, kwargs: dict) -> None:
    """One forked client process: run its share and ship the report back."""
    try:
        connection.send(run_loadgen(**kwargs))
    except BaseException as exc:  # surfaced (and re-raised) in the parent
        connection.send(exc)
    finally:
        connection.close()


def run_loadgen_multiproc(
    addresses: Sequence[Tuple[str, int]],
    database: Database,
    strategy: str = "round-robin",
    file_name: Optional[str] = None,
    rate: float = 1000.0,
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    connections: int = 16,
    seed: int = 17,
    verify: bool = True,
    client_procs: int = 1,
) -> LoadReport:
    """One open-loop burst generated from ``client_procs`` client processes.

    A single client process tops out at what one GIL can schedule, so at
    high offered rates the *generator* becomes the bottleneck and measured
    throughput understates the servers.  This forks ``client_procs``
    independent clients, each offering ``rate / client_procs`` on its own
    seeded arrival schedule and connection pool, and merges their reports:
    counts add, latency samples are pooled before the percentile cut (never
    averaged percentiles), the aggregate service rate is the sum of the
    children's.  ``client_procs=1`` is exactly :func:`run_loadgen`.
    """
    if client_procs < 1:
        raise PirError(f"client_procs must be positive, got {client_procs}")
    shared = dict(
        addresses=[(host, int(port)) for host, port in addresses],
        database=database,
        strategy=strategy,
        file_name=file_name,
        duration_s=duration_s,
        warmup_s=warmup_s,
        verify=verify,
    )
    if client_procs == 1:
        return run_loadgen(rate=rate, connections=connections, seed=seed, **shared)
    # fork: children inherit the database (and its page stores) copy-on-write,
    # so nothing has to be picklable; each child only opens TCP connections
    context = multiprocessing.get_context("fork")
    children = []
    for index in range(client_procs):
        parent_end, child_end = context.Pipe(duplex=False)
        kwargs = dict(
            shared,
            rate=rate / client_procs,
            connections=max(1, connections // client_procs),
            seed=seed * 0x9E3779B1 + index,
        )
        process = context.Process(
            target=_loadgen_child, args=(child_end, kwargs), daemon=True
        )
        process.start()
        child_end.close()
        children.append((process, parent_end))
    reports: List[LoadReport] = []
    failure: Optional[BaseException] = None
    for process, parent_end in children:
        try:
            received = parent_end.recv()
        except EOFError:
            received = PirError("loadgen client process died without reporting")
        process.join()
        if isinstance(received, BaseException):
            failure = failure or received
        else:
            reports.append(received)
    if failure is not None:
        raise failure
    merged = LoadReport(
        file_name=reports[0].file_name,
        num_shards=reports[0].num_shards,
        offered_rate=rate,
        duration_s=duration_s,
        warmup_s=warmup_s,
        connections=sum(report.connections for report in reports),
        verified=verify,
        client_procs=client_procs,
    )
    for report in reports:
        merged.arrivals += report.arrivals
        merged.completed += report.completed
        merged.measured += report.measured
        merged.busy += report.busy
        merged.errors += report.errors
        merged.mismatches += report.mismatches
        merged.service_rate_per_s += report.service_rate_per_s
        merged.latencies_s.extend(report.latencies_s)
    merged.latencies_s.sort()
    window = duration_s - warmup_s
    merged.retrievals_per_s = merged.measured / window if window > 0 else 0.0
    merged.p50_ms = _percentile(merged.latencies_s, 0.50) * 1000.0
    merged.p99_ms = _percentile(merged.latencies_s, 0.99) * 1000.0
    merged.max_ms = merged.latencies_s[-1] * 1000.0 if merged.latencies_s else 0.0
    return merged


async def _drive(
    addresses: List[Tuple[str, int]],
    store: ShardedPageStore,
    file_name: str,
    expected: List[bytes],
    report: LoadReport,
    rate: float,
    duration_s: float,
    warmup_s: float,
    connections: int,
    seed: int,
    verify: bool,
) -> Tuple[List[float], float]:
    loop = asyncio.get_running_loop()
    num_shards = len(addresses)
    per_shard = max(1, connections // num_shards)
    queues: List[asyncio.Queue] = [asyncio.Queue() for _ in range(num_shards)]
    latencies: List[float] = []
    last_finish = [0.0]
    start = loop.time()
    measure_from = start + warmup_s

    async def worker(shard_id: int, worker_index: int) -> None:
        num_blocks = store.shard_num_pages(shard_id, file_name)
        rng = random.Random((seed * 0x9E3779B1 + shard_id) * 65537 + worker_index)
        try:
            reader, writer = await asyncio.open_connection(*addresses[shard_id])
        except OSError as exc:
            raise PirError(
                f"cannot connect to shard server {shard_id} at "
                f"{addresses[shard_id][0]}:{addresses[shard_id][1]}: {exc}"
            ) from exc
        try:
            while True:
                item = await queues[shard_id].get()
                if item is None:
                    return
                scheduled, local_page, global_page = item
                mask_a = random_subset_masks(rng, num_blocks, 1)[0]
                mask_b = mask_a ^ (1 << local_page)
                writer.write(
                    wire.encode_frame(
                        wire.encode_answer_request(file_name, (mask_a, mask_b))
                    )
                )
                await writer.drain()
                header = await reader.readexactly(wire.HEADER_SIZE)
                payload = await reader.readexactly(wire.decode_frame_length(header))
                finished = loop.time()
                try:
                    answers = wire.decode_answer_response(payload)
                except wire.ServerBusy:
                    report.busy += 1
                    continue
                except PirError:
                    report.errors += 1
                    continue
                block = xor_bytes(answers[0], answers[1])
                if verify and block != expected[global_page]:
                    report.mismatches += 1
                report.completed += 1
                last_finish[0] = max(last_finish[0], finished)
                if scheduled >= measure_from:
                    report.measured += 1
                    latencies.append(finished - scheduled)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    workers = [
        asyncio.ensure_future(worker(shard_id, worker_index))
        for shard_id in range(num_shards)
        for worker_index in range(per_shard)
    ]
    arrival_rng = random.Random(seed)
    num_pages = store.maps[file_name].num_blocks
    total = int(rate * duration_s)
    for position in range(total):
        scheduled = start + position / rate
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        page = arrival_rng.randrange(num_pages)
        shard_id, local_page = store.locate(file_name, page)
        queues[shard_id].put_nowait((scheduled, local_page, page))
        report.arrivals += 1
    for shard_id in range(num_shards):
        for _ in range(per_shard):
            queues[shard_id].put_nowait(None)
    await asyncio.gather(*workers)
    return latencies, max(0.0, last_finish[0] - start)
