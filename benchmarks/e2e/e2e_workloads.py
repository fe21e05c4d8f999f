"""The five workloads: set-up, the measured loops and the correctness checks.

The road network is a fixed dataset (generator seed :data:`DATASET_SEED`):
the CI plan's size follows the network (52 to 73 retrievals per query over
network seeds 1 to 6), so a network drawn from ``--seed`` would put that
spread on every latency metric.  ``--seed`` draws the query pairs and the
open-loop arrival schedule; the program under test sees only those.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import SystemSpec
from repro.bench.workloads import generate_workload
from repro.engine import QueryEngine
from repro.exceptions import ReproError
from repro.network import all_pairs_sample_costs, random_planar_network
from repro.pir import shared_kernel
from repro.schemes import ConciseIndexScheme, PassageIndexScheme
from repro.serving import LoadReport, ShardCluster, run_loadgen

from e2e_tracing import Tracer

DATASET_SEED = 1
DEFAULT_NODES = 600
PAGE_SIZE = 256
#: Load is sized for two cores: one client thread, two shard servers.
NUM_SHARDS = 2
CONNECTIONS = 2
KERNEL = "numpy"
#: Distinct query pairs drawn per run; more than any run executes, so the
#: decode cache sees the reuse of a random workload, not of a replayed one.
PAIR_POOL = 16384
#: Leading queries of ``ci_remote`` whose (path, cost, adversary view) must
#: equal in-process serving of the same pairs (invariant I2).
FINGERPRINT_QUERIES = 16
#: Open-loop offered rates (retrievals/s).  Two connections top out near
#: 700/s, so 200 and 400 sit under the knee, 800 just over it, and 1600 is
#: the overload rung whose achieved rate reads capacity.
LADDER: Tuple[float, ...] = (200.0, 400.0, 800.0, 1600.0)
#: The untraced pass runs two rungs, as shares of ``--seconds``: latency is
#: read at 400/s; capacity needs ~3,000 completions to settle within 3%.
LATENCY_RUNG = (400.0, 0.5)
CAPACITY_RUNG = (1600.0, 0.25)
LATENCY_LIMIT_MS = 20.0
WARMUP_SHARE = 0.2
#: The traced pass stops here so the in-memory trace stays small.
MAX_TRACED_SPANS = 300_000


class Workload(NamedTuple):
    name: str
    scheme: str  # "CI" or "PI"
    #: ``QueryEngine`` keyword arguments; None = no engine (open loop).
    engine: Optional[Dict[str, Any]]
    remote: bool
    #: Set-ups per run; ``setup_s`` is their median (PI builds in ~12 s, so once).
    setup_reps: int
    warmup_queries: int
    loop: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ci_local", "CI", {}, False, 3, 30, "closed loop, 1 client, in process"),
        Workload("pi_local", "PI", {}, False, 1, 10, "closed loop, 1 client, in process"),
        Workload(
            "ci_cold_solve", "CI", {"pir_kernel": "off", "cache_entries": 0}, False, 3, 30,
            "closed loop, 1 client, in process, kernel and decode cache off",
        ),
        Workload(
            "ci_remote", "CI", {}, True, 3, 4,
            "closed loop, 1 client, 2 shard servers over loopback TCP (127.0.0.1, not a link)",
        ),
        Workload(
            "retrieval_openloop", "CI", None, True, 3, 0,
            "open loop, 2 connections, 2 shard servers over loopback TCP (127.0.0.1, not a link), "
            "offered " + "/".join(f"{rate:g}" for rate in LADDER) + " retrievals/s",
        ),
    )
}


class Rig:
    """One set-up system: dataset, scheme, and the engine and/or cluster."""

    def __init__(self, workload: Workload, nodes: int) -> None:
        self.workload = workload
        self.timings: Dict[str, float] = {}
        self.cluster: Optional[ShardCluster] = None
        self.engine: Optional[QueryEngine] = None
        clock = time.perf_counter
        started = clock()
        self.network = random_planar_network(nodes, seed=DATASET_SEED)
        self.timings["network.generate_s"] = clock() - started

        mark = clock()
        scheme_class = ConciseIndexScheme if workload.scheme == "CI" else PassageIndexScheme
        self.scheme = scheme_class.build(self.network, SystemSpec(page_size=PAGE_SIZE))
        self.timings["schemes.build_s"] = clock() - mark

        try:
            self.timings["serving.boot_s"] = 0.0
            if workload.remote:
                mark = clock()
                self.cluster = ShardCluster(
                    self.scheme.database, num_shards=NUM_SHARDS, kernel=KERNEL
                ).start()
                self.timings["serving.boot_s"] = clock() - mark

            mark = clock()
            self.pack_bytes = self._touch_packs()
            self.timings["pir.pack_build_s"] = clock() - mark if self.pack_bytes else 0.0

            if workload.engine is not None:
                self.engine = QueryEngine(self.scheme, serving=self.cluster, **workload.engine)
            self._warm_up()
        except BaseException:
            self.close()
            raise
        self.timings["setup_s"] = clock() - started

    def _touch_packs(self) -> int:
        """Build every packed kernel the workload answers from; their bytes."""
        database = self.scheme.database
        if self.cluster is not None:
            store = self.cluster.store
            kernels = [
                store.shard_kernel(shard, name, KERNEL)
                for name in store.maps
                for shard in range(NUM_SHARDS)
                if store.shard_num_pages(shard, name) > 0
            ]
        elif self.workload.engine is not None and self.workload.engine.get("pir_kernel") != "off":
            kernels = [
                shared_kernel(page_file, kernel=KERNEL)
                for page_file in database.files()
                if page_file.num_pages > 0
            ]
        else:
            kernels = []
        return sum(kernel.nbytes for kernel in kernels)

    def _warm_up(self) -> None:
        if self.engine is not None:
            for pair in generate_workload(
                self.network, self.workload.warmup_queries, seed=DATASET_SEED
            ):
                self.engine.run_batch([pair], verify_costs=False)
        else:
            assert self.cluster is not None
            run_loadgen(
                self.cluster.addresses, self.scheme.database, rate=200.0,
                duration_s=0.15, warmup_s=0.05, connections=CONNECTIONS, seed=DATASET_SEED,
            )

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        if self.cluster is not None:
            self.cluster.stop()


def set_up(workload: Workload, nodes: int) -> Tuple[Rig, Dict[str, float]]:
    """Set up ``setup_reps`` times; the last rig and the median of each timing."""
    timings: List[Dict[str, float]] = []
    rig: Optional[Rig] = None
    for _ in range(workload.setup_reps):
        if rig is not None:
            rig.close()
        rig = Rig(workload, nodes)
        timings.append(rig.timings)
    assert rig is not None
    return rig, {key: statistics.median(t[key] for t in timings) for key in timings[0]}


# ---------------------------------------------------------------------- #
# query workloads (closed loop)
# ---------------------------------------------------------------------- #
class QueryRun(NamedTuple):
    walls_s: List[float]  # per verified query
    attempted: int
    failed: int
    sim_response_s: float  # mean of the cost model's response time
    cache_hit_rate: float


def fingerprint(result: Any) -> Tuple:
    return (result.path.nodes, round(result.path.cost, 9), result.adversary_view)


def local_fingerprints(rig: Rig, pairs: Sequence[Tuple[int, int]]) -> List[Tuple]:
    """What in-process serving answers for ``pairs`` (the I2 reference)."""
    with QueryEngine(rig.scheme) as engine:
        return [
            fingerprint(engine.run_batch([pair], verify_costs=False).results[0])
            for pair in pairs
        ]


def run_queries(
    rig: Rig,
    pairs: Sequence[Tuple[int, int]],
    seconds: float,
    tracer: Optional[Tracer] = None,
    fingerprints: Sequence[Tuple] = (),
) -> QueryRun:
    """One query per ``run_batch`` call, the next sent when the last returned.

    Every answer is checked between queries, outside the timed region:
    cost against Dijkstra on the full network, adversary view against the
    plan's one legal view, and the leading queries against ``fingerprints``.
    """
    engine = rig.engine
    assert engine is not None
    expected_view = rig.scheme.plan.expected_adversary_view()
    clock = time.perf_counter
    #: (pair, answered cost, wall) of every query that passed the inline checks
    answered: List[Tuple[Tuple[int, int], float, float]] = []
    failed = hits = misses = 0
    response_s = 0.0
    index = 0
    deadline = clock() + seconds
    while clock() < deadline and (tracer is None or len(tracer.spans) < MAX_TRACED_SPANS):
        pair = pairs[index % len(pairs)]
        index += 1
        try:
            with tracer.query(index) if tracer is not None else nullcontext():
                started = clock()
                batch = engine.run_batch([pair], verify_costs=False)
                wall = clock() - started
        except ReproError:  # plan violation, BUSY exhausted, server error
            failed += 1
            continue
        result = batch.results[0]
        hits += batch.cache_hits
        misses += batch.cache_misses
        if result.adversary_view != expected_view or (
            index <= len(fingerprints) and fingerprint(result) != fingerprints[index - 1]
        ):
            failed += 1
            continue
        answered.append((pair, result.path.cost, wall))
        response_s += result.response.total_s
    truth = all_pairs_sample_costs(rig.network, [pair for pair, _, _ in answered])
    walls = [
        wall
        for pair, cost, wall in answered
        if math.isclose(cost, truth[pair], rel_tol=1e-4, abs_tol=1e-6)
    ]
    return QueryRun(
        walls_s=walls,
        attempted=index,
        failed=failed + len(answered) - len(walls),
        sim_response_s=response_s / len(answered) if answered else 0.0,
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
    )


# ---------------------------------------------------------------------- #
# retrieval workload (open loop)
# ---------------------------------------------------------------------- #
def run_rung(rig: Rig, rate: float, duration_s: float, seed: int) -> LoadReport:
    assert rig.cluster is not None
    duration_s = max(duration_s, 0.1)
    return run_loadgen(
        rig.cluster.addresses,
        rig.scheme.database,
        rate=rate,
        duration_s=duration_s,
        warmup_s=WARMUP_SHARE * duration_s,
        connections=CONNECTIONS,
        seed=seed,
        verify=True,
    )


def rung_failures(report: LoadReport) -> int:
    """Retrievals of a rung that did not come back correct."""
    return (
        report.busy + report.errors + report.mismatches
        + max(0, report.arrivals - report.completed - report.busy - report.errors)
    )


def within_limit(report: LoadReport) -> bool:
    """Whether a rung met the latency limit without a growing backlog."""
    return (
        rung_failures(report) == 0
        and percentile(report.latencies_s, 0.99) * 1000.0 <= LATENCY_LIMIT_MS
        and report.service_rate_per_s >= 0.97 * report.offered_rate
    )


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]
