"""Microbenchmark: the array-backed fast path vs. the seed implementations.

Three hot paths dominate every figure benchmark: client-side Dijkstra,
per-block PIR retrieval and the client-side query pipeline of the schemes.
This benchmark times all three — the CSR-compiled search core against the
preserved dict-based reference implementations, batched integer-XOR PIR
against a faithful re-implementation of the seed's byte-at-a-time client,
and batched CI/PI query execution through the engine against the PR 1
client path (dict-merge ``RoadNetwork`` assembly plus a per-query CSR
compile) — and asserts the speedups the fast path exists for.  A fourth
benchmark serves the exact PIR request stream of an engine hotspot batch
through the 4-shard versus the unsharded XOR-serving page simulator and
asserts the end-to-end throughput gain of sharding (≥ 1.5x at 4 shards).

Run it directly (``PYTHONPATH=src python benchmarks/bench_micro_fastpath.py``,
add ``--json`` to also write ``benchmarks/results/micro_fastpath.json``) or
through pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_micro_fastpath.py``), which records both the text and the
JSON result files.
"""

import random
import sys
import time
from contextlib import contextmanager
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import repro.schemes.assembly as assembly
import repro.schemes.ci as ci_module
import repro.schemes.pi as pi_module
from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.bench.workloads import generate_hotspot_workload, generate_workload
from repro.network import (
    all_pairs_sample_costs,
    random_planar_network,
    shortest_path,
    dijkstra_tree,
)
from repro.pir import (
    ShardedPirSimulator,
    UsablePirSimulator,
    answer_shares,
    draw_shares,
    make_kernel,
    numpy_available,
)
from repro.pir.batch import random_subset_masks
from repro.partition import decode_region_payload
from repro.schemes import ConciseIndexScheme, PassageIndexScheme, QueryPlan
from repro.schemes.files import DATA_FILE, INDEX_FILE, LOOKUP_FILE, HeaderInfo, read_lookup_entry
from repro.schemes.index_entries import decode_index_entry


def _reference_all_pairs(network, pairs):
    """The seed's batched-cost routine: one dict-based tree per distinct source."""
    by_source = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    costs = {}
    reference_dijkstra_tree = _search_oracles().reference_dijkstra_tree
    for source, targets in by_source.items():
        tree = reference_dijkstra_tree(network, source, targets=targets)
        for target in targets:
            costs[(source, target)] = tree.distance_to(target)
    return costs


# ---------------------------------------------------------------------- #
# seed reference: byte-at-a-time two-server XOR PIR (as before this PR)
# ---------------------------------------------------------------------- #
def _bytewise_xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class _ReferenceXorPir:
    """The seed's client/server loop, kept verbatim for timing comparison."""

    def __init__(self, blocks, rng):
        self._blocks = list(blocks)
        self._rng = rng

    def _answer(self, subset):
        result = bytes(len(self._blocks[0]))
        for index in subset:
            result = _bytewise_xor(result, self._blocks[index])
        return result

    def retrieve(self, index):
        subset_a = {
            position
            for position in range(len(self._blocks))
            if self._rng.random() < 0.5
        }
        subset_b = set(subset_a)
        if index in subset_b:
            subset_b.remove(index)
        else:
            subset_b.add(index)
        return _bytewise_xor(self._answer(subset_a), self._answer(subset_b))


def _time(function, repeats=3):
    """Best-of-N wall time of ``function()``; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_dijkstra_microbench(num_nodes=1500, num_queries=60, seed=7):
    """Point-to-point and full-tree searches, fast path vs. reference."""
    network = random_planar_network(num_nodes, seed=seed)
    rng = random.Random(seed)
    node_ids = list(network.node_ids())
    pairs = [(rng.choice(node_ids), rng.choice(node_ids)) for _ in range(num_queries)]
    sources = [rng.choice(node_ids) for _ in range(max(5, num_queries // 6))]

    def run_fast():
        network._csr_cache = None  # include one compile in every timed run
        costs = [shortest_path(network, s, t).cost for s, t in pairs]
        trees = [dijkstra_tree(network, s) for s in sources]
        batched = all_pairs_sample_costs(network, pairs)
        return costs, trees, batched

    oracle = _search_oracles()

    def run_reference():
        costs = [oracle.reference_shortest_path(network, s, t).cost for s, t in pairs]
        trees = [oracle.reference_dijkstra_tree(network, s) for s in sources]
        batched = _reference_all_pairs(network, pairs)
        return costs, trees, batched

    fast_s, (fast_costs, fast_trees, fast_batched) = _time(run_fast)
    reference_s, (reference_costs, reference_trees, reference_batched) = _time(run_reference)

    for fast, reference in zip(fast_costs, reference_costs):
        assert abs(fast - reference) <= 1e-9 * max(1.0, abs(reference)), \
            "fast path disagrees with the reference implementation"
    for fast_tree, reference_tree in zip(fast_trees, reference_trees):
        assert len(fast_tree.distances) == len(reference_tree.distances)
    for pair, reference_cost in reference_batched.items():
        assert abs(fast_batched[pair] - reference_cost) <= 1e-9 * max(1.0, abs(reference_cost))

    return {
        "nodes": num_nodes,
        "queries": num_queries,
        "trees": len(sources),
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s,
    }


def run_pir_microbench(num_blocks=96, block_bytes=512, num_retrievals=60, seed=11):
    """The engine's batched XOR read (``draw_shares`` + ``answer_shares``)
    vs. the seed's byte-at-a-time client."""
    rng = random.Random(seed)
    blocks = [bytes(rng.randrange(256) for _ in range(block_bytes)) for _ in range(num_blocks)]
    indices = [rng.randrange(num_blocks) for _ in range(num_retrievals)]

    kernel = make_kernel(blocks)
    client_rng = random.Random(seed)
    reference_pir = _ReferenceXorPir(blocks, rng=random.Random(seed))

    fast_s, fast_blocks = _time(
        lambda: answer_shares(kernel, *draw_shares(client_rng, num_blocks, indices))
    )
    reference_s, reference_blocks = _time(
        lambda: [reference_pir.retrieve(index) for index in indices]
    )

    expected = [blocks[index] for index in indices]
    assert fast_blocks == expected, "batched retrieval returned wrong blocks"
    assert reference_blocks == expected, "reference retrieval returned wrong blocks"

    return {
        "blocks": num_blocks,
        "block_bytes": block_bytes,
        "retrievals": num_retrievals,
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s,
    }


# ---------------------------------------------------------------------- #
# PR 1 client path: per-query index-entry decode, dict-merge assembly and a
# per-query CSR compile (the query pipeline before it became CSR-native and
# then searched the fetched region columns in place)
# ---------------------------------------------------------------------- #
def _pr1_decode_index_entry(pages, key):
    """PR 1 decoded every fetched index page on every query (no page cache)."""
    from repro.schemes.index_entries import (
        IndexEntry,
        _decode_page_entries,
        _resolve_page,
    )

    regions, edges = set(), set()
    found_regions = found_edges = False
    for page_bytes in pages:
        for entry in _resolve_page(_decode_page_entries(page_bytes)):
            if entry.key != key:
                continue
            if entry.regions is not None:
                regions |= entry.regions
                found_regions = True
            if entry.edges is not None:
                edges |= entry.edges
                found_edges = True
    if found_regions:
        return IndexEntry(key, frozenset(regions), None)
    if found_edges:
        return IndexEntry(key, None, frozenset(edges))
    return None


def _oracles():
    """The reference implementations kept under ``tests/oracles``."""
    oracles = str(Path(__file__).resolve().parents[1] / "tests" / "oracles")
    if oracles not in sys.path:
        sys.path.append(oracles)
    import region_rows_reference

    return region_rows_reference


def _search_oracles():
    """The dict-based Dijkstra of ``tests/oracles``: the seed's search baseline."""
    _oracles()
    import search_reference

    return search_reference


def _pr1_passage_graph(payload_groups, index_pages, pair, entry=None):
    if entry is None:
        entry = _pr1_decode_index_entry(index_pages, pair)
    return _oracles().reference_passage_graph(payload_groups, index_pages, pair, entry)


@contextmanager
def _pr1_client_path():
    """Route scheme queries through the dict-merge reference assembly and a
    search that compiles the merged ``RoadNetwork`` per query."""
    saved = (assembly.assemble_region_csr, assembly.assemble_passage_csr)
    assembly.assemble_region_csr = _oracles().reference_region_graph
    assembly.assemble_passage_csr = _pr1_passage_graph
    ci_module.csr_shortest_path = pi_module.csr_shortest_path = shortest_path
    try:
        yield
    finally:
        assembly.assemble_region_csr, assembly.assemble_passage_csr = saved
        ci_module.csr_shortest_path = pi_module.csr_shortest_path = assembly.csr_shortest_path


def run_scheme_query_microbench(num_nodes=1000, num_queries=80, seed=13):
    """End-to-end batched CI/PI queries: in-place client pipeline vs. dict-merge.

    Both sides execute full engine batches (every PIR round, plan checks and
    all) over a hotspot workload — serving batches concentrate on popular
    source/destination pairs, which is exactly what the engine's decode cache
    exists for.  Only the client-side pipeline differs: the fetched region
    columns searched in place with page-level entry decoding, versus the
    first batched client path (per-query index-entry decode, dict-based
    ``RoadNetwork`` merge, per-query CSR compile).  Its header/region decode
    caching is active on both sides.
    """
    network = random_planar_network(num_nodes, seed=seed)
    spec = SystemSpec(page_size=1024)
    pairs = generate_hotspot_workload(
        network, count=num_queries, seed=seed, hot_pairs=10, hot_fraction=0.75
    )
    results = {}
    for scheme_cls in (ConciseIndexScheme, PassageIndexScheme):
        scheme = scheme_cls.build(network, spec=spec)

        def run_fast():
            # a fresh engine per run: every repeat starts with a cold cache;
            # XOR serving pinned off — this measures the client pipeline
            engine = QueryEngine(scheme, pir_kernel="off")
            return engine.run_batch(pairs, verify_costs=False)

        def run_reference():
            with _pr1_client_path():
                engine = QueryEngine(scheme, pir_kernel="off")
                return engine.run_batch(pairs, verify_costs=False)

        fast_s, fast_batch = _time(run_fast)
        reference_s, reference_batch = _time(run_reference)
        for fast, reference in zip(fast_batch.results, reference_batch.results):
            assert fast.path.nodes == reference.path.nodes, \
                "in-place client pipeline disagrees with the dict-merge client path"
            assert abs(fast.path.cost - reference.path.cost) <= 1e-9 * max(
                1.0, abs(reference.path.cost)
            )
        results[scheme.name] = {
            "nodes": num_nodes,
            "queries": num_queries,
            "fast_s": fast_s,
            "reference_s": reference_s,
            "speedup": reference_s / fast_s,
        }
    return results


def run_sharded_pir_microbench(num_nodes=1000, num_queries=80, num_shards=4, seed=13):
    """End-to-end sharded vs. unsharded PIR serving of a hotspot batch.

    Builds the CI database, pushes a hotspot workload through the batch
    engine, and extracts the *exact* PIR page-request stream the batch
    produced (every look-up, index, data and dummy retrieval of every
    query).  That stream is then served through the engine's XOR-serving
    simulators twice, one ``retrieve_pages`` call per run of consecutive
    requests against one file: the unsharded
    :class:`repro.pir.UsablePirSimulator`, whose every retrieval XORs over
    the whole file, versus a :class:`repro.pir.ShardedPirSimulator` whose
    retrievals only touch the owning shard's slice of it — so batch
    throughput scales with the shard count, the scalability lever the
    sharded engine exists for.
    """
    network = random_planar_network(num_nodes, seed=seed)
    # a small page size yields a few hundred pages, the regime where the
    # servers' per-retrieval XOR work (linear in the database size) dominates
    spec = SystemSpec(page_size=256)
    scheme = ConciseIndexScheme.build(network, spec=spec)
    pairs = generate_hotspot_workload(
        network, count=num_queries, seed=seed, hot_pairs=10, hot_fraction=0.75
    )
    batch = QueryEngine(scheme, pir_kernel="off").run_batch(
        pairs, verify_costs=False
    )
    database = scheme.database
    stream = [
        (file_name, page)
        for result in batch.results
        for _, file_name, page in result.trace.private_page_requests()
    ]
    # the whole batch stream is thousands of retrievals; a deterministic
    # slice keeps the benchmark fast while preserving the hotspot shape
    stream = stream[:256]
    runs = [
        (file_name, [page for _, page in group])
        for file_name, group in groupby(stream, key=itemgetter(0))
    ]

    def serve(simulator):
        return [
            block
            for file_name, pages in runs
            for block in simulator.retrieve_pages(file_name, pages)
        ]

    # pinned to the big-int kernel on both sides: this benchmark measures the
    # sharding topology (per-retrieval work linear in the owning database),
    # not the server kernel — the packed-kernel gain has its own benchmark
    unsharded = UsablePirSimulator(database, spec=spec, xor_kernel="bigint")
    sharded = ShardedPirSimulator(
        database, spec=spec, num_shards=num_shards, xor_kernel="bigint"
    )
    expected = [database.file(file_name).read_page(page) for file_name, page in stream]
    # one untimed pass each also builds every file's (per-shard) kernel
    assert serve(unsharded) == expected, "unsharded PIR returned wrong blocks"
    assert serve(sharded) == expected, "sharded PIR returned wrong blocks"

    unsharded_s, unsharded_blocks = _time(lambda: serve(unsharded))
    sharded_s, sharded_blocks = _time(lambda: serve(sharded))
    assert unsharded_blocks == sharded_blocks == expected

    return {
        "nodes": num_nodes,
        "queries": num_queries,
        "blocks": sum(database.file(name).num_pages for name in database.file_names()),
        "shards": num_shards,
        "retrievals": len(stream),
        "fast_s": sharded_s,
        "reference_s": unsharded_s,
        "speedup": unsharded_s / sharded_s,
        "retrievals_per_s_sharded": len(stream) / sharded_s,
        "retrievals_per_s_unsharded": len(stream) / unsharded_s,
    }


def run_xor_kernel_microbench(
    num_blocks=600, block_bytes=256, batch_sizes=(1, 8, 32, 128, 256), seed=19
):
    """Server-side mask answering: packed numpy kernel vs. the big-int fold.

    Draws the random subset-mask stream a two-server client would send over a
    database of ``num_blocks`` blocks and times the pure server hot path —
    ``answer_many`` over a batch of masks — for the big-int reference kernel
    and the packed bit-matrix kernel at every batch size of the curve.  The
    packed kernel answers every point through its one table strategy (the
    cache-blocked group-major gather); the headline speedup is read at the
    largest batch, the regime batched engine serving actually runs in.
    Answers are asserted bit-identical per batch.

    Without numpy only the big-int side runs and the result records
    ``kernel == "bigint"`` with no speedup (the perf gate skips its floor).
    """
    rng = random.Random(seed)
    blocks = [
        bytes(rng.randrange(256) for _ in range(block_bytes)) for _ in range(num_blocks)
    ]
    masks = random_subset_masks(random.Random(seed), num_blocks, max(batch_sizes))

    bigint = make_kernel(blocks, kernel="bigint")
    packed = make_kernel(blocks, kernel="numpy") if numpy_available() else None

    curve = []
    for batch in batch_sizes:
        sample = masks[:batch]
        bigint_s, bigint_answers = _time(lambda: bigint.answer_many(sample))
        point = {
            "batch": batch,
            "bigint_s": bigint_s,
            "bigint_retrievals_per_s": batch / bigint_s,
        }
        if packed is not None:
            numpy_s, numpy_answers = _time(lambda: packed.answer_many(sample))
            assert numpy_answers == bigint_answers, \
                "packed kernel disagrees with the big-int oracle"
            point.update(
                numpy_s=numpy_s,
                numpy_retrievals_per_s=batch / numpy_s,
                speedup=bigint_s / numpy_s,
            )
        curve.append(point)

    result = {
        "blocks": num_blocks,
        "block_bytes": block_bytes,
        "kernel": "numpy" if packed is not None else "bigint",
        "curve": curve,
    }
    head = curve[-1]
    result["reference_s"] = head["bigint_s"]
    result["fast_s"] = head.get("numpy_s", head["bigint_s"])
    result["speedup"] = head.get("speedup", 1.0)
    return result


def run_xor_kernel_pi_microbench(
    num_blocks=35140, block_bytes=256, batch_sizes=(1, 2, 18, 64, 256), seed=23
):
    """The packed kernel on a PI-shaped pack: does a batch pay per mask?

    The passage-index scheme's index file is ~35k blocks of 256 bytes: too
    big for 8-bit group tables within the budget, so the pack carries 36 MB
    of 4-bit tables and the kernel is bound by walking them, not by CPU.  A
    PI query sends one 18-mask batch (9 index pages x 2 shares) over that
    pack.  The curve times ``answer_rows`` at each batch size;
    ``batch_penalty`` is the per-mask time at batch 18 over the time of a
    single mask.  A kernel that walks the tables once per *mask* reads >= 1
    (the mask-major gather this replaced read ~1.5); walking them once per
    *batch*, group-major, reads ~0.7.  The ceiling (<= 1: a batch must never
    cost more per mask than single masks) is machine-independent.  A sample
    of every batch's answers is asserted equal to the big-int oracle.

    Without numpy there is no packed kernel; the result records
    ``kernel == "bigint"`` and the perf gate skips the ceiling.
    """
    result = {"blocks": num_blocks, "block_bytes": block_bytes}
    if not numpy_available():
        result.update(
            kernel="bigint", curve=[], fast_s=0.0, reference_s=0.0, speedup=1.0
        )
        return result

    rng = random.Random(seed)
    blocks = [rng.randbytes(block_bytes) for _ in range(num_blocks)]
    masks = random_subset_masks(random.Random(seed), num_blocks, max(batch_sizes))
    packed = make_kernel(blocks, kernel="numpy")
    oracle = make_kernel(blocks, kernel="bigint")

    curve = []
    for batch in batch_sizes:
        sample = masks[:batch]
        seconds, rows = _time(lambda: packed.answer_rows(sample), repeats=5)
        answers = packed.rows_to_blocks(rows)
        for position in {0, batch // 2, batch - 1}:
            assert answers[position] == oracle.answer_mask(sample[position]), \
                "packed kernel disagrees with the big-int oracle"
        curve.append(
            {"batch": batch, "numpy_s": seconds, "us_per_mask": seconds / batch * 1e6}
        )

    by_batch = {point["batch"]: point["numpy_s"] for point in curve}
    result.update(
        kernel="numpy",
        group_bits=packed._group_bits,
        table_bytes=int(packed._tables.nbytes),
        curve=curve,
        # 18 single-mask calls vs. one 18-mask batch
        reference_s=by_batch[1] * 18,
        fast_s=by_batch[18],
        speedup=by_batch[1] * 18 / by_batch[18],
        batch_penalty=by_batch[18] / 18 / by_batch[1],
    )
    return result


def run_tiled_fallback_microbench(
    num_blocks=8192, block_bytes=128, batch_sizes=(8, 32, 128, 512), seed=29
):
    """Beyond the table budget: tiled GF(2) product vs. the row-gather path.

    Packs a database with a zero group-table budget — the regime an
    over-budget shard lands in — and answers the same subset-mask stream
    through both fallback strategies at every batch size of the curve: the
    per-mask ``unpackbits`` row gather (the only fallback before this PR)
    and the tiled GF(2) mask-matrix × database product that replaced it for
    serving-sized batches.  The gather touches ~N/2 rows *per mask*, so its
    cost is linear in the batch; the tiled product pays one throwaway table
    build per tile for the *whole* batch, which is why the curve crosses
    over around ``TILED_MIN_BATCH`` and the headline speedup is read at the
    largest batch (the coalesced serving regime).  The tiled product answers
    through the same blocked gather as resident tables, one tile per block.  Every point is asserted
    bit-identical between both paths and against the big-int oracle.

    Without numpy there is no packed kernel at all; the result records
    ``kernel == "bigint"`` and the perf gate skips the floor.
    """
    from repro.pir.kernels import PackedDatabase

    rng = random.Random(seed)
    blocks = [
        bytes(rng.randrange(256) for _ in range(block_bytes)) for _ in range(num_blocks)
    ]
    if not numpy_available():
        return {
            "blocks": num_blocks,
            "block_bytes": block_bytes,
            "kernel": "bigint",
            "curve": [],
            "fast_s": 0.0,
            "reference_s": 0.0,
            "speedup": 1.0,
        }

    try:
        import numpy as np
    except ImportError:  # pragma: no cover - gated by numpy_available() above
        raise

    # max_table_bytes=0: no resident tables fit, exactly the over-budget
    # regime REPRO_PIR_MAX_TABLE_BYTES shrinks a real shard into
    pack = PackedDatabase.from_blocks(blocks, max_table_bytes=0)
    assert pack._tables is None, "pack unexpectedly fit resident tables"
    oracle = make_kernel(blocks, kernel="bigint")
    masks = random_subset_masks(random.Random(seed), num_blocks, max(batch_sizes))

    curve = []
    for batch in batch_sizes:
        sample = masks[:batch]
        matrix = pack._mask_matrix(sample)

        def run_gather():
            out = np.zeros((batch, pack.words), dtype=np.uint64)
            return pack._answer_rows_gather(matrix, out)

        def run_tiled():
            out = np.zeros((batch, pack.words), dtype=np.uint64)
            return pack._answer_rows_tiled(matrix, out)

        gather_s, gather_rows = _time(run_gather)
        tiled_s, tiled_rows = _time(run_tiled)
        tiled_answers = pack.rows_to_blocks(tiled_rows)
        assert tiled_answers == pack.rows_to_blocks(gather_rows), \
            "tiled product disagrees with the row gather"
        assert tiled_answers == oracle.answer_many(sample), \
            "fallback answers disagree with the big-int oracle"
        curve.append(
            {
                "batch": batch,
                "gather_s": gather_s,
                "tiled_s": tiled_s,
                "speedup": gather_s / tiled_s,
            }
        )

    head = curve[-1]
    return {
        "blocks": num_blocks,
        "block_bytes": block_bytes,
        "kernel": "numpy",
        "curve": curve,
        "fast_s": head["tiled_s"],
        "reference_s": head["gather_s"],
        "speedup": head["speedup"],
    }


def run_store_backend_microbench(num_pages=1024, page_bytes=1024, reads=2048, seed=17):
    """Page-store backends: append and read throughput, batch vs. per-page loop.

    Appends the same page set to every backend (memory, mmap, SQLite), then
    serves an identical random read stream twice — once as a per-page
    ``get_page`` loop and once through ``get_pages_batch`` — and reports
    pages/s for each.  Every backend must return byte-identical pages; there
    is deliberately no speed floor for the disk backends, whose point is
    capacity (out-of-core databases), not speed.
    """
    import contextlib
    import tempfile

    from repro.storage import open_page_store

    rng = random.Random(seed)
    payloads = [
        bytes(rng.randrange(256) for _ in range(rng.randrange(1, page_bytes + 1)))
        for _ in range(num_pages)
    ]
    stream = [rng.randrange(num_pages) for _ in range(reads)]
    expected = None
    results = {}
    with tempfile.TemporaryDirectory(prefix="repro-storebench-") as directory:
        for backend in ("memory", "mmap", "sqlite"):
            with contextlib.closing(
                open_page_store(
                    backend, "bench", page_size=page_bytes, directory=directory
                )
            ) as store:
                append_started = time.perf_counter()
                for payload in payloads:
                    store.append_page(payload)
                store.flush()
                append_s = time.perf_counter() - append_started

                loop_s, loop_pages = _time(lambda: [store.get_page(n) for n in stream])
                batch_s, batch_pages = _time(lambda: store.get_pages_batch(stream))

            assert loop_pages == batch_pages, f"{backend}: batch disagrees with loop"
            if expected is None:
                expected = loop_pages
            assert loop_pages == expected, f"{backend}: pages differ from memory backend"
            results[f"store_{backend}"] = {
                "pages": num_pages,
                "page_bytes": page_bytes,
                "reads": reads,
                "append_pages_per_s": num_pages / append_s,
                "loop_pages_per_s": reads / loop_s,
                "batch_pages_per_s": reads / batch_s,
                "fast_s": batch_s,
                "reference_s": loop_s,
                "speedup": loop_s / batch_s,
            }
    return results


def run_pi_build_microbench(num_nodes=300, seed=1, page_size=256):
    """PI database build time over CI build time on the same network.

    Both builds partition the network and run one Dijkstra tree per border
    node; PI then materialises every passage subgraph into the network
    index.  The ratio of the two (best of three each) largely cancels host
    speed, so it can carry a ceiling where a raw build time could not.
    """
    network = random_planar_network(num_nodes, seed=seed)
    spec = SystemSpec(page_size=page_size)
    ci_s, _ = _time(lambda: ConciseIndexScheme.build(network, spec))
    pi_s, _ = _time(lambda: PassageIndexScheme.build(network, spec))
    return {
        "nodes": num_nodes,
        "seed": seed,
        "page_size": page_size,
        "ci_build_s": ci_s,
        "pi_build_s": pi_s,
        "pi_over_ci": pi_s / ci_s,
    }


def run_cold_client_microbench(num_nodes=600, num_queries=100, seed=1, page_size=256):
    """The client's per-query decode work on cold caches: fast vs. reference.

    For each query of a CI workload on the ``ci_cold_solve`` network, the
    client decodes the downloaded header, routes source and target through
    its split table, decodes every fetched region payload and takes the
    plan's expected adversary view.  The fast side is the flat-struct header
    decoder, the split-table walk, the columnar region decoder on the
    fetched pages and the memoised plan view; the reference side is the
    field-by-field oracle of ``tests/oracles`` (split tree rebuilt per
    query) reading the same regions written in the row format, and a view
    rebuilt per query.  Both must return the same header, routes, nodes and
    view.
    """
    _oracles()
    import client_decode_reference
    from region_rows_reference import encode_region_rows, rows_of

    network = random_planar_network(num_nodes, seed=seed)
    scheme = ConciseIndexScheme.build(network, SystemSpec(page_size=page_size))
    database = scheme.database
    header_bytes = database.header
    header = HeaderInfo.decode(header_bytes)
    row_bytes = {
        region.region_id: encode_region_rows(network, region.node_ids)
        for region in scheme.partitioning.regions()
    }
    fast_queries, reference_queries = [], []
    for source, target in generate_workload(network, num_queries, seed=seed):
        points = [(network.node(node).x, network.node(node).y) for node in (source, target)]
        pair = tuple(header.region_of_point(x, y) for x, y in points)
        lookup_page, slot = header.lookup_page_for(*pair)
        start = read_lookup_entry(database.file(LOOKUP_FILE).read_page(lookup_page), slot)
        index_pages = database.file(INDEX_FILE).read_pages_batch(
            header.index_pages_starting_at(start)
        )
        regions = sorted(set(decode_index_entry(index_pages, pair).regions) | set(pair))
        data_pages = database.file(DATA_FILE).read_pages_batch(
            header.data_pages_for_regions(regions)
        )
        fast_queries.append((points, header.region_payloads(data_pages)))
        # the same regions in the row format, padded to their pages
        region_bytes = page_size * header.data_pages_per_region
        reference_queries.append(
            (points, [[row_bytes[r].ljust(region_bytes, b"\0")] for r in regions])
        )

    def client(queries, decode_header, route, decode_payload, plan_view):
        out = []
        for points, payloads in queries:
            decoded = decode_header(header_bytes)
            out.append(
                (
                    [route(decoded, x, y) for x, y in points],
                    [decode_payload(b"".join(pages)) for pages in payloads],
                    plan_view(scheme.plan),
                )
            )
        return decoded, out

    def run_fast():
        return client(
            fast_queries,
            HeaderInfo.decode,
            HeaderInfo.region_of_point,
            decode_region_payload,
            QueryPlan.expected_adversary_view,
        )

    def run_reference():
        return client(
            reference_queries,
            client_decode_reference.decode_header,
            client_decode_reference.region_of_point,
            client_decode_reference.decode_region_payload,
            QueryPlan._build_adversary_view,
        )

    fast_header, fast_out = run_fast()
    reference_header, reference_out = run_reference()
    assert fast_header == reference_header, "fast header decoder disagrees with the reference"
    for (routes, columns, view), (reference_routes, rows, reference_view) in zip(
        fast_out, reference_out
    ):
        assert routes == reference_routes and view == reference_view, \
            "fast client routing or plan view disagrees with the reference"
        assert [rows_of(region) for region in columns] == rows, \
            "columnar region decode disagrees with the row-format reference"
    # alternate the two sides so a slow phase of a shared host hits both
    fast_s = reference_s = float("inf")
    for _ in range(9):
        fast_s = min(fast_s, _time(run_fast, repeats=1)[0])
        reference_s = min(reference_s, _time(run_reference, repeats=1)[0])
    return {
        "nodes": num_nodes,
        "queries": num_queries,
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s,
    }


def _format(name, result):
    if "pi_over_ci" in result:
        return (
            f"{name}: CI build {result['ci_build_s'] * 1000:.1f} ms, "
            f"PI build {result['pi_build_s'] * 1000:.1f} ms, "
            f"PI/CI {result['pi_over_ci']:.2f}"
        )
    return (
        f"{name}: reference {result['reference_s'] * 1000:.1f} ms, "
        f"fast {result['fast_s'] * 1000:.1f} ms, "
        f"speedup {result['speedup']:.1f}x"
    )


def _run_all():
    dijkstra = run_dijkstra_microbench()
    pir = run_pir_microbench()
    schemes = run_scheme_query_microbench()
    sharded = run_sharded_pir_microbench()
    results = {"dijkstra": dijkstra, "xor_pir": pir}
    results.update({f"batch_{name}": result for name, result in schemes.items()})
    results["sharded_pir"] = sharded
    results["xor_kernel"] = run_xor_kernel_microbench()
    results["xor_kernel_pi"] = run_xor_kernel_pi_microbench()
    results["tiled_fallback"] = run_tiled_fallback_microbench()
    results["pi_build"] = run_pi_build_microbench()
    results["cold_client"] = run_cold_client_microbench()
    results.update(run_store_backend_microbench())
    return results


def test_fastpath_microbench(record_result):
    results = _run_all()
    text = "\n".join(_format(name, result) for name, result in results.items()) + "\n"
    record_result("micro_fastpath", text, data=results)
    # every floored metric (substrate, end-to-end pipelines, sharding, the
    # packed server kernel) is checked through the shared per-metric registry;
    # floors sit well below typically observed speedups, so the gate stays
    # robust on slow/loaded machines — see benchmarks/perf_gate.py
    from perf_gate import check_floors

    violations = check_floors({"micro_fastpath": results})
    assert not violations, "; ".join(violations)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write benchmarks/results/micro_fastpath.json",
    )
    args = parser.parse_args()
    all_results = _run_all()
    for result_name, result in all_results.items():
        print(_format(result_name, result))
    if args.json:
        from conftest import RESULTS_DIR, write_json_result

        RESULTS_DIR.mkdir(exist_ok=True)
        path = write_json_result(RESULTS_DIR, "micro_fastpath", all_results)
        print(f"json written: {path}")
