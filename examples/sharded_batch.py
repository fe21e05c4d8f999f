"""Sharded PIR databases and process workers under the batch engine.

The engine scales along three independent axes, none of which changes query
results, traces or what the adversary observes:

* ``QueryEngine(shards=S)`` splits the PIR page store across ``S``
  independent sub-databases; every worker context owns its own shard
  connections (``repro-spc batch --shards S``);
* ``run_batch(workers=N)`` shards the batch across ``N`` worker contexts
  (``--workers N``);
* ``run_batch(worker_mode="process")`` ships the CPU-bound decode/assembly/
  search phase to a process pool (``--worker-mode process``).

This demo runs the same workload serial, sharded+threaded and
sharded+process, shows the results are identical, and then serves the
batch's PIR request stream through the unsharded and the 4-shard XOR-serving
simulators to show where the throughput comes from: each retrieval only costs
XOR work in the owning shard's slice of the file, not the whole file.

Run with: ``PYTHONPATH=src python examples/sharded_batch.py``
"""

import time
from itertools import groupby
from operator import itemgetter

from repro.bench.workloads import generate_hotspot_workload
from repro.costmodel import SystemSpec
from repro.engine import QueryEngine
from repro.network import random_planar_network
from repro.pir import ShardedPirSimulator, UsablePirSimulator
from repro.schemes import ConciseIndexScheme


def main() -> None:
    network = random_planar_network(400, seed=7)
    scheme = ConciseIndexScheme.build(network, spec=SystemSpec(page_size=256))
    pairs = generate_hotspot_workload(network, count=24, seed=7)

    print("== one batch, three execution plans ==")
    serial = QueryEngine(scheme).run_batch(pairs, verify_costs=False, pipeline=False)
    sharded = QueryEngine(scheme, shards=4).run_batch(pairs, verify_costs=False, workers=2)
    process = QueryEngine(scheme, shards=4).run_batch(
        pairs, verify_costs=False, workers=2, worker_mode="process"
    )
    for label, batch in (("serial", serial), ("4 shards x 2 threads", sharded),
                         ("4 shards x 2 processes", process)):
        print(f"  {label:<24}: {batch.num_queries} queries, "
              f"indistinguishable={batch.indistinguishable}")
    identical = all(
        a.path.nodes == b.path.nodes == c.path.nodes
        and a.adversary_view == b.adversary_view == c.adversary_view
        for a, b, c in zip(serial.results, sharded.results, process.results)
    )
    print(f"  results bit-identical across all plans: {identical}")

    print("\n== why sharding pays: the PIR serving bill ==")
    database = scheme.database
    stream = [
        (file_name, page)
        for result in serial.results
        for _, file_name, page in result.trace.private_page_requests()
    ][:128]
    # one batched read per run of consecutive requests against one file
    runs = [
        (file_name, [page for _, page in group])
        for file_name, group in groupby(stream, key=itemgetter(0))
    ]
    expected = [database.file(file_name).read_page(page) for file_name, page in stream]

    def serve(simulator):
        return [
            block
            for file_name, pages in runs
            for block in simulator.retrieve_pages(file_name, pages)
        ]

    def timed(simulator):
        assert serve(simulator) == expected  # also packs every file up front
        started = time.perf_counter()
        serve(simulator)
        return time.perf_counter() - started

    # the big-int server kernel on both sides: XOR work linear in the database
    # each retrieval reads, which is what sharding divides
    mono_s = timed(UsablePirSimulator(database, spec=scheme.spec, xor_kernel="bigint"))
    split_s = timed(
        ShardedPirSimulator(database, spec=scheme.spec, num_shards=4, xor_kernel="bigint")
    )
    total_pages = sum(database.file(name).num_pages for name in database.file_names())
    print(f"  database: {total_pages} pages; replayed {len(stream)} retrievals "
          "of the batch's private request stream")
    print(f"  monolithic database : {len(stream) / mono_s:8.0f} retrievals/s")
    print(f"  4 independent shards: {len(stream) / split_s:8.0f} retrievals/s "
          f"({mono_s / split_s:.1f}x)")
    print("\n  (the adversary additionally learns which shard each retrieval "
          "touched;\n   within a shard the PIR guarantee is unchanged)")


if __name__ == "__main__":
    main()
