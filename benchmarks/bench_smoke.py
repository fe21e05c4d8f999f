"""Benchmark smoke target: one tiny figure run under a hard time cap.

Run next to the tier-1 pytest command (see ROADMAP.md) to make performance
regressions fail loudly:

    PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py -q

It regenerates a scaled-down Figure 7 (one dataset, a handful of queries)
through the full pipeline — dataset generation, partitioning, precomputation,
scheme builds, batched query execution and verification — and fails if the
run exceeds the cap.  The cap is deliberately loose (an order of magnitude
above the typical runtime) so only pathological slowdowns trip it.
"""

import time

from repro.bench import fig7_datasets

#: Hard wall-clock cap in seconds; typical runtime is a few seconds.
SMOKE_TIME_CAP_S = 90.0


def test_fig7_smoke_under_time_cap():
    started = time.perf_counter()
    rows = fig7_datasets(datasets=("oldenburg",), num_queries=4)
    elapsed = time.perf_counter() - started

    assert rows, "smoke experiment produced no rows"
    schemes = {row["scheme"] for row in rows}
    assert {"AF", "LM", "CI", "PI"} <= schemes
    assert all(row["response_s"] > 0 for row in rows)
    assert elapsed < SMOKE_TIME_CAP_S, (
        f"benchmark smoke run took {elapsed:.1f}s, cap is {SMOKE_TIME_CAP_S:.0f}s — "
        "a performance regression made the pipeline pathologically slow"
    )


def measure_round_batching(num_queries=8):
    """Requests and kernel calls one CI query costs (the e2e benchmark's CI).

    Counts, not times, each against what the query plan allows: ANSWER
    requests served by two shard servers per (round, file, shard touched),
    and packed-kernel calls in process per (round, file).
    """
    from repro import SystemSpec
    from repro.bench.workloads import generate_workload
    from repro.engine import QueryEngine
    from repro.network import random_planar_network
    from repro.pir import resolve_kernel
    from repro.pir.kernels import PackedDatabase
    from repro.schemes import ConciseIndexScheme
    from repro.serving import ShardCluster

    network = random_planar_network(600, seed=1)
    scheme = ConciseIndexScheme.build(network, SystemSpec(page_size=256))
    pairs = generate_workload(network, num_queries, seed=1)
    kernel = resolve_kernel("auto")
    fetches = [count for round_spec in scheme.plan.rounds for _, count in round_spec.fetches]
    request_bound = sum(min(2, count) for count in fetches)
    data = {"kernel": kernel, "queries": num_queries, "plan_request_bound": request_bound}

    with ShardCluster(scheme.database, num_shards=2, kernel=kernel) as cluster:
        with QueryEngine(scheme, serving=cluster) as engine:
            engine.run_batch(pairs, verify_costs=False)
    # read after the drain; the engine's layout check sent one HELLO per server
    served = sum(stats["requests_served"] for stats in cluster.stats()) - 2
    data["answer_requests_per_query"] = served / num_queries
    data["answer_requests_per_plan_bound"] = served / (num_queries * request_bound)

    if kernel == "numpy":
        calls = []
        answer_rows = PackedDatabase.answer_rows
        PackedDatabase.answer_rows = lambda self, masks: (
            calls.append(len(masks)) or answer_rows(self, masks)
        )
        try:
            with QueryEngine(scheme) as engine:
                engine.run_batch(pairs, verify_costs=False)
        finally:
            PackedDatabase.answer_rows = answer_rows
        data["kernel_calls_per_query"] = len(calls) / num_queries
        data["kernel_calls_per_round_file"] = len(calls) / (num_queries * len(fetches))
    return data


def test_round_batching_counts(record_result):
    """One protocol round costs one request per shard and one kernel call."""
    from perf_gate import check_floors

    data = measure_round_batching()
    record_result(
        "round_batching",
        "\n".join(f"{key}: {value}" for key, value in data.items()) + "\n",
        data=data,
    )
    violations = check_floors({"round_batching": data})
    assert not violations, "; ".join(violations)


def measure_idle_flush(requests=200, num_pages=64, page_size=64):
    """What an idle shard server adds to one retrieval, in units of a HELLO.

    One connection, one request in flight: a single-retrieval ANSWER round
    trip over a HELLO round trip on the same socket.  HELLO never touches
    the flush path, so the ratio is the flush policy plus a two-mask kernel
    call over a store kept small enough that the kernel is not the ratio —
    and it cancels the machine.  A flush that waits on a timer reads >40.
    """
    from statistics import median

    from repro.pir import resolve_kernel
    from repro.pir.sharded import ShardedPageStore
    from repro.serving import ShardConnection, ShardServer, wire
    from repro.storage import Database

    database = Database(page_size)
    page_file = database.create_file("data")
    for index in range(num_pages):
        page_file.new_page().append(bytes([index]) * (page_size // 2))
    store = ShardedPageStore(database, 1, "round-robin")
    kernel = resolve_kernel("auto")
    hello = wire.encode_hello_request()
    answers = [
        wire.encode_answer_request("data", [(index + 1) << 1, (index + 1) << 1 | 1])
        for index in range(requests)
    ]

    def timed(conn, payload):
        started = time.perf_counter()
        conn.request(payload)
        return time.perf_counter() - started

    with ShardServer(store, shard_id=0, kernel=kernel) as server:
        conn = ShardConnection(server.address)
        for payload in answers[:20]:  # pack build, connection, caches
            conn.request(payload)
        before = server.stats()
        hello_rtt = median(timed(conn, hello) for _ in range(requests))
        answer_rtt = median(timed(conn, payload) for payload in answers)
        conn.close()
        after = server.stats()
    return {
        "kernel": kernel,
        "requests": requests,
        "hello_rtt_ms": hello_rtt * 1000.0,
        "answer_rtt_ms": answer_rtt * 1000.0,
        "answer_over_hello_rtt": answer_rtt / hello_rtt,
        "flushes_per_request": (after["flushes"] - before["flushes"]) / requests,
    }


def test_idle_flush_latency(record_result):
    """An idle server answers at once: no flush waits, none is shared."""
    from perf_gate import check_floors

    data = measure_idle_flush()
    record_result(
        "idle_flush",
        "\n".join(f"{key}: {value}" for key, value in data.items()) + "\n",
        data=data,
    )
    violations = check_floors({"idle_flush": data})
    assert not violations, "; ".join(violations)


def test_committed_baselines_meet_metric_floors():
    """The checked-in ``results/*.json`` baselines pass the per-metric gate.

    This trips when a PR commits regressed benchmark numbers (or drops a
    gated metric from a result file) even if the benchmark suite itself was
    not rerun in CI — the failure message names the specific metric.
    """
    from perf_gate import gate_committed_results

    violations = gate_committed_results()
    assert not violations, "; ".join(violations)


if __name__ == "__main__":
    test_fig7_smoke_under_time_cap()
    test_committed_baselines_meet_metric_floors()
    print("smoke ok")
