"""End-to-end benchmark of private shortest-path queries (see README.md).

One workload, as the benchmark driver runs it (last stdout line is the
result object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones)::

    python3 benchmarks/e2e/run.py --workload ci_local --seed 1 --seconds 10 --trace 0

Every workload, untraced then traced, one fresh child process per run::

    python3 benchmarks/e2e/run.py --seed 1 --out results.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
# the driver sets no PYTHONPATH; without the program's source the import
# below fails and the run exits non-zero before printing anything
sys.path.insert(0, str(REPO_ROOT / "src"))

import e2e_workloads as wl  # noqa: E402
from e2e_tracing import ROOT_SPAN, Stage, Tracer, stage_table, summarize  # noqa: E402

Metrics = Dict[str, float]
Pair = Tuple[int, int]
#: Spans that must fire on a workload: a patch point that still resolves but
#: is no longer on the path would otherwise read as a zero metric.
CLIENT_SPANS = ("engine.prepare", "engine.solve", "schemes.round", "schemes.fetch",
                "schemes.pad", "schemes.decode", "schemes.assemble", "schemes.plan_check",
                "network.search", "pir.retrieve")
KERNEL_SPANS = ("pir.mask_draw", "pir.kernel", "pir.rows_to_blocks")
SERVING_SPANS = KERNEL_SPANS + ("pir.kernel_many", "pir.xor_bytes", "serving.encode_request", "serving.decode_request",
                                "serving.encode_answer", "serving.decode_answer")
REQUIRED_SPANS = {
    "ci_local": CLIENT_SPANS + KERNEL_SPANS,
    "pi_local": CLIENT_SPANS + KERNEL_SPANS,
    "ci_cold_solve": CLIENT_SPANS + ("storage.read",),
    "ci_remote": CLIENT_SPANS + SERVING_SPANS + ("serving.request",),
    "retrieval_openloop": SERVING_SPANS,
}
MAX_UNATTRIBUTED_SHARE = 0.10


def p50_p90_ms(samples_s: List[float]) -> Tuple[float, float]:
    ordered = sorted(samples_s)
    return wl.percentile(ordered, 0.50) * 1000.0, wl.percentile(ordered, 0.90) * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# one workload, untraced: the end-to-end metrics
# ---------------------------------------------------------------------- #
def measure_end_to_end(
    rig: wl.Rig, pairs: List[Pair], seed: int, seconds: float
) -> Tuple[Metrics, int, int]:
    """``(metrics, attempted, failed)`` of the untraced measured pass."""
    if rig.engine is None:
        at_rung, overload = (
            wl.run_rung(rig, rate, share * seconds, seed)
            for rate, share in (wl.LATENCY_RUNG, wl.CAPACITY_RUNG)
        )
        p50, p90 = p50_p90_ms(at_rung.latencies_s)
        metrics = {
            # capacity: what the servers achieved under overload, never the offered rate
            "throughput_per_s": overload.service_rate_per_s,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
        }
        attempted = at_rung.arrivals + overload.arrivals
        failed = wl.rung_failures(at_rung) + wl.rung_failures(overload)
    else:
        prints = (
            wl.local_fingerprints(rig, pairs[: wl.FINGERPRINT_QUERIES])
            if rig.workload.remote
            else ()
        )
        run = wl.run_queries(rig, pairs, seconds, fingerprints=prints)
        p50, p90 = p50_p90_ms(run.walls_s)
        metrics = {
            "throughput_per_s": len(run.walls_s) / sum(run.walls_s) if run.walls_s else 0.0,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
        }
        attempted, failed = run.attempted, run.failed
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, attempted, failed


# ---------------------------------------------------------------------- #
# one workload, traced: the per-layer metrics
# ---------------------------------------------------------------------- #
def measure_per_layer(
    rig: wl.Rig, pairs: List[Pair], seed: int, seconds: float, spans_out: Optional[str]
) -> Tuple[Metrics, int, int, str]:
    """``(metrics, attempted, failed, stage table)`` of the traced pass.

    Part of ``seconds`` runs untraced first, as the reference the tracing
    overhead is read against.
    """
    tracer = Tracer()
    extra: Metrics = {}
    if rig.engine is None:
        # untraced: the whole ladder, for the highest rate within the limit
        ladder = [wl.run_rung(rig, rate, seconds / 8, seed) for rate in wl.LADDER]
        reference = next(r for r in ladder if r.offered_rate == wl.LATENCY_RUNG[0])
        stats_before = cluster_stats(rig)
        started = time.perf_counter()
        with tracer.installed():
            reports = [
                wl.run_rung(rig, rate, share * seconds / 2, seed)
                for rate, share in (wl.LATENCY_RUNG, wl.CAPACITY_RUNG)
            ]
        traced_wall = time.perf_counter() - started
        untraced_p50, traced_p50 = (
            wl.percentile(r.latencies_s, 0.5) for r in (reference, reports[0])
        )
        operations = sum(r.completed for r in reports)
        attempted = sum(r.arrivals for r in ladder + reports)
        failed = sum(wl.rung_failures(r) for r in ladder + reports)
        passing = [r.offered_rate for r in ladder if wl.within_limit(r)]
        extra["serving.max_rate_within_limit_per_s"] = max(passing, default=0.0)
        extra["serving.retrieval_p99_ms"] = wl.percentile(reference.latencies_s, 0.99) * 1000.0
    else:
        reference_run = wl.run_queries(rig, pairs, seconds / 4)
        stats_before = cluster_stats(rig)
        started = time.perf_counter()
        with tracer.installed():
            run = wl.run_queries(rig, pairs, 3 * seconds / 4, tracer=tracer)
        traced_wall = time.perf_counter() - started
        untraced_p50, traced_p50 = (
            statistics.median(r.walls_s) for r in (reference_run, run)
        )
        operations = run.attempted
        attempted = run.attempted + reference_run.attempted
        failed = run.failed + reference_run.failed
        extra["engine.cache_hit_rate"] = run.cache_hit_rate
        extra["costmodel.sim_response_s"] = run.sim_response_s
    if spans_out:
        tracer.write(spans_out)

    query, server = summarize(tracer.spans)
    # the open loop has no per-query root span: its client spans carry no query id
    stages = _merged(query, server)
    missing = [name for name in REQUIRED_SPANS[rig.workload.name] if name not in stages]
    if missing:
        raise RuntimeError(f"spans never fired on {rig.workload.name}: {', '.join(missing)}")

    metrics = layer_metrics(stages, server, tracer.spans, operations, traced_wall)
    metrics.update(extra)
    metrics["trace_overhead_share"] = traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0
    metrics["pir.pack_bytes"] = float(rig.pack_bytes)
    metrics["storage.db_bytes"] = float(rig.scheme.database.total_size_bytes)
    metrics.update(serving_stats(stats_before, cluster_stats(rig)))
    table = stage_table(query, server, operations) if query else ""
    if query and metrics["engine.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        raise RuntimeError(
            f"{metrics['engine.unattributed_share']:.1%} of the traced query wall on "
            f"{rig.workload.name} is in no named layer span (limit "
            f"{MAX_UNATTRIBUTED_SHARE:.0%})\n{table}"
        )
    return metrics, attempted, failed, table


def _merged(query: Dict[str, Stage], server: Dict[str, Stage]) -> Dict[str, Stage]:
    merged = dict(query)
    for name, stage in server.items():
        mine = merged.get(name, Stage(0, 0.0, 0.0, 0))
        merged[name] = Stage(*(a + b for a, b in zip(mine, stage)))
    return merged


def layer_metrics(
    stages: Dict[str, Stage],
    server: Dict[str, Stage],
    spans: List[tuple],
    operations: int,
    traced_wall_s: float,
) -> Metrics:
    """Per-layer metrics from the spans; times are ms per query (or retrieval)."""
    none = Stage(0, 0.0, 0.0, 0)

    def stage(name: str) -> Stage:
        return stages.get(name, none)

    def self_ms(*names: str) -> float:
        return sum(stage(name).self_s for name in names) * 1000.0 / operations

    def total_ms(name: str) -> float:
        return stage(name).total_s * 1000.0 / operations

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    root, fetch, kernel = stage(ROOT_SPAN), stage("schemes.fetch"), stage("pir.kernel")
    request = stage("serving.request")
    rtts = sorted(end - start for name, start, end, *_ in spans if name == "serving.request")
    # what the shard servers' threads spent working: codec plus kernel calls
    server_busy_s = sum(
        server.get(name, none).self_s
        for name in ("serving.decode_request", "serving.encode_answer", "pir.kernel_many",
                     "pir.kernel", "pir.rows_to_blocks")
    )
    return {
        "engine.prepare_ms": total_ms("engine.prepare"),
        "engine.solve_ms": total_ms("engine.solve"),
        "engine.unattributed_share": ratio(root.self_s, root.total_s),
        "schemes.retrievals_per_query": ratio(fetch.count, operations),
        "schemes.rounds_per_query": ratio(stage("schemes.round").calls, operations),
        "schemes.fetch_calls_per_query": ratio(fetch.calls, operations),
        "schemes.decode_ms": self_ms("schemes.decode"),
        "schemes.assemble_ms": self_ms("schemes.assemble"),
        "schemes.plan_check_ms": self_ms("schemes.plan_check"),
        "network.search_ms": self_ms("network.search"),
        "pir.retrieve_ms": total_ms("pir.retrieve"),
        "pir.overhead_ms": self_ms("pir.retrieve"),
        "pir.mask_draw_ms": self_ms("pir.mask_draw"),
        "pir.xor_combine_ms": self_ms("pir.rows_to_blocks", "pir.xor_bytes"),
        "pir.kernel_ms": total_ms("pir.kernel"),
        "pir.kernel_us_per_mask": ratio(kernel.total_s * 1e6, kernel.count),
        "pir.kernel_calls_per_query": ratio(kernel.calls, operations),
        "pir.kernel_masks_per_call": ratio(kernel.count, kernel.calls),
        "storage.read_ms": self_ms("storage.read"),
        "storage.pages_read_per_query": ratio(stage("storage.read").count, operations),
        "serving.requests_per_query": ratio(request.calls, operations),
        "serving.rtt_ms": wl.percentile(rtts, 0.5) * 1000.0,
        "serving.wait_share": 1.0 - ratio(server_busy_s, request.total_s) if request.calls else 0.0,
        "serving.server_busy_share": ratio(server_busy_s, traced_wall_s * wl.NUM_SHARDS),
        "serving.wire_encode_ms": self_ms("serving.encode_request", "serving.encode_answer"),
        "serving.wire_decode_ms": self_ms("serving.decode_request", "serving.decode_answer"),
        "serving.bytes_up_per_query": ratio(stage("serving.encode_request").count, operations),
        "serving.bytes_down_per_query": ratio(stage("serving.encode_answer").count, operations),
        # filled in by the caller where the workload has them
        "engine.cache_hit_rate": 0.0,
        "costmodel.sim_response_s": 0.0,
        "serving.max_rate_within_limit_per_s": 0.0,
        "serving.retrieval_p99_ms": 0.0,
    }


def cluster_stats(rig: wl.Rig) -> List[Dict[str, int]]:
    return rig.cluster.stats() if rig.cluster is not None else []


def serving_stats(before: List[Dict[str, int]], after: List[Dict[str, int]]) -> Metrics:
    """``ShardCluster.stats()`` over the traced pass, summed over the servers."""
    def delta(key: str) -> int:
        return sum(a[key] - b[key] for a, b in zip(after, before))

    flushes = delta("flushes")
    return {
        "serving.masks_per_flush": delta("masks_answered") / flushes if flushes else 0.0,
        # a running maximum, so it also covers the warm-up and the untraced pass
        "serving.largest_flush": float(max((s["largest_flush"] for s in after), default=0)),
        "serving.kernel_subcalls": float(delta("kernel_subcalls")),
        "serving.busy_rejections": float(delta("busy_rejections")),
    }


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = wl.WORKLOADS[args.workload]
    rig, timings = wl.set_up(workload, args.nodes)
    try:
        # the program's only inputs: the query pairs, or the arrival schedule's seed
        pairs = (
            wl.generate_workload(rig.network, wl.PAIR_POOL, seed=args.seed)
            if rig.engine is not None
            else []
        )
        inputs = hashlib.sha1(repr(pairs or args.seed).encode()).hexdigest()
        if args.trace:
            metrics, attempted, failed, table = measure_per_layer(
                rig, pairs, args.seed, args.seconds, args.spans_out
            )
            for key in ("pir.pack_build_s", "serving.boot_s", "schemes.build_s", "network.generate_s"):
                metrics[key] = timings[key]
        else:
            metrics, attempted, failed = measure_end_to_end(rig, pairs, args.seed, args.seconds)
            metrics["setup_s"] = timings["setup_s"]
            table = ""
    finally:
        rig.close()

    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(declared))}"
        )
    correct = failed == 0 and attempted > 0
    print(f"workload {workload.name}: {workload.loop}; seed {args.seed}, "
          f"{args.seconds:g} s measured, {attempted} attempted, {failed} failed")
    print(f"inputs {inputs} ({len(pairs)} query pairs)" if pairs else f"inputs {inputs} (arrival seed)")
    for name in sorted(metrics):
        print(f"  {name:<40}{metrics[name]:>16.6g} {declared[name]}")
    if table:
        print(table)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh child process, untraced then traced."""
    results: Dict[str, Any] = {}
    status = 0
    for name in wl.WORKLOADS:
        entry: Dict[str, Any] = {"attempted": 0, "failed": 0, "correct": True}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--nodes", str(args.nodes), "--trace", str(trace),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                print(f"{name} --trace {trace} exited with code {child.returncode}", file=sys.stderr)
                entry["correct"] = False
                status = 1
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):  # died before printing a result
                continue
            entry[key] = result["metrics"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["correct"] = entry["correct"] and result["correct"]
        results[name] = entry
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"seed": args.seed, "seconds": args.seconds, "nodes": args.nodes,
                 "workloads": results},
                indent=2,
            ) + "\n",
            encoding="utf-8",
        )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run this one workload in process (default: all, in child processes)")
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the query pairs and the arrival schedule")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=wl.DEFAULT_NODES,
                        help="road-network size (the smoke test shrinks it)")
    parser.add_argument("--out", help="write every workload's metrics here (all-workloads mode)")
    parser.add_argument("--spans-out", help="write the raw spans of a traced run here, one JSON per line")
    args = parser.parse_args(argv)
    return run_workload(args, spec) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
