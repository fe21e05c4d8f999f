"""Command-line interface for the reproduction.

A small front end over the public API so the system can be exercised without
writing Python:

* ``repro-spc datasets`` — list the Table 1 dataset registry and its
  quick-profile stand-ins;
* ``repro-spc generate`` — write a seeded synthetic road network to a text
  file;
* ``repro-spc build`` — build one of the schemes on a dataset or network file,
  print its size/plan statistics, and optionally persist the LBS database to
  a directory;
* ``repro-spc query`` — build a scheme and answer one private shortest-path
  query, printing the path, the response-time decomposition and what the LBS
  observed;
* ``repro-spc batch`` — build a scheme and push a whole query workload
  through the batched :class:`~repro.engine.QueryEngine`, printing
  throughput, verification and page-cache statistics;
* ``repro-spc experiment`` — run one of the paper's table/figure experiments
  (or an extension ablation) and print the same rows the benchmark suite
  records;
* ``repro-spc serve`` — build a scheme and boot one asyncio PIR shard server
  per shard on loopback, printing the addresses clients connect to;
* ``repro-spc loadgen`` — boot a shard cluster and drive it with the
  open-loop load generator, printing sustained throughput and tail latency
  (optionally cross-checking engine results against in-process serving).

The module exposes :func:`main` taking an ``argv`` list so tests can drive it
without spawning processes.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from . import __version__
from .bench import (
    DATASETS,
    ablation_approximate,
    ablation_oram_mechanism,
    ablation_region_compression,
    fig5_lm_tuning,
    fig6_obfuscation,
    fig7_datasets,
    fig8_packing,
    fig9_compression,
    fig10_hybrid,
    fig11_clustered,
    fig12_larger,
    format_table,
    generate_workload,
    load_dataset,
    section4_full_materialization,
    system_spec_for,
    table1_datasets,
    table2_system,
    table3_components,
)
from .costmodel import SystemSpec
from .engine import QueryEngine
from .network import random_planar_network, read_network, write_network
from .privacy import adversary_transcript
from .schemes import (
    ApproximatePassageIndexScheme,
    ClusteredPassageIndexScheme,
    ConciseIndexScheme,
    PassageIndexScheme,
)
from .storage import STORE_BACKENDS, save_database, store_backend_scope

#: Scheme name → builder accepting ``(network, spec, **cli_options)``.
_SCHEME_BUILDERS: Dict[str, Callable] = {
    "CI": lambda network, spec, **options: ConciseIndexScheme.build(network, spec=spec),
    "PI": lambda network, spec, **options: PassageIndexScheme.build(network, spec=spec),
    "PI*": lambda network, spec, **options: ClusteredPassageIndexScheme.build(
        network, spec=spec, cluster_pages=options.get("cluster_pages", 2)
    ),
    "APX": lambda network, spec, **options: ApproximatePassageIndexScheme.build(
        network, spec=spec, epsilon=options.get("epsilon", 0.1)
    ),
}

#: Experiment name → zero-argument callable returning report rows.
_EXPERIMENTS: Dict[str, Callable[[], List[dict]]] = {
    "table1": table1_datasets,
    "table2": table2_system,
    "table3": table3_components,
    "fig5": fig5_lm_tuning,
    "fig6": fig6_obfuscation,
    "fig7": fig7_datasets,
    "fig8": fig8_packing,
    "fig9": fig9_compression,
    "fig10": fig10_hybrid,
    "fig11": fig11_clustered,
    "fig12": fig12_larger,
    "section4": section4_full_materialization,
    "ablation-approximate": ablation_approximate,
    "ablation-compression": ablation_region_compression,
    "ablation-oram": ablation_oram_mechanism,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spc",
        description="Private shortest-path computation (VLDB 2012 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the Table 1 dataset registry")

    generate = commands.add_parser("generate", help="write a synthetic road network")
    generate.add_argument("--nodes", type=int, default=600, help="number of nodes")
    generate.add_argument("--seed", type=int, default=1, help="random seed")
    generate.add_argument("--output", required=True, help="output network file")

    build = commands.add_parser("build", help="build a scheme and report its statistics")
    _add_scheme_arguments(build)
    build.add_argument("--save", help="directory to persist the LBS database into")

    query = commands.add_parser("query", help="answer one private shortest-path query")
    _add_scheme_arguments(query)
    query.add_argument("--source", type=int, help="source node id (default: random)")
    query.add_argument("--target", type=int, help="target node id (default: random)")
    query.add_argument("--show-view", action="store_true", help="print the adversary view")

    batch = commands.add_parser(
        "batch", help="run a query workload through the batched query engine"
    )
    _add_scheme_arguments(batch)
    batch.add_argument("--queries", type=int, default=20, help="workload size")
    batch.add_argument("--seed", type=int, default=42, help="workload seed")
    batch.add_argument(
        "--cache-entries",
        type=int,
        default=512,
        help="page-cache capacity in decoded pages (0 disables caching, e.g. "
        "for measurement runs)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads to shard the batch across (results are identical "
        "to serial execution; pays on PI, loses on CI, whose solve is GIL-bound)",
    )
    batch.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the PIR page store across this many independent "
        "sub-databases; every worker context owns its own shard "
        "connections (results are identical for any shard count)",
    )
    batch.add_argument(
        "--pir-kernel",
        choices=("default", "off", "auto", "numpy", "bigint"),
        default="default",
        help="serve every PIR read through a real two-server XOR retrieval "
        "over the named packed server kernel; default picks numpy when "
        "numpy is importable and falls back to direct page reads "
        "otherwise, auto always picks the best available kernel, off "
        "forces direct reads — results are identical either way",
    )
    batch.add_argument(
        "--no-verify", action="store_true", help="skip true-cost verification"
    )

    experiment = commands.add_parser("experiment", help="run one table/figure experiment")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS), help="experiment to run")

    serve = commands.add_parser(
        "serve", help="boot PIR shard servers for a scheme's database"
    )
    _add_scheme_arguments(serve)
    _add_cluster_arguments(serve)
    serve.add_argument(
        "--run-seconds",
        type=float,
        default=None,
        help="serve for this long then drain and exit (default: serve until "
        "interrupted)",
    )

    loadgen = commands.add_parser(
        "loadgen", help="drive a shard cluster with the open-loop load generator"
    )
    _add_scheme_arguments(loadgen)
    _add_cluster_arguments(loadgen)
    loadgen.add_argument("--rate", type=float, default=500.0,
                         help="offered arrivals per second (open loop)")
    loadgen.add_argument("--duration", type=float, default=2.0,
                         help="run length in seconds")
    loadgen.add_argument("--warmup", type=float, default=0.5,
                         help="seconds excluded from the measurement window")
    loadgen.add_argument("--connections", type=int, default=16,
                         help="client connections across all shards")
    loadgen.add_argument(
        "--client-procs",
        type=int,
        default=1,
        help="fork this many client processes, each offering its share of "
        "--rate on its own connections, so measured throughput is not "
        "capped by one client's GIL; reports aggregated p50/p99",
    )
    loadgen.add_argument("--seed", type=int, default=17, help="workload seed")
    loadgen.add_argument(
        "--no-verify",
        action="store_true",
        help="skip per-retrieval verification of the returned page bytes",
    )
    loadgen.add_argument(
        "--check-engine",
        action="store_true",
        help="also run one engine batch against the cluster and require "
        "bit-identical results to in-process serving (exit 1 on mismatch)",
    )

    return parser


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=2,
        help="shard servers to boot (one per database shard)",
    )
    parser.add_argument(
        "--kernel",
        choices=("auto", "numpy", "bigint"),
        default="auto",
        help="packed XOR server kernel the shard servers answer with "
        "(auto picks numpy when available)",
    )


def _add_scheme_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=sorted(DATASETS), help="Table 1 stand-in dataset")
    source.add_argument("--network", help="road-network text file (see `generate`)")
    parser.add_argument(
        "--scheme", choices=sorted(_SCHEME_BUILDERS), default="CI", help="scheme to build"
    )
    parser.add_argument("--page-size", type=int, default=None, help="page size in bytes")
    parser.add_argument("--epsilon", type=float, default=0.1, help="APX deviation budget")
    parser.add_argument("--cluster-pages", type=int, default=2, help="PI* pages per region")
    parser.add_argument(
        "--store",
        choices=STORE_BACKENDS,
        default=None,
        help="page-store backend the database is built on: memory (default), "
        "mmap or sqlite (out-of-core; the build streams pages to disk)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="directory for the mmap/sqlite store files (default: a "
        "self-cleaning temporary directory)",
    )


def _load_network_and_spec(args: argparse.Namespace):
    if args.dataset:
        network = load_dataset(args.dataset)
        spec = system_spec_for("quick")
    else:
        network = read_network(args.network)
        spec = SystemSpec(page_size=512)
    if args.page_size:
        spec = spec.with_overrides(page_size=args.page_size)
    return network, spec


def _build_scheme(args: argparse.Namespace):
    network, spec = _load_network_and_spec(args)
    builder = _SCHEME_BUILDERS[args.scheme]
    if getattr(args, "store", None):
        # scope (rather than kwargs) so every builder — including the ones
        # without explicit store parameters — streams onto the backend
        with store_backend_scope(args.store, args.store_dir):
            return builder(
                network, spec=spec, epsilon=args.epsilon,
                cluster_pages=args.cluster_pages,
            )
    return builder(
        network, spec=spec, epsilon=args.epsilon, cluster_pages=args.cluster_pages
    )


def _command_datasets(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "label": spec.label,
            "paper_nodes": spec.paper_nodes,
            "paper_edges": spec.paper_edges,
            "quick_nodes": spec.quick_nodes,
        }
        for spec in DATASETS.values()
    ]
    print(format_table(rows, "Table 1 dataset registry"))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    network = random_planar_network(args.nodes, seed=args.seed)
    write_network(network, args.output)
    print(
        f"wrote {network.num_nodes} nodes / {network.num_edges} directed edges "
        f"to {args.output}"
    )
    return 0


def _command_build(args: argparse.Namespace) -> int:
    scheme = _build_scheme(args)
    print(f"scheme        : {scheme.name}")
    print(f"regions       : {scheme.partitioning.num_regions}")
    print(f"database      : {scheme.storage_mb:.3f} MB")
    print(f"query plan    : {scheme.plan.num_rounds} rounds, "
          f"{scheme.plan.total_pir_pages()} PIR pages per query")
    if scheme.database.store_backend != "memory":
        print(f"page store    : {scheme.database.store_backend} "
              f"({scheme.database.store_dir})")
    for name in sorted(scheme.database.file_names()):
        page_file = scheme.database.file(name)
        print(f"  file {name:<8}: {page_file.num_pages} pages "
              f"({page_file.utilization * 100:.1f}% utilised)")
    if args.save:
        manifest = save_database(scheme.database, args.save)
        print(f"database saved: {manifest}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    scheme = _build_scheme(args)
    if args.source is None or args.target is None:
        source, target = generate_workload(scheme.network, count=1, seed=11)[0]
    else:
        source, target = args.source, args.target
    result = scheme.query(source, target)
    print(f"query         : {source} -> {target}  ({scheme.name})")
    print(f"path cost     : {result.path.cost:.3f}  ({result.path.num_edges} edges)")
    print(f"path nodes    : {' '.join(str(node) for node in result.path.nodes[:12])}"
          f"{' ...' if len(result.path.nodes) > 12 else ''}")
    response = result.response
    print(f"response time : {response.total_s:.2f} s  "
          f"(PIR {response.pir_s:.2f} s, link {response.communication_s:.2f} s, "
          f"client {response.client_s:.4f} s)")
    print(f"PIR accesses  : {result.pages_per_file}")
    if args.show_view:
        for round_number, kind, file_name in adversary_transcript(result.adversary_view):
            label = file_name if file_name else "(header)"
            print(f"  round {round_number}: {kind:<6} {label}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    if args.queries <= 0:
        print(f"error: --queries must be positive, got {args.queries}", file=sys.stderr)
        return 2
    if args.cache_entries < 0:
        print(
            f"error: --cache-entries must be non-negative, got {args.cache_entries} "
            "(0 disables caching)",
            file=sys.stderr,
        )
        return 2
    if args.workers <= 0:
        print(f"error: --workers must be positive, got {args.workers}", file=sys.stderr)
        return 2
    if args.shards <= 0:
        print(f"error: --shards must be positive, got {args.shards}", file=sys.stderr)
        return 2
    scheme = _build_scheme(args)
    pairs = generate_workload(scheme.network, count=args.queries, seed=args.seed)
    engine = QueryEngine(
        scheme,
        cache_entries=args.cache_entries,
        shards=args.shards,
        pir_kernel=args.pir_kernel,
    )
    batch = engine.run_batch(
        pairs,
        verify_costs=not args.no_verify,
        workers=args.workers,
    )
    print(f"scheme          : {scheme.name}")
    print(f"queries         : {batch.num_queries}")
    print(f"workers         : {batch.workers}")
    if batch.shards > 1:
        print(f"pir shards      : {batch.shards}")
    if batch.store_backend != "memory":
        print(f"page store      : {batch.store_backend}")
    if batch.pir_kernel is not None:
        print(f"xor kernel      : {batch.pir_kernel}")
    print(f"wall time       : {batch.wall_seconds:.3f} s "
          f"({batch.queries_per_second:.1f} queries/s)")
    print(f"mean response   : {batch.mean_response_s:.2f} s (simulated)")
    if batch.true_costs is not None:
        print(f"costs correct   : {batch.all_costs_correct}")
    print(f"indistinguishable: {batch.indistinguishable}")
    print(f"page cache      : {batch.cache_hits} hits / {batch.cache_misses} misses "
          f"({batch.cache_hit_rate * 100:.1f}% hit rate)")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    rows = _EXPERIMENTS[args.name]()
    print(format_table(rows, f"experiment: {args.name}"))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.shards <= 0:
        print(f"error: --shards must be positive, got {args.shards}", file=sys.stderr)
        return 2
    from .serving import ShardCluster

    scheme = _build_scheme(args)
    with ShardCluster(
        scheme.database, num_shards=args.shards, kernel=args.kernel
    ) as cluster:
        print(f"scheme        : {scheme.name}")
        print(f"serving       : {args.shards} shard server(s), "
              f"kernel {cluster.servers[0].kernel}")
        for shard_id, (host, port) in enumerate(cluster.addresses):
            print(f"  shard {shard_id}: {host}:{port}")
        try:
            if args.run_seconds is not None:
                time.sleep(args.run_seconds)
            else:  # pragma: no cover - interactive mode
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
        print("draining and shutting down")
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    if args.shards <= 0:
        print(f"error: --shards must be positive, got {args.shards}", file=sys.stderr)
        return 2
    if args.rate <= 0 or args.duration <= 0 or args.warmup < 0:
        print("error: --rate/--duration must be positive and --warmup "
              "non-negative", file=sys.stderr)
        return 2
    if args.warmup >= args.duration:
        print("error: --warmup must be shorter than --duration", file=sys.stderr)
        return 2
    if args.client_procs <= 0:
        print(f"error: --client-procs must be positive, got {args.client_procs}",
              file=sys.stderr)
        return 2
    from .serving import ShardCluster, run_loadgen_multiproc

    scheme = _build_scheme(args)
    with ShardCluster(
        scheme.database, num_shards=args.shards, kernel=args.kernel
    ) as cluster:
        report = run_loadgen_multiproc(
            cluster.addresses,
            scheme.database,
            rate=args.rate,
            duration_s=args.duration,
            warmup_s=args.warmup,
            connections=args.connections,
            seed=args.seed,
            verify=not args.no_verify,
            client_procs=args.client_procs,
        )
        report.shard_stats = cluster.stats()
        print(f"scheme        : {scheme.name}")
        print(f"file          : {report.file_name}")
        for line in report.summary_lines():
            print(line)
        if report.mismatches or report.errors:
            print("error: the load run returned wrong bytes or server errors",
                  file=sys.stderr)
            return 1
        if args.check_engine:
            pairs = generate_workload(scheme.network, count=8, seed=args.seed)
            baseline = QueryEngine(scheme).run_batch(pairs, verify_costs=False)
            with QueryEngine(scheme, serving=cluster) as engine:
                remote = engine.run_batch(pairs, verify_costs=False)
            fingerprint = lambda batch: [
                (result.path.nodes, result.path.cost, result.trace.adversary_view())
                for result in batch.results
            ]
            if fingerprint(remote) != fingerprint(baseline):
                print("error: remote engine batch differs from in-process "
                      "serving", file=sys.stderr)
                return 1
            print("engine check  : remote results bit-identical to in-process")
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "datasets": _command_datasets,
    "generate": _command_generate,
    "build": _command_build,
    "query": _command_query,
    "batch": _command_batch,
    "experiment": _command_experiment,
    "serve": _command_serve,
    "loadgen": _command_loadgen,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
