"""Per-metric performance regression gate over the committed benchmark results.

``METRIC_FLOORS`` is the single registry of speedup floors the repository
promises; :func:`check_floors` evaluates a result set against it and returns
one violation string per failed metric — naming the benchmark, the metric
path and both the measured value and its floor, so CI output says *which*
metric regressed rather than just that something did.

Two call sites use the registry:

* ``bench_micro_fastpath.py`` gates the fresh numbers it just measured;
* ``bench_smoke.py`` (and the CI workflow, via ``python benchmarks/
  perf_gate.py``) re-checks the *committed* ``benchmarks/results/*.json``
  baselines — a PR that commits regressed baselines fails even when the
  benchmark suite itself was not rerun.

Floors are deliberately far below typically observed values so the gate only
trips on real regressions, not machine noise.  Conditional floors (the packed
XOR kernel exists only where numpy does) are expressed with ``when``: a
(path, value) equality guard on the same benchmark's data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RESULTS_DIR = Path(__file__).parent / "results"


class MetricFloor:
    """A bound on one dotted metric path of one benchmark's data.

    A lower bound by default; ``at_most=True`` turns it into a ceiling, for
    counts of work (requests, kernel calls) that must not grow.
    """

    def __init__(
        self,
        path: str,
        floor: float,
        when: Optional[Tuple[str, object]] = None,
        at_most: bool = False,
    ):
        self.path = path
        self.floor = floor
        #: Optional (path, value) guard: the floor applies only when the
        #: benchmark's data carries that value (e.g. the numpy kernel ran).
        self.when = when
        self.at_most = at_most


#: benchmark name (== results/<name>.json) -> floors over its ``data``.
METRIC_FLOORS: Dict[str, List[MetricFloor]] = {
    "micro_fastpath": [
        MetricFloor("dijkstra.speedup", 3.0),
        MetricFloor("xor_pir.speedup", 3.0),
        MetricFloor("batch_CI.speedup", 2.0),
        MetricFloor("batch_PI.speedup", 2.0),
        MetricFloor("sharded_pir.speedup", 1.5),
        # the vectorized server kernel: >=10x over the big-int fold at the
        # largest batch of the curve, wherever numpy exists to build it
        MetricFloor("xor_kernel.speedup", 10.0, when=("xor_kernel.kernel", "numpy")),
        # a PI-shaped pack (35k blocks, 36 MB of 4-bit tables): a batch must
        # never cost more per mask than a single mask — per-mask time at
        # batch 18 over the batch-1 time.  Walking the tables once per batch
        # reads ~0.7; a kernel that walks them once per mask reads ~1.5
        MetricFloor(
            "xor_kernel_pi.batch_penalty",
            1.0,
            when=("xor_kernel_pi.kernel", "numpy"),
            at_most=True,
        ),
        # beyond the table budget: the tiled GF(2) product must beat the
        # per-mask row gather >=3x at the largest (serving-sized) batch
        MetricFloor(
            "tiled_fallback.speedup", 3.0, when=("tiled_fallback.kernel", "numpy")
        ),
        # the PI database build over the CI build on one 300-node network:
        # arithmetic fragment sizing and one walk per border tree read ~1.35;
        # re-encoding every growing fragment per element read ~7.3
        MetricFloor("pi_build.pi_over_ci", 4.0, at_most=True),
        # the cold client path (kernel and decode cache off): header decode,
        # both split-table routings, the region payload decodes and the plan
        # view of 600-node CI queries, against the field-by-field decoders of
        # tests/oracles with the split tree rebuilt and the view re-derived
        # per query; the flat-struct decoders read ~2.4-3x
        MetricFloor("cold_client.speedup", 2.0),
    ],
    "serving": [
        # the asyncio shard service under open-loop load at 4 shards: every
        # arrival completes, and — where numpy serves the packed kernel — is
        # drained as fast as offered.  (``retrievals_per_s`` is arrivals over
        # the window, i.e. the offered rate: a floor on it cannot fail.)
        MetricFloor("completed_over_arrivals", 1.0),
        MetricFloor("service_rate_over_offered", 0.97, when=("kernel", "numpy")),
        # engine batches over TCP are bit-identical to in-process serving
        MetricFloor("bit_identical", 1.0),
    ],
    "round_batching": [
        # one protocol round = one retrieval batch (bench_smoke measures the
        # e2e benchmark's CI over two shards): at most one ANSWER request
        # per (round, file, shard touched) — 4 per query on that plan — and
        # at most two kernel calls per (round, file) in process (6; it
        # makes 3).  A per-page fetch loop reads 16x and 43x here.
        MetricFloor("answer_requests_per_plan_bound", 1.0, at_most=True),
        MetricFloor(
            "kernel_calls_per_round_file", 2.0, when=("kernel", "numpy"), at_most=True
        ),
    ],
    "idle_flush": [
        # an idle shard server flushes an admitted request at once (bench_smoke:
        # one connection, a 64-page store): a single-retrieval ANSWER round
        # trip within 6 HELLO round trips on the same socket — it reads ~2;
        # a flush parked behind a 2 ms timer read 43 — and never shared
        MetricFloor("answer_over_hello_rtt", 6.0, at_most=True),
        MetricFloor("flushes_per_request", 1.0),
        MetricFloor("flushes_per_request", 1.0, at_most=True),
    ],
}


def _lookup(data, path: str):
    """Resolve a dotted path into nested dicts; None when any hop is absent."""
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_floors(
    results: Dict[str, dict],
    only: Optional[str] = None,
    require_registered: bool = False,
) -> List[str]:
    """Violation messages for every floored metric ``results`` fails.

    ``results`` maps benchmark names to their ``data`` payloads.  Benchmarks
    without registered floors pass untouched; a *registered* benchmark whose
    metric is missing is itself a violation (a silently dropped metric must
    not pass the gate).  ``only`` restricts the check to metric paths with
    that prefix — for call sites that measured a single benchmark function
    rather than a full result set.

    ``require_registered`` additionally makes a registered benchmark that is
    absent from ``results`` a violation.  The committed-baseline gate sets it:
    deleting ``results/micro_fastpath.json`` must not silently disable every
    floor it carries.  Call sites that deliberately pass a partial result set
    (a single freshly measured benchmark) keep the permissive default.
    """
    violations = []
    for benchmark, floors in METRIC_FLOORS.items():
        data = results.get(benchmark)
        if data is None:
            if require_registered:
                violations.append(
                    f"{benchmark}: registered benchmark is missing from the "
                    f"result set ({len(floors)} floor(s) unchecked)"
                )
            continue
        for metric in floors:
            if only is not None and not metric.path.startswith(only):
                continue
            if metric.when is not None:
                guard_path, guard_value = metric.when
                if _lookup(data, guard_path) != guard_value:
                    continue
            value = _lookup(data, metric.path)
            if value is None:
                violations.append(
                    f"{benchmark}: metric {metric.path!r} is missing "
                    f"(floor {metric.floor:g})"
                )
            elif metric.at_most and float(value) > metric.floor:
                violations.append(
                    f"{benchmark}: {metric.path} = {float(value):.2f} is above "
                    f"its ceiling of {metric.floor:g}"
                )
            elif not metric.at_most and float(value) < metric.floor:
                violations.append(
                    f"{benchmark}: {metric.path} = {float(value):.2f} is below "
                    f"its floor of {metric.floor:g}"
                )
    return violations


def load_committed_results(
    results_dir: Path = RESULTS_DIR,
) -> Tuple[Dict[str, dict], List[str]]:
    """The ``data`` payloads of every committed ``results/*.json`` envelope.

    Returns ``(results, problems)``.  A baseline file that cannot be parsed —
    malformed JSON, or an envelope that is not a JSON object — is reported as
    a problem string instead of raising: a truncated commit of a results file
    must fail the gate with a message naming the file, not a traceback.
    """
    results: Dict[str, dict] = {}
    problems: List[str] = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            problems.append(f"{path.name}: unreadable baseline ({exc})")
            continue
        if not isinstance(envelope, dict):
            problems.append(
                f"{path.name}: baseline envelope is "
                f"{type(envelope).__name__}, expected a JSON object"
            )
            continue
        # ``data`` may be a list for table-style benchmarks without floors;
        # _lookup treats non-dict payloads as "metric absent", so a floored
        # benchmark with a mangled payload still fails its metric checks.
        benchmark = envelope.get("benchmark", path.stem)
        results[str(benchmark)] = envelope.get("data", {})
    return results, problems


def gate_committed_results(results_dir: Path = RESULTS_DIR) -> List[str]:
    """Check the committed baselines; returns the violations (empty = pass)."""
    results, problems = load_committed_results(results_dir)
    if not results and not problems:
        return [f"no committed benchmark baselines found under {results_dir}"]
    return problems + check_floors(results, require_registered=True)


if __name__ == "__main__":
    import sys

    problems = gate_committed_results()
    for problem in problems:
        print(f"PERF GATE: {problem}")
    if problems:
        sys.exit(1)
    print(f"perf gate ok: committed baselines meet every registered floor")
