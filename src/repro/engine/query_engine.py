"""The batched query engine: the fast path for executing query workloads.

A :class:`QueryEngine` executes batches of ``(source, target)`` queries
against one scheme under the scheme's single fixed
:class:`~repro.schemes.plan.QueryPlan`.  Privacy is untouched — every query
still runs the full multi-round PIR protocol and is checked against the plan
— but the engine makes the *client side* fast:

* the batch is **sharded across worker contexts** (``run_batch(...,
  workers=N)``): each context owns its own PIR client state and its own LRU
  decode cache, so shards execute concurrently without sharing mutable
  protocol state, and their statistics are merged into one
  :class:`BatchResult`;
* each worker context runs on its own thread (a single worker on the
  calling thread) and executes its shard in sequence: every query runs its
  PIR rounds (``prepare_query``) and then its client-side solve, before
  the next query starts;
* the engine's PIR page store can be **sharded** (``QueryEngine(...,
  shards=S)``): every worker context owns its own per-shard connections to
  ``S`` independent sub-databases (see
  :class:`~repro.pir.sharded.ShardedPirSimulator`), the storage layout a
  scaled deployment serves from;
* each worker's LRU cache (see :class:`~repro.engine.cache.LruCache`) shares
  the decoded header, decoded region payloads and *assembled subgraph CSRs*
  across the queries of its shard (``cache_entries=0`` disables caching for
  measurement runs via :class:`~repro.engine.cache.NullCache`);
* result verification runs through the array-backed search core
  (:mod:`repro.network.indexed`), grouping the batch by source so each
  distinct source costs one Dijkstra over the compiled network;
* indistinguishability is asserted over the whole batch (every query must
  produce the identical adversary view, Theorem 1).

Results are **independent of the worker count and shard count**:
dummy-page retrievals draw from a per-query RNG derived from the scheme's
dummy seed and the query's position in the batch, and the solve phase is a
deterministic function of the fetched bytes, so every ``(workers, shards)``
combination produces traces identical to ``run_batch(pairs, workers=1)``
(property-tested).

``repro-spc batch`` on the command line and
:func:`repro.bench.runner.run_workload` (i.e. every figure/table benchmark)
execute through this engine.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import SchemeError
from ..network import NodeId, all_pairs_sample_costs
from ..pir import (
    SecureCoprocessor,
    ShardedPageStore,
    ShardedPirSimulator,
    UsablePirSimulator,
    numpy_available,
    resolve_kernel,
)
from ..schemes import files as scheme_files
from ..schemes.base import PreparedQuery, QueryResult, Scheme, client_state_scope
from ..storage import clone_database
from .cache import LruCache, NullCache

QueryPair = Tuple[NodeId, NodeId]

#: One (index, pair) work item of a batch.
_IndexedPair = Tuple[int, QueryPair]


@dataclass
class BatchResult:
    """Everything one batch of queries produced."""

    scheme_name: str
    pairs: List[QueryPair]
    results: List[QueryResult]
    #: True shortest-path costs per pair (None when verification was skipped).
    true_costs: Optional[Dict[QueryPair, float]]
    #: Whether every query returned the true shortest-path cost.
    all_costs_correct: bool
    #: Whether every query produced the identical adversary view.
    indistinguishable: bool
    #: Page-cache statistics accumulated during the batch (summed over the
    #: participating worker contexts).
    cache_hits: int
    cache_misses: int
    #: Wall-clock seconds the batch took to execute (client machine time,
    #: not the simulated PIR response time).
    wall_seconds: float
    #: Number of worker contexts the batch was sharded across.
    workers: int = 1
    #: Number of PIR database shards each worker context connects to.
    shards: int = 1
    #: Page-store backend the engine served the batch from.
    store_backend: str = "memory"
    #: XOR server kernel the PIR reads were served through ("numpy" or
    #: "bigint"), or None when the engine read pages directly.
    pir_kernel: Optional[str] = None
    #: Whether the PIR reads were served by remote shard servers over TCP.
    remote: bool = False

    @property
    def num_queries(self) -> int:
        return len(self.results)

    @property
    def mean_response_s(self) -> float:
        """Mean simulated response time per query."""
        if not self.results:
            return 0.0
        return sum(result.response.total_s for result in self.results) / len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Executed queries per wall-clock second (0.0 for an empty batch)."""
        if not self.results or self.wall_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.wall_seconds

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class _WorkerContext:
    """Per-shard client state: a private PIR simulator and decode cache."""

    __slots__ = ("pir", "cache")

    def __init__(self, pir: UsablePirSimulator, cache) -> None:
        self.pir = pir
        self.cache = cache


class QueryEngine:
    """Executes batches of private shortest-path queries against one scheme.

    ``cache_entries`` sizes each worker context's decode cache (``0`` disables
    caching entirely — measurement runs use this to exclude cache effects).
    ``shards`` splits the PIR page store across that many independent
    sub-databases; every worker context owns its own connections to them.
    ``store_backend``/``store_dir`` re-home the scheme's database onto
    another page-store backend (memory/mmap/sqlite; pages stream across, the
    database is never materialised in RAM) and serve every PIR read from it.
    ``pir_kernel`` selects how every PIR read is served: a real two-server
    XOR retrieval over a packed server kernel
    (``"auto"``/``"numpy"``/``"bigint"`` — see :mod:`repro.pir.kernels`) or
    direct page reads (``"off"``).  Left unset, the engine serves XOR
    retrievals through the packed numpy kernel whenever numpy is importable
    and falls back to direct reads on a bare interpreter — the big-int
    kernel is never *defaulted* into the serving path, since its per-read
    fold is only worth paying for when it is the thing being measured.
    ``serving`` (a :class:`~repro.serving.server.ShardCluster` or a list of
    ``(host, port)`` addresses, one per shard) routes every PIR read to live
    shard servers over TCP instead of in-process serving (use the engine as
    a context manager, or call :meth:`close`, to release those connections
    deterministically).  None of these knobs changes query results, traces
    or adversary views (property-tested for every kernel, locally and over
    the wire).
    """

    def __init__(
        self,
        scheme: Scheme,
        cache_entries: int = 512,
        shards: int = 1,
        shard_strategy: str = "round-robin",
        store_backend: Optional[str] = None,
        store_dir=None,
        pir_kernel: Optional[str] = None,
        serving=None,
    ) -> None:
        if cache_entries < 0:
            raise SchemeError(
                f"cache_entries must be non-negative, got {cache_entries}"
            )
        if shards < 1:
            raise SchemeError(f"shards must be positive, got {shards}")
        self.serving_addresses: Optional[List[Tuple[str, int]]] = None
        if serving is not None:
            addresses = getattr(serving, "addresses", serving)
            self.serving_addresses = [(host, int(port)) for host, port in addresses]
            if not self.serving_addresses:
                raise SchemeError("serving needs at least one shard address")
            if shards == 1:
                shards = len(self.serving_addresses)
            elif shards != len(self.serving_addresses):
                raise SchemeError(
                    f"shards={shards} does not match the "
                    f"{len(self.serving_addresses)} serving addresses"
                )
        self.scheme = scheme
        #: The database every PIR read is served from: the scheme's own, or a
        #: bit-identical clone on the requested page-store backend.
        if store_backend is not None and store_backend != scheme.database.store_backend:
            self.database = clone_database(
                scheme.database, store_backend=store_backend, store_dir=store_dir
            )
        else:
            self.database = scheme.database
        self.store_backend = self.database.store_backend
        #: Resolved XOR serving kernel (None = direct page reads).  Unset
        #: defaults to the packed numpy kernel when numpy is importable and
        #: to direct reads otherwise (the "auto default" — ROADMAP item 2).
        if pir_kernel in (None, "default"):
            self.pir_kernel: Optional[str] = "numpy" if numpy_available() else None
        elif pir_kernel == "off":
            self.pir_kernel = None
        else:
            self.pir_kernel = resolve_kernel(pir_kernel)
        #: The shared plan every query of every batch runs under.
        self.plan = scheme.plan
        self.cache_entries = cache_entries
        self.shards = shards
        self.shard_strategy = shard_strategy
        #: The page partitioning shared by every worker context's shard
        #: connections (a pure view over :attr:`database` — no page copies).
        self._shard_store = (
            ShardedPageStore(self.database, shards, shard_strategy)
            if shards > 1
            else None
        )
        self.page_cache = self._new_cache()
        #: Worker contexts, created lazily and reused across batches so their
        #: caches keep paying off; context 0 wraps :attr:`page_cache` (and the
        #: scheme's own PIR simulator when the store is unsharded and
        #: un-re-homed).
        first_pir = (
            scheme.pir
            if shards == 1
            and self.database is scheme.database
            and self.pir_kernel is None
            and self.serving_addresses is None
            else self._new_pir()
        )
        self._contexts: List[_WorkerContext] = [
            _WorkerContext(first_pir, self.page_cache)
        ]

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every context's remote PIR connections.

        The shard servers themselves keep serving.
        """
        for context in self._contexts:
            if context.pir is not self.scheme.pir:
                closer = getattr(context.pir, "close", None)
                if closer is not None:
                    closer()

    def execute(self, source: NodeId, target: NodeId) -> QueryResult:
        """Answer a single query through the engine's page cache."""
        with scheme_files.decode_cache_scope(self.page_cache):
            if self._contexts[0].pir is not self.scheme.pir:
                # serve the query through the engine's own simulator (re-homed
                # database, shards, or XOR-kernel serving) via context 0
                with client_state_scope(
                    self._contexts[0].pir, self.scheme._dummy_rng
                ):
                    return self.scheme.query(source, target)
            return self.scheme.query(source, target)

    def run_batch(
        self,
        pairs: Sequence[QueryPair],
        verify_costs: bool = True,
        cost_tolerance: float = 1e-4,
        workers: int = 1,
    ) -> BatchResult:
        """Execute every query of ``pairs`` and verify the batch as a whole.

        ``workers`` shards the batch round-robin across that many worker
        contexts (capped at the batch size), each on its own thread; a
        single worker runs the batch on the calling thread.  An empty batch
        is legal and returns an empty result (workers=0).

        Cost verification is batched: the pairs are grouped by source and
        each distinct source triggers one (early-terminating) Dijkstra over
        the compiled full network, rather than one search per query.
        """
        pairs = list(pairs)
        if workers < 1:
            raise SchemeError(f"workers must be positive, got {workers}")
        if not pairs:
            return BatchResult(
                scheme_name=self.scheme.name,
                pairs=[],
                results=[],
                true_costs={} if verify_costs else None,
                all_costs_correct=True,
                indistinguishable=True,
                cache_hits=0,
                cache_misses=0,
                wall_seconds=0.0,
                workers=0,
                shards=self.shards,
                store_backend=self.store_backend,
                pir_kernel=self.pir_kernel,
                remote=self.serving_addresses is not None,
            )
        workers = min(workers, len(pairs))
        contexts = self._contexts_for(workers)
        hits_before = sum(context.cache.hits for context in contexts)
        misses_before = sum(context.cache.misses for context in contexts)

        started = time.perf_counter()
        indexed: List[_IndexedPair] = list(enumerate(pairs))
        if workers == 1:
            results = [result for _, result in self._run_shard(contexts[0], indexed)]
        else:
            results_by_index: List[Optional[QueryResult]] = [None] * len(pairs)
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-engine"
            ) as pool:
                futures = [
                    pool.submit(self._run_shard, contexts[w], indexed[w::workers])
                    for w in range(workers)
                ]
                for future in futures:
                    for index, result in future.result():
                        results_by_index[index] = result
            results = results_by_index
        wall_seconds = time.perf_counter() - started

        # every view equals the first: compared lazily, never hashed
        views = (result.adversary_view for result in results)
        first_view = next(views)
        indistinguishable = all(view == first_view for view in views)

        true_costs: Optional[Dict[QueryPair, float]] = None
        all_costs_correct = True
        if verify_costs:
            true_costs = all_pairs_sample_costs(self.scheme.network, pairs)
            for pair, result in zip(pairs, results):
                truth = true_costs[pair]
                if not math.isclose(
                    result.path.cost, truth, rel_tol=cost_tolerance, abs_tol=1e-6
                ):
                    all_costs_correct = False

        return BatchResult(
            scheme_name=self.scheme.name,
            pairs=pairs,
            results=results,
            true_costs=true_costs,
            all_costs_correct=all_costs_correct,
            indistinguishable=indistinguishable,
            cache_hits=sum(context.cache.hits for context in contexts) - hits_before,
            cache_misses=sum(context.cache.misses for context in contexts) - misses_before,
            wall_seconds=wall_seconds,
            workers=workers,
            shards=self.shards,
            store_backend=self.store_backend,
            pir_kernel=self.pir_kernel,
            remote=self.serving_addresses is not None,
        )

    # ------------------------------------------------------------------ #
    # worker machinery
    # ------------------------------------------------------------------ #
    def _new_cache(self):
        return LruCache(self.cache_entries) if self.cache_entries else NullCache()

    def _contexts_for(self, workers: int) -> List[_WorkerContext]:
        while len(self._contexts) < workers:
            self._contexts.append(_WorkerContext(self._new_pir(), self._new_cache()))
        return self._contexts[:workers]

    def _new_pir(self) -> UsablePirSimulator:
        scheme = self.scheme
        if self.serving_addresses is not None:
            # imported lazily: the serving client is only needed when the
            # engine actually talks to live shard servers
            from ..serving.client import RemotePirSimulator

            return RemotePirSimulator(
                self.database,
                self.serving_addresses,
                scp=SecureCoprocessor(scheme.spec),
                spec=scheme.spec,
                enforce_limits=scheme.pir.enforce_limits,
                strategy=self.shard_strategy,
                store=self._shard_store,
            )
        if self.shards > 1:
            return ShardedPirSimulator(
                self.database,
                scp=SecureCoprocessor(scheme.spec),
                spec=scheme.spec,
                enforce_limits=scheme.pir.enforce_limits,
                num_shards=self.shards,
                strategy=self.shard_strategy,
                store=self._shard_store,
                xor_kernel=self.pir_kernel,
            )
        return UsablePirSimulator(
            self.database,
            scp=SecureCoprocessor(scheme.spec),
            spec=scheme.spec,
            enforce_limits=scheme.pir.enforce_limits,
            xor_kernel=self.pir_kernel,
        )

    def _run_shard(
        self, context: _WorkerContext, shard: List[_IndexedPair]
    ) -> List[Tuple[int, QueryResult]]:
        """Execute one shard in order; returns ``(batch_index, result)`` pairs."""
        return [
            (item[0], self._solve(context, self._prepare(context, item)))
            for item in shard
        ]

    def _prepare(self, context: _WorkerContext, item: _IndexedPair) -> PreparedQuery:
        index, (source, target) = item
        # a per-query RNG keyed by the batch position keeps dummy retrievals
        # deterministic and identical for every worker count
        rng = random.Random(hash((self.scheme.dummy_seed, index)))
        with scheme_files.decode_cache_scope(context.cache):
            with client_state_scope(context.pir, rng):
                return self.scheme.prepare_query(source, target)

    def _solve(self, context: _WorkerContext, prepared: PreparedQuery) -> QueryResult:
        with scheme_files.decode_cache_scope(context.cache):
            return prepared.solve()
