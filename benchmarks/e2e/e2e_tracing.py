"""Layer spans recorded from outside the program under test.

Nothing under ``src/`` is instrumented: the harness rebinds the public
callables listed in :data:`LAYER_SPANS` to timing wrappers for the traced
pass and restores them afterwards.  A span is ``(name, start, end, span id,
parent id, query id, count)``; spans of one query share its id, and spans
recorded on the shard servers' threads carry no query id.  Spans stay in
memory until the run ends.

A layer's *self time* is its span's duration minus the part its child spans
cover, so the per-stage self times of a query sum to its wall time exactly.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: Root span the harness opens around each ``engine.run_batch([pair])``.
ROOT_SPAN = "engine.query"


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


def _len_first_arg(args: tuple, result: Any) -> int:
    return len(args[0])


class SpanPoint(NamedTuple):
    """One wrapped callable: the span it records and where it is bound."""

    span: str
    module: str
    attr: str  # "function" or "Class.method"
    #: What a call counts for (pages, masks, bytes); None = 1 per call.
    count: Optional[Callable[[tuple, Any], int]] = None


#: Every patch point of the traced pass.  A function imported by name is
#: listed once per module that binds it, because rebinding the defining
#: module would not reach those callers.  An entry that stops resolving
#: fails the traced pass: a rename must break the benchmark, not zero a metric.
LAYER_SPANS: Tuple[SpanPoint, ...] = (
    # engine: the two phases of a query
    SpanPoint("engine.prepare", "repro.schemes.ci", "ConciseIndexScheme.prepare_query"),
    SpanPoint("engine.prepare", "repro.schemes.pi", "PassageIndexScheme.prepare_query"),
    SpanPoint("engine.solve", "repro.schemes.base", "PreparedQuery.solve"),
    # schemes: the round protocol, decoding, assembly, the plan check
    SpanPoint("schemes.round", "repro.schemes.base", "RoundManager.begin_round"),
    SpanPoint("schemes.fetch", "repro.schemes.base", "RoundManager.fetch"),
    SpanPoint("schemes.fetch", "repro.schemes.base", "RoundManager.fetch_many", _len_result),
    SpanPoint("schemes.pad", "repro.schemes.base", "RoundManager.pad"),
    SpanPoint("schemes.decode", "repro.schemes.files", "HeaderInfo.decode"),
    SpanPoint("schemes.decode", "repro.schemes.ci", "read_lookup_entry"),
    SpanPoint("schemes.decode", "repro.schemes.pi", "read_lookup_entry"),
    SpanPoint("schemes.decode", "repro.schemes.ci", "decode_index_entry"),
    SpanPoint("schemes.decode", "repro.schemes.assembly", "decode_index_entry"),
    SpanPoint("schemes.decode", "repro.schemes.assembly", "decode_region_bytes"),
    SpanPoint("schemes.assemble", "repro.schemes.assembly", "assemble_region_csr"),
    SpanPoint("schemes.assemble", "repro.schemes.assembly", "assemble_passage_csr"),
    SpanPoint("schemes.plan_check", "repro.schemes.base", "Scheme.finish_query"),
    # network: the client-side search
    SpanPoint("network.search", "repro.schemes.ci", "csr_shortest_path"),
    SpanPoint("network.search", "repro.schemes.pi", "csr_shortest_path"),
    # pir: the simulator surface, mask draw, kernel, XOR combine
    SpanPoint("pir.retrieve", "repro.pir.scp", "UsablePirSimulator.retrieve_page"),
    SpanPoint("pir.retrieve", "repro.pir.scp", "UsablePirSimulator.retrieve_pages", _len_result),
    SpanPoint("pir.retrieve", "repro.pir.sharded", "ShardedPirSimulator.retrieve_pages", _len_result),
    SpanPoint("pir.mask_draw", "repro.pir.kernels", "random_subset_masks", _len_result),
    SpanPoint("pir.mask_draw", "repro.serving.client", "random_subset_masks", _len_result),
    SpanPoint("pir.mask_draw", "repro.serving.loadgen", "random_subset_masks", _len_result),
    SpanPoint("pir.kernel", "repro.pir.kernels", "PackedDatabase.answer_rows", _len_result),
    SpanPoint("pir.kernel_many", "repro.pir.kernels", "PackedDatabase.answer_many", _len_result),
    SpanPoint("pir.rows_to_blocks", "repro.pir.kernels", "PackedDatabase.rows_to_blocks", _len_result),
    SpanPoint("pir.xor_bytes", "repro.serving.client", "xor_bytes"),
    SpanPoint("pir.xor_bytes", "repro.serving.loadgen", "xor_bytes"),
    # storage: direct page reads (only the kernel-off engine reads pages per query)
    SpanPoint("storage.read", "repro.storage.pagefile", "PageFile.read_page"),
    SpanPoint("storage.read", "repro.storage.pagefile", "PageFile.read_pages_batch", _len_result),
    # serving: one request round trip and the codec on both ends (count = bytes)
    SpanPoint("serving.request", "repro.serving.client", "ConnectionPool.request"),
    SpanPoint("serving.encode_request", "repro.serving.wire", "encode_answer_request", _len_result),
    SpanPoint("serving.decode_request", "repro.serving.wire", "decode_request", _len_first_arg),
    SpanPoint("serving.encode_answer", "repro.serving.wire", "encode_answer_ok", _len_result),
    SpanPoint("serving.decode_answer", "repro.serving.wire", "decode_answer_response", _len_first_arg),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int  # 0 = no parent on this thread
    query_id: Optional[int]
    count: int


class Stage(NamedTuple):
    """One span name summed over a set of spans."""

    calls: int
    total_s: float  # inclusive
    self_s: float
    count: int


class _ThreadState(threading.local):
    current = 0
    query_id: Optional[int] = None


def _resolve(point: SpanPoint) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, raw attribute)`` of a patch point."""
    owner: Any = importlib.import_module(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


class Tracer:
    """Records spans around :data:`LAYER_SPANS` while installed."""

    def __init__(self) -> None:
        #: Plain tuples in :class:`Span` field order (cheaper to record).
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._restore: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Rebind every patch point; raises if one no longer resolves."""
        missing = []
        resolved = []
        for point in LAYER_SPANS:
            try:
                resolved.append((point, *_resolve(point)))
            except (ImportError, AttributeError) as exc:
                missing.append(f"{point.module}:{point.attr} ({exc})")
        if missing:
            raise RuntimeError(
                "LAYER_SPANS entries no longer resolve: " + "; ".join(missing)
            )
        for point, owner, name, raw in resolved:
            self._restore.append((owner, name, raw))
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(self._wrap(point, raw.__func__))
            else:
                wrapped = self._wrap(point, raw)
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, point: SpanPoint, function: Callable) -> Callable:
        # the wrapper's own cost lands in the parent's self time, so it is
        # kept to two clock reads, two thread-local accesses and one append
        name, count_of = point.span, point.count
        record, ids, state = self.spans.append, self._ids, self._state
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = state.current
            state.current = span_id
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                end = clock()
                state.current = parent
                record((name, start, end, span_id, parent, state.query_id, 0))
                raise
            end = clock()
            state.current = parent
            count = 1 if count_of is None else count_of(args, result)
            record((name, start, end, span_id, parent, state.query_id, count))
            return result

        return traced

    @contextmanager
    def query(self, query_id: int) -> Iterator[None]:
        """The root span of one query on the calling thread."""
        state = self._state
        span_id = next(self._ids)
        state.current, state.query_id = span_id, query_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.current, state.query_id = 0, None
            self.spans.append((ROOT_SPAN, start, end, span_id, 0, query_id, 1))

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (the raw trace, for offline reading)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(Span._make(span)._asdict()) + "\n")


def summarize(spans: List[tuple]) -> Tuple[Dict[str, Stage], Dict[str, Stage]]:
    """Per-name totals of the query spans and of the off-query (server) spans."""
    child_total: Dict[int, float] = defaultdict(float)
    for _, start, end, _, parent_id, _, _ in spans:
        if parent_id:
            child_total[parent_id] += end - start
    query: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    server: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for name, start, end, span_id, _, query_id, count in spans:
        row = (server if query_id is None else query)[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_total.get(span_id, 0.0)
        row[3] += count
    return (
        {name: Stage(*row) for name, row in query.items()},
        {name: Stage(*row) for name, row in server.items()},
    )


def stage_table(query: Dict[str, Stage], server: Dict[str, Stage], queries: int) -> str:
    """The per-stage self-time table; the query rows sum to the traced wall."""
    wall = sum(stage.self_s for stage in query.values())
    lines = [
        f"{'stage':<34}{'calls/q':>10}{'self ms/q':>12}{'share':>8}",
    ]
    for name, stage in sorted(query.items(), key=lambda item: -item[1].self_s):
        label = "(unattributed) " + name if name == ROOT_SPAN else name
        lines.append(
            f"{label:<34}{stage.calls / queries:>10.2f}"
            f"{stage.self_s * 1000.0 / queries:>12.4f}"
            f"{stage.self_s / wall if wall else 0.0:>8.1%}"
        )
    lines.append(f"{'= traced query wall':<34}{'':>10}{wall * 1000.0 / queries:>12.4f}{1:>8.1%}")
    for name, stage in sorted(server.items(), key=lambda item: -item[1].self_s):
        lines.append(
            f"{'[server] ' + name:<34}{stage.calls / queries:>10.2f}"
            f"{stage.self_s * 1000.0 / queries:>12.4f}{'':>8}"
        )
    return "\n".join(lines)
