"""Scheme base classes: query execution, plan enforcement and cost accounting.

A *scheme* owns a database hosted by the LBS, a fixed query plan, and the
client-side query-processing logic.  All schemes answer a query through the
same machinery:

* the :class:`RoundManager` performs header downloads and PIR page fetches,
  recording them in an :class:`~repro.pir.AccessTrace`,
* the scheme pads every round with dummy retrievals until it matches the plan,
* :func:`verify_plan_conformance` asserts (not just hopes) that the adversary
  view equals the plan's canonical view, and
* :func:`response_time_from_trace` converts the trace into the paper's
  response-time decomposition.
"""

from __future__ import annotations

import abc
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..costmodel import CostModel, DEFAULT_SPEC, ResponseTime, SystemSpec
from ..exceptions import PlanViolationError
from ..network import NodeId, Path, RoadNetwork
from ..pir import AccessTrace, AdversaryView, SecureCoprocessor, UsablePirSimulator
from ..storage import Database
from .plan import QueryPlan


@dataclass
class QueryResult:
    """Everything a single private shortest-path query produces."""

    path: Path
    response: ResponseTime
    trace: AccessTrace
    client_seconds: float

    @property
    def adversary_view(self) -> AdversaryView:
        return self.trace.adversary_view()

    @property
    def pages_per_file(self) -> Dict[str, int]:
        return self.trace.pir_accesses_per_file()

    @property
    def total_pir_pages(self) -> int:
        return self.trace.total_pir_accesses()


#: A dummy-retrieval RNG, or a zero-argument factory that builds it when the
#: first dummy page is drawn (seeding one costs more than most queries spend
#: outside their rounds).
DummyRng = Union[random.Random, Callable[[], random.Random]]

#: Per-context override of the client-side protocol state (PIR simulator and
#: dummy-retrieval RNG).  The parallel query engine installs one override per
#: worker so concurrent shards never share mutable PIR state or an RNG
#: stream; outside an engine the scheme's own members are used.
_client_state_var: ContextVar = ContextVar("repro_client_state", default=None)


@contextmanager
def client_state_scope(pir: "UsablePirSimulator", rng: DummyRng):
    """Route :meth:`Scheme.new_round_manager` through ``pir``/``rng`` in this context."""
    token = _client_state_var.set((pir, rng))
    try:
        yield
    finally:
        _client_state_var.reset(token)


class PreparedQuery:
    """A query whose PIR rounds have completed.

    A query splits into a *retrieval* phase (all protocol rounds, plus the
    light decoding needed to address the next round's pages) and a *solve*
    phase (region decoding, subgraph assembly and the shortest-path search).
    The engine runs the two back to back; the split is kept because it
    gives the phases distinct, named seams — the end-to-end tracer times
    ``prepare_query`` and :meth:`solve` separately to attribute a query's
    wall time to retrieval versus client-side solve.
    """

    __slots__ = ("_solve",)

    def __init__(self, solve: Callable[[], "QueryResult"]) -> None:
        self._solve = solve

    def solve(self) -> "QueryResult":
        """Run the remaining client-side work and produce the result."""
        return self._solve()


class RoundManager:
    """Drives the multi-round client protocol for one query."""

    def __init__(
        self,
        pir: UsablePirSimulator,
        trace: AccessTrace,
        rng: DummyRng,
    ) -> None:
        self._pir = pir
        self._trace = trace
        self._rng = rng
        self._round_counts: Dict[str, int] = {}

    def begin_round(self) -> int:
        self._round_counts = {}
        return self._trace.begin_round()

    def download_header(self) -> bytes:
        return self._pir.download_header(self._trace)

    def fetch(self, file_name: str, page_number: int) -> bytes:
        return self._retrieve(file_name, [page_number])[0]

    def fetch_many(self, file_name: str, page_numbers: Sequence[int]) -> List[bytes]:
        """Fetch a batch of pages in one retrieval call.

        The simulator answers the whole batch at once (one request per shard
        it touches); traces and costs are recorded per page in request order.
        """
        return self._retrieve(file_name, list(page_numbers))

    def _retrieve(self, file_name: str, page_numbers: List[int]) -> List[bytes]:
        data = self._pir.retrieve_pages(file_name, page_numbers, self._trace)
        self._round_counts[file_name] = (
            self._round_counts.get(file_name, 0) + len(page_numbers)
        )
        return data

    def file_pages(self, file_name: str) -> int:
        """The true page count of ``file_name``, as the PIR layer serves it."""
        return self._pir.database.file(file_name).num_pages

    def pages_fetched_this_round(self, file_name: str) -> int:
        return self._round_counts.get(file_name, 0)

    def pad(
        self, file_name: str, target_pages: int, pages: Sequence[int] = ()
    ) -> List[bytes]:
        """Fetch ``pages`` plus dummies, as one batch, until ``target_pages``
        pages of ``file_name`` have been fetched in the current round.

        A round's real pages of a file and its padding travel together — one
        retrieval call, so one request per shard — and the bytes of ``pages``
        are returned.  Dummy requests target uniformly random pages so they
        are indistinguishable from real ones at the PIR layer.
        """
        pages = list(pages)
        wanted = self.pages_fetched_this_round(file_name) + len(pages)
        if wanted > target_pages:
            raise PlanViolationError(
                f"query fetches {wanted} pages from {file_name!r} but the plan "
                f"allows only {target_pages}"
            )
        dummies: List[int] = []
        if target_pages > wanted:
            rng = self._rng
            if not isinstance(rng, random.Random):
                rng = self._rng = rng()
            num_pages = self.file_pages(file_name)
            dummies = [rng.randrange(num_pages) for _ in range(target_pages - wanted)]
        elif not pages:
            return []
        return self.fetch_many(file_name, pages + dummies)[: len(pages)]


def verify_plan_conformance(trace: AccessTrace, plan: QueryPlan) -> None:
    """Raise :class:`PlanViolationError` unless the trace matches the plan exactly."""
    observed = trace.adversary_view()
    expected = plan.expected_adversary_view()
    if observed != expected:
        raise PlanViolationError(
            "query execution deviated from the fixed query plan; observed "
            f"{[ (e.round_number, e.kind, e.file_name) for e in observed.events ]} "
            f"but expected {[ (e.round_number, e.kind, e.file_name) for e in expected.events ]}"
        )


def response_time_from_trace(
    trace: AccessTrace,
    database: Database,
    cost_model: CostModel,
    client_seconds: float = 0.0,
) -> ResponseTime:
    """Convert an access trace into the paper's response-time decomposition."""
    file_sizes = {name: database.file(name).num_pages for name in database.file_names()}
    response = ResponseTime(client_s=client_seconds)
    per_round: Dict[int, Dict[str, int]] = {}
    header_rounds: Dict[int, int] = {}
    for event in trace.adversary_view().events:
        if event.kind == "header":
            header_rounds[event.round_number] = header_rounds.get(event.round_number, 0) + 1
        else:
            round_files = per_round.setdefault(event.round_number, {})
            round_files[event.file_name] = round_files.get(event.file_name, 0) + 1
    for round_number, downloads in header_rounds.items():
        response = response + cost_model.header_download(trace.header_bytes).scaled(downloads)
    for round_number, files in per_round.items():
        response = response + cost_model.pir_round(files, file_sizes)
    return response


class Scheme(abc.ABC):
    """Base class of all query-processing schemes."""

    #: Short name used in reports ("CI", "PI", "HY", "PI*", "LM", "AF").
    name: str = "scheme"

    def __init__(
        self,
        network: RoadNetwork,
        database: Database,
        plan: QueryPlan,
        spec: SystemSpec = DEFAULT_SPEC,
        enforce_scp_limits: bool = False,
        dummy_seed: int = 0,
    ) -> None:
        self.network = network
        self.database = database
        # seal every builder's tail page so the database is fully on its
        # page-store backend before the first query is served
        database.flush()
        self.plan = plan
        self.spec = spec
        self.cost_model = CostModel(spec)
        self.pir = UsablePirSimulator(
            database,
            scp=SecureCoprocessor(spec),
            spec=spec,
            enforce_limits=enforce_scp_limits,
        )
        self.dummy_seed = dummy_seed
        self._dummy_rng = random.Random(dummy_seed)
        #: ``(plan, header bytes, response)`` of the last conforming query:
        #: a conforming trace's simulated cost depends on nothing else.
        self._planned: Optional[Tuple[QueryPlan, int, ResponseTime]] = None

    # ------------------------------------------------------------------ #
    # common helpers
    # ------------------------------------------------------------------ #
    @property
    def storage_bytes(self) -> int:
        return self.database.total_size_bytes

    @property
    def storage_mb(self) -> float:
        return self.database.total_size_mb

    def new_round_manager(self, trace: AccessTrace) -> RoundManager:
        override = _client_state_var.get()
        if override is not None:
            pir, rng = override
            return RoundManager(pir, trace, rng)
        return RoundManager(self.pir, trace, self._dummy_rng)

    def exceeds_pir_file_limit(self) -> bool:
        """True when any PIR-accessible file exceeds the interface's maximum size."""
        scp = SecureCoprocessor(self.spec)
        return any(not scp.supports_file(f) for f in self.database.files())

    def finish_query(
        self,
        path: Path,
        trace: AccessTrace,
        client_seconds: float,
        check_plan: bool = True,
    ) -> QueryResult:
        """Check the trace against the plan and attach the simulated cost.

        A conforming trace's PIR and communication seconds are a function of
        the plan and the header size alone, so they are computed once and
        reused; ``check_plan=False`` computes them from the trace.
        """
        if check_plan:
            verify_plan_conformance(trace, self.plan)
            planned = self._planned
            if planned is None or planned[0] is not self.plan or planned[1] != trace.header_bytes:
                cost = response_time_from_trace(trace, self.database, self.cost_model)
                planned = self._planned = (self.plan, trace.header_bytes, cost)
            response = replace(planned[2], client_s=client_seconds)
        else:
            response = response_time_from_trace(
                trace, self.database, self.cost_model, client_seconds
            )
        return QueryResult(path=path, response=response, trace=trace, client_seconds=client_seconds)

    # ------------------------------------------------------------------ #
    # abstract interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def query(self, source: NodeId, target: NodeId) -> QueryResult:
        """Answer a shortest-path query from ``source`` to ``target``."""

    def prepare_query(self, source: NodeId, target: NodeId) -> PreparedQuery:
        """Run the PIR rounds of a query, deferring the client-side solve.

        Schemes that search fetched region pages override this to return
        after the last round, leaving region decoding, subgraph assembly and
        the search to :meth:`PreparedQuery.solve`.  The default runs the
        whole query eagerly, so every scheme works under the engine.
        """
        result = self.query(source, target)
        return PreparedQuery(lambda: result)

    def query_by_coordinates(
        self, source_xy: Tuple[float, float], target_xy: Tuple[float, float]
    ) -> QueryResult:
        """Answer a query given Euclidean coordinates (snapped to the closest nodes)."""
        source = self.network.nearest_node(*source_xy)
        target = self.network.nearest_node(*target_xy)
        return self.query(source, target)


class Timer:
    """Tiny helper to accumulate client-side computation time."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds += time.perf_counter() - self._start
