"""A persistent process-worker pool for the engine's remote solve phases.

Before this module existed, every ``run_batch(worker_mode="process")``
built a fresh ``ProcessPoolExecutor`` and tore it down with the batch, so
each batch paid full worker spin-up — process spawn plus, on spawn-style
platforms, a cold import of the whole package in every worker.  A
:class:`SolvePool` outlives batches: the executor is created once and
workers pre-import the solve-phase modules exactly once (``initializer``).
Workers only decode, assemble and search the bytes a task ships them; they
never answer a PIR retrieval, so they need no packed kernel — the packs
stay in the engine's process, shared there by the in-process memo.

The pool only ever *grows*: asking for more workers than the current
executor holds replaces it with a larger one (counted in :attr:`starts`,
which the warm-pool microbench floors at one start across consecutive
batches).  Results are unaffected by pool reuse or sizing — the solve
phase is a deterministic function of the shipped bytes (invariant I2).

A finalizer shuts the executor down when the pool is garbage collected,
so short-lived engines (tests build hundreds) do not leak worker
processes; long-lived callers use the context-manager form or
:meth:`close` for deterministic teardown.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Optional

from ..exceptions import SchemeError


def _warm_worker() -> None:
    """Pre-import the solve-phase modules so a worker's first task is warm."""
    import repro.network  # noqa: F401
    import repro.schemes  # noqa: F401


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    executor.shutdown(wait=False, cancel_futures=True)


class SolvePool:
    """A reusable, lazily grown process pool shared across engine batches."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise SchemeError(
                f"max_workers must be positive, got {max_workers}"
            )
        #: Optional hard cap on the executor size.
        self.max_workers = max_workers
        #: Executors created over this pool's lifetime (1 == fully warm).
        self.starts = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._lock = threading.Lock()
        self._finalizer: Optional[weakref.finalize] = None
        self._closed = False

    @property
    def size(self) -> int:
        """Workers the current executor was created with (0 = not started)."""
        return self._size

    def executor(self, workers: int) -> ProcessPoolExecutor:
        """The shared executor, grown to at least ``workers`` workers.

        Growing replaces the executor (the old one finishes its outstanding
        work and shuts down); shrinking never happens — a warm pool larger
        than a batch needs simply leaves workers idle.
        """
        if workers < 1:
            raise SchemeError(f"workers must be positive, got {workers}")
        if self.max_workers is not None:
            workers = min(workers, self.max_workers)
        with self._lock:
            if self._closed:
                raise SchemeError("solve pool is closed")
            if self._executor is None or self._size < workers:
                previous = self._executor
                if self._finalizer is not None:
                    self._finalizer.detach()
                if previous is not None:
                    previous.shutdown(wait=True)
                size = max(workers, self._size)
                self._executor = ProcessPoolExecutor(
                    max_workers=size,
                    initializer=_warm_worker,
                )
                self._size = size
                self.starts += 1
                self._finalizer = weakref.finalize(
                    self, _shutdown_executor, self._executor
                )
            return self._executor

    def submit(
        self, workers: int, function: Callable[..., Any], /, *args: Any
    ) -> "Future[Any]":
        """Submit one task onto the pool sized for ``workers``."""
        return self.executor(workers).submit(function, *args)

    def close(self, wait: bool = True) -> None:
        """Shut the workers down; the pool cannot be reused afterwards."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "SolvePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
