"""Window-batch coalescing: many concurrent clients, one index dispatch.

Interactive exploration traffic is bursty and highly correlated — many users
pan around the same popular regions of the same layer (every new client starts
at the default viewport).  Instead of dispatching each concurrent window query
individually, the coalescer holds the first request of a burst open for a few
milliseconds (or until a size cap), then evaluates the whole batch through the
storage layer's batched entry point
(:meth:`~repro.storage.table.LayerTable.window_query_batch`) and fans the
results back to the waiting callers.

Two effects compound:

* **batching** — one spatial-index dispatch amortises traversal setup over
  every window in the batch;
* **deduplication** — byte-identical windows inside a batch are evaluated
  (and JSON-built) exactly once; duplicate callers share the same immutable
  :class:`~repro.core.query_manager.WindowQueryResult`.

Only plain window queries coalesce (no filters, no server-side decimation);
the front-end routes filtered queries to the direct path, so coalesced and
direct answers are always identical.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field

from ..core.json_builder import build_payload
from ..core.monitoring import ServiceMetrics
from ..core.query_manager import QueryManager, WindowQueryResult
from ..errors import ServiceError
from ..obs import thread_op
from ..spatial.geometry import Rect

__all__ = ["WindowBatchCoalescer"]


@dataclass
class _PendingBatch:
    """Requests gathered for one (dataset, layer) while the window is open."""

    query_manager: QueryManager
    layer: int
    windows: list[Rect] = field(default_factory=list)
    futures: list[asyncio.Future] = field(default_factory=list)
    timer: asyncio.TimerHandle | None = None


class WindowBatchCoalescer:
    """Gathers concurrent window queries and dispatches them as batches.

    Must be used from a single event loop; the blocking batch evaluation runs
    on ``executor`` and results are delivered back through the loop.

    Parameters
    ----------
    executor:
        Thread pool executing the blocking batch work.
    window_seconds:
        How long the first request of a batch waits for company.  ``0`` still
        coalesces requests that arrive in the same event-loop tick (the timer
        fires on the next iteration), which is exactly the concurrent-burst
        case.
    max_batch:
        Dispatch immediately once a batch holds this many requests.
    metrics:
        Optional shared :class:`ServiceMetrics` receiving batch sizes.
    """

    def __init__(
        self,
        executor: Executor,
        window_seconds: float = 0.002,
        max_batch: int = 16,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.executor = executor
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.metrics = metrics
        self._pending: dict[tuple[str, int], _PendingBatch] = {}

    async def submit(
        self,
        dataset: str,
        query_manager: QueryManager,
        window: Rect,
        layer: int = 0,
    ) -> WindowQueryResult:
        """Enqueue one window query and await its (possibly shared) result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = (dataset, layer)
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(query_manager=query_manager, layer=layer)
            self._pending[key] = batch
            batch.timer = loop.call_later(self.window_seconds, self._flush, key)
        batch.windows.append(window)
        batch.futures.append(future)
        if len(batch.windows) >= self.max_batch:
            self._flush(key)
        return await future

    def flush_all(self) -> None:
        """Dispatch every open batch immediately (used on shutdown)."""
        for key in list(self._pending):
            self._flush(key)

    # ----------------------------------------------------------------- internal

    def _flush(self, key: tuple[str, int]) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:
            return  # already dispatched by the size cap racing the timer
        if batch.timer is not None:
            batch.timer.cancel()
        loop = asyncio.get_running_loop()
        try:
            submitted = self.executor.submit(
                _execute_batch, batch.query_manager, batch.layer, batch.windows
            )
        except RuntimeError as exc:
            # The executor shut down while this batch's timer was pending (a
            # request racing service stop).  Fail the callers instead of
            # leaving their futures unresolved forever.
            error = ServiceError(f"service stopped before dispatch: {exc}")
            for future in batch.futures:
                if not future.done():
                    future.set_exception(error)
            return
        submitted.add_done_callback(
            lambda done: loop.call_soon_threadsafe(_deliver, batch.futures, done)
        )
        if self.metrics is not None:
            unique = len({
                (w.min_x, w.min_y, w.max_x, w.max_y) for w in batch.windows
            })
            self.metrics.record_batch(len(batch.windows), unique)


def _deliver(futures: list[asyncio.Future], done) -> None:
    """Fan an executor result (or its exception) back to the waiting callers."""
    error = done.exception()
    if error is not None:
        for future in futures:
            if not future.done():
                future.set_exception(error)
        return
    results = done.result()
    for future, result in zip(futures, results):
        if not future.done():
            future.set_result(result)


def _execute_batch(
    query_manager: QueryManager, layer: int, windows: list[Rect]
) -> list[WindowQueryResult]:
    """Evaluate a batch of windows on one layer (runs on a worker thread).

    Byte-identical windows are collapsed before touching the index: each
    unique window gets one spatial evaluation and one JSON build, and every
    duplicate request receives the same result object.  ``db_query_seconds``
    carries each request's amortised share of the single batched index
    dispatch — one share per *request* (not per unique window), so summing
    it across the whole batch reproduces the real index time even when
    duplicates collapsed.

    Runs under ``thread_op("window.batch")``: the submitting requests' spans
    live on the event-loop thread, so without the tag a profiler sample of
    the batch evaluation — the actual packed-filter work — would read ``-``.
    """
    with thread_op("window.batch"):
        return _execute_batch_inner(query_manager, layer, windows)


def _execute_batch_inner(
    query_manager: QueryManager, layer: int, windows: list[Rect]
) -> list[WindowQueryResult]:
    order: list[tuple[float, float, float, float]] = []
    unique: dict[tuple[float, float, float, float], Rect] = {}
    for window in windows:
        window_key = (window.min_x, window.min_y, window.max_x, window.max_y)
        if window_key not in unique:
            unique[window_key] = window
            order.append(window_key)

    table = query_manager.database.table(layer)
    # Captured before the batch's rows are fetched, so fragment fills made
    # stale by a concurrent edit are dropped rather than cached.
    fragments = table.fragment_fill_guard()
    started = time.perf_counter()
    rows_per_window = table.window_query_batch([unique[k] for k in order])
    db_share = (time.perf_counter() - started) / len(windows)

    chunk_size = query_manager.client_config.chunk_size
    results: dict[tuple[float, float, float, float], WindowQueryResult] = {}
    for window_key, rows in zip(order, rows_per_window):
        started = time.perf_counter()
        payload = build_payload(rows, fragments=fragments)
        json_seconds = time.perf_counter() - started
        results[window_key] = WindowQueryResult(
            layer=layer,
            window=unique[window_key],
            rows=rows,
            payload=payload,
            chunk_size=chunk_size,
            db_query_seconds=db_share,
            json_build_seconds=json_seconds,
            filter_seconds=0.0,
        )
    return [
        results[(w.min_x, w.min_y, w.max_x, w.max_y)] for w in windows
    ]
