"""Span recording around the public entry points of each serving layer.

:func:`install` replaces selected methods of the ``repro`` package with thin
wrappers that record ``(name, start, end, span_id, parent_id, request_id)``
into an in-process :class:`SpanRecorder`.  Nothing in ``src/`` changes: the
traced server is started through ``traced_serve.py``, which calls
:func:`install` at import time.  Worker processes are started with the
``spawn`` method, which re-imports the parent's main module, so the wrappers
are installed in every worker as well as in the router.

The request id is the ``X-GVDB-Trace-Id`` the benchmark client sends; the
router and workers already carry it in ``repro.obs.current_trace_id()``
(including across executor hops made by ``GraphVizDBService._run``).  Work
that runs outside any request context -- a coalesced window batch -- is
recorded with no request id and attributed later by time containment.

All timestamps come from ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC``: spans recorded in the client, router and workers share
one clock, so a request's spans from all three processes nest by time.

Spans and value samples stay in memory and are written once, at process
exit, to ``$PERFBENCH_SPANS_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import multiprocessing
import os
import threading
import time

__all__ = ["SPANS_ENV", "SpanRecorder", "install", "install_from_environment"]

#: Directory the traced processes write their spans into.
SPANS_ENV = "PERFBENCH_SPANS_DIR"

#: Every Nth traced window also pays for an index-only count, to measure how
#: many index candidates each returned row costs (kept sparse so the traced
#: run's overhead stays small).
_CANDIDATE_SAMPLE_EVERY = 4

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span and sample store of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add_span(self, name, start, end, span_id, parent, request_id) -> None:
        self.spans.append([name, start, end, span_id, parent, request_id])

    def add_sample(self, name: str, value: float) -> None:
        """Record a value with the time it was taken."""
        with self._lock:
            self.samples.setdefault(name, []).append((_clock(), value))

    def dump(self, path: str, role: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "pid": os.getpid(), "role": role,
                "spans": self.spans, "samples": self.samples,
            }, handle)


def _request_id() -> str | None:
    from repro.obs import current_trace_id

    return current_trace_id()


def _wrap_sync(recorder: SpanRecorder, owner, attr: str, name: str, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_id = recorder.next_id()
        token = recorder.current.set(span_id)
        parent = _parent_of(recorder, token)
        start = _clock()
        try:
            result = original(*args, **kwargs)
        finally:
            end = _clock()
            recorder.current.reset(token)
            recorder.add_span(name, start, end, span_id, parent, _request_id())
        if after is not None:
            after(args, result, end - start)
        return result

    setattr(owner, attr, wrapper)


def _wrap_async(recorder: SpanRecorder, owner, attr: str, name: str):
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        span_id = recorder.next_id()
        token = recorder.current.set(span_id)
        parent = _parent_of(recorder, token)
        start = _clock()
        try:
            return await original(*args, **kwargs)
        finally:
            end = _clock()
            recorder.current.reset(token)
            recorder.add_span(name, start, end, span_id, parent, _request_id())

    setattr(owner, attr, wrapper)


def _overhead(recorder: SpanRecorder, started: float) -> None:
    """Span the benchmark's own measuring work, so that no layer's self time
    absorbs it."""
    recorder.add_span("bench.overhead", started, _clock(), recorder.next_id(),
                      recorder.current.get(), _request_id())


def _parent_of(recorder: SpanRecorder, token) -> int:
    parent = token.old_value
    return 0 if parent is contextvars.Token.MISSING else parent


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer entry points of the router and worker code paths."""
    from repro.cluster import client as cluster_client
    from repro.cluster import router as cluster_router
    from repro.cluster import worker as cluster_worker
    from repro.core import json_builder, query_manager, session
    from repro.service import coalescer, frontend, pool
    from repro.storage import table as storage_table
    from repro.writes import coordinator, journal

    # -- router -----------------------------------------------------------
    _wrap_async(recorder, cluster_router.ClusterRouter, "_dispatch",
                "cluster.router.dispatch")
    _wrap_async(recorder, cluster_client.WorkerClient, "request",
                "cluster.client.request")
    _wrap_sync(recorder, cluster_worker.WorkerHandle, "spawn",
               "cluster.worker.spawn")

    # -- worker front end -------------------------------------------------
    service = frontend.GraphVizDBService
    for method in ("window_query", "keyword_search", "nearest", "edit",
                   "create_session", "session_command", "close_session"):
        _wrap_async(recorder, service, method, "service.frontend")
    _wrap_run(recorder, service)
    _wrap_coalescer(recorder, coalescer)
    _wrap_sync(recorder, pool.DatasetPool, "_open", "service.pool.open")

    # -- query path -------------------------------------------------------
    for method in ("refresh", "pan", "zoom", "jump_to", "change_layer",
                   "zoom_with_level_of_detail", "focus_on"):
        _wrap_sync(recorder, session.ExplorationSession, method, "core.session")
    for method in ("window_query", "keyword_search"):
        _wrap_sync(recorder, query_manager.QueryManager, method,
                   "core.query_manager")
    _wrap_table(recorder, storage_table.LayerTable)
    _wrap_build_payload(recorder, json_builder, (query_manager, coalescer))

    # -- write path -------------------------------------------------------
    _wrap_sync(recorder, coordinator.WriteCoordinator, "apply_sync",
               "writes.coordinator.apply")
    _wrap_sync(recorder, journal.WriteAheadJournal, "append",
               "writes.journal.append")
    _wrap_sync(recorder, journal.WriteAheadJournal, "sync",
               "writes.journal.sync")
    original_add_phase = journal.add_phase

    def add_phase(name, seconds, **annotations):
        # The journal times its own in-append fsync; that timer is the only
        # boundary around the fsync call.
        if name == "journal.fsync":
            recorder.add_sample("writes.journal.fsync_s", seconds)
        return original_add_phase(name, seconds, **annotations)

    journal.add_phase = add_phase


def _wrap_run(recorder: SpanRecorder, service_class) -> None:
    """Time the executor queue wait of every ``GraphVizDBService._run`` call."""
    original = service_class._run

    @functools.wraps(original)
    async def _run(self, fn, *args, **kwargs):
        queued = _clock()
        parent = recorder.current.get()
        request_id = _request_id()

        def timed(*inner_args, **inner_kwargs):
            recorder.add_span("service.frontend.queue_wait", queued, _clock(),
                              recorder.next_id(), parent, request_id)
            return fn(*inner_args, **inner_kwargs)

        return await original(self, timed, *args, **kwargs)

    service_class._run = _run


def _wrap_coalescer(recorder: SpanRecorder, coalescer_module) -> None:
    """Record coalescer batch size and hold time, and span the batch work."""
    cls = coalescer_module.WindowBatchCoalescer
    opened: dict[tuple[int, tuple], float] = {}
    original_submit = cls.submit
    original_flush = cls._flush

    @functools.wraps(original_submit)
    def submit(self, dataset, query_manager, window, layer=0):
        key = (dataset, layer)
        if key not in self._pending:
            opened[(id(self), key)] = _clock()
        return original_submit(self, dataset, query_manager, window, layer)

    @functools.wraps(original_flush)
    def _flush(self, key):
        batch = self._pending.get(key)
        started = opened.pop((id(self), key), None)
        if batch is not None and started is not None:
            recorder.add_sample("service.coalescer.batch_size",
                                float(len(batch.windows)))
            recorder.add_sample("service.coalescer.hold_s", _clock() - started)
        return original_flush(self, key)

    cls.submit = submit
    cls._flush = _flush
    _wrap_async(recorder, cls, "submit", "service.coalescer.submit")
    # ``_flush`` resolves ``_execute_batch`` from the module globals at call
    # time, so wrapping the module attribute reaches the executor thread.
    _wrap_sync(recorder, coalescer_module, "_execute_batch",
               "service.coalescer.batch")


def _wrap_table(recorder: SpanRecorder, table_class) -> None:
    calls = itertools.count()

    def probe(args, result, seconds) -> None:
        table = args[0]
        dynamic = type(table.rtree).__name__ != "PackedRTree"
        recorder.add_sample("spatial.dynamic_probe", 1.0 if dynamic else 0.0)

    def window_probe(args, result, seconds) -> None:
        probe(args, result, seconds)
        if next(calls) % _CANDIDATE_SAMPLE_EVERY == 0 and result:
            started = _clock()
            table, window = args[0], args[1]
            recorder.add_sample("storage.table.candidates",
                                float(table.count_window_index(window)))
            recorder.add_sample("storage.table.rows", float(len(result)))
            _overhead(recorder, started)

    _wrap_sync(recorder, table_class, "window_query", "storage.table.window",
               after=window_probe)
    _wrap_sync(recorder, table_class, "window_query_batch",
               "storage.table.window", after=probe)
    _wrap_sync(recorder, table_class, "nearest", "storage.table.nearest",
               after=probe)
    _wrap_sync(recorder, table_class, "keyword_search", "storage.table.keyword")

    def repacked(args, changed, seconds) -> None:
        # Tables that are already packed return at once; only real rebuilds
        # are repack work.
        if changed:
            recorder.add_sample("storage.table.repack_s", seconds)

    _wrap_sync(recorder, table_class, "repack", "storage.table.repack",
               after=repacked)


def _wrap_build_payload(recorder: SpanRecorder, json_builder, modules) -> None:
    """Span ``build_payload`` wherever it is bound by name."""
    payload_to_json = json_builder.payload_to_json

    def size(args, payload, seconds) -> None:
        if payload.num_objects:
            started = _clock()
            recorder.add_sample("core.json_builder.bytes",
                                float(len(payload_to_json(payload))))
            recorder.add_sample("core.json_builder.objects",
                                float(payload.num_objects))
            _overhead(recorder, started)

    for module in modules:
        _wrap_sync(recorder, module, "build_payload", "core.json_builder.build",
                   after=size)


def install_from_environment() -> None:
    """Install the wrappers when ``$PERFBENCH_SPANS_DIR`` names a directory."""
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    recorder = SpanRecorder()
    install(recorder)
    role = "router" if multiprocessing.parent_process() is None else "worker"
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    atexit.register(recorder.dump, path, role)
