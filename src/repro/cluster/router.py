"""The cluster router: one front door for a fleet of worker processes.

The router owns no query engine.  It binds the public HTTP port, keeps a
:class:`~repro.cluster.worker.WorkerHandle` (OS process + persistent
keep-alive client) per worker, and for every request:

1. answers **locally** when it can — ``/datasets`` (static union), cluster
   ``/health``, aggregated ``/metrics``, and any ``/window`` found in the
   cross-request :class:`~repro.cluster.cache.WindowResultCache`;
2. otherwise resolves the request's dataset (query parameter, or the session
   registry for ``/session/<id>/...``), picks the owning worker by rendezvous
   hashing over the *healthy* fleet, and proxies the verbatim target over the
   worker's pooled connections.

Supervision runs alongside: a health loop probes ``GET /health`` on every
worker each ``health_interval_seconds``, feeding per-dataset edit counters to
the window cache (edit-driven invalidation) and counting failures.  A worker
that fails ``max_health_failures`` probes, dies as an OS process, or breaks
mid-proxy is marked unhealthy *immediately* — the rendezvous ring shrinks, so
its datasets re-home to survivors on the very next request (every worker has
every dataset attached lazily; the survivor cold-opens from SQLite and
replays the dataset's write-ahead journal, which PR 2/PR 5 made cheap) — and
the supervisor respawns it in the background.  Session cursors are replicated
router-side (:class:`~repro.cluster.sessions.SessionDirectory`), so a session
whose worker crashed is transparently reopened on the new owner and the
command retried; the client never observes a reset.

Writes (``POST /edit/*``) proxy to the rendezvous owner like reads.  Every
edit carries an idempotency key (client-supplied or router-minted), journalled
with the edit itself, so a write whose connection broke mid-exchange — whose
outcome on the dead worker is ambiguous — can be safely resent to the next
owner: the write coordinator deduplicates keys it has already applied, replay
included.  A write acknowledgement additionally invalidates the router's
window cache eagerly, using the post-edit counter the worker returns, so
read-after-write is consistent without waiting for the next health probe.

Failure handling is deadline- and budget-bounded (PR 6): clients may cap a
request with ``X-GVDB-Deadline-Ms`` (propagated to workers, who refuse to
start work past it), failed attempts retry with jittered exponential backoff
up to ``retry_budget`` times, and per-worker circuit breakers take
persistently failing workers out of the ring between probes.

Replication (PR 7) rides on the write-ahead journal: each supervision pass
reconciles every dataset's rendezvous ranks 1..k into journal-feed
subscribers of the owner (``/replicate/start`` control calls; the workers
stream ``GET /journal/tail`` among themselves), and their ``applied_seq``
watermarks come back on health probes.  When an owner dies, the router
promotes the most-caught-up replica (``/replicate/promote``) and routes the
dataset's reads *and* writes to it through a promotion overlay until
rendezvous routing catches up or the home owner returns.  When an owner is
merely saturated (503), reads fall back to a replica whose lag fits the
staleness bound (``replica_max_lag_records``, or the request's
``X-GVDB-Max-Staleness`` header), answered with ``X-GVDB-Replica`` /
``X-GVDB-Replica-Lag`` provenance headers.  Only when there is no owner
*and* no in-bound replica does a ``/window`` fall back to the stale archive
of the router cache — explicitly marked ``X-GVDB-Stale`` — instead of going
dark.

Observability (PR 8) threads through all of the above: every routed request
runs under a 16-hex trace id (honored from ``X-GVDB-Trace-Id`` or minted
here, echoed in the response, and propagated on every proxied hop), with
``proxy`` / ``proxy.replica`` / ``retry.backoff`` spans recorded into a
bounded :class:`~repro.obs.trace.TraceStore` behind ``GET /debug/trace/<id>``
(the successfully proxied worker's own span tree is grafted under the proxy
span) and a slow-query log behind ``GET /debug/slow``.  The aggregated
``/metrics`` merges per-worker latency histograms bucket-wise and recomputes
fleet-wide p50/p95/p99 (percentiles are not additive), and
``/metrics?format=prometheus`` renders the Prometheus text exposition — see
``docs/observability.md``.  ``GET /debug/profile`` fans a sampling-profiler
collection out to every alive worker and merges the collapsed stacks
fleet-wide; ``GET /debug/memory`` aggregates per-worker memory samples with
the router's own footprint (process RSS plus result-cache bytes), which is
also folded into the merged ``/metrics`` ``memory`` section.

Shutdown is a **drain**: stop admitting (503 + ``Retry-After``), close the
listener, wait for in-flight proxied requests to finish (bounded by
``drain_timeout_seconds``), then SIGTERM the fleet — each worker in turn
drains its own thread pool before exiting.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import random
import threading
import uuid
from collections import OrderedDict
from urllib.parse import parse_qs, urlencode, urlsplit

from .. import obs
from ..config import ClusterConfig, GraphVizDBConfig
from ..core.monitoring import ServiceMetrics
from ..errors import ClusterError, WorkerUnavailableError
from ..obs import percentiles_from_state, render_prometheus
from ..service.http import DEADLINE_HEADER, serve_connection
from ..slo.slo import slo_op_for_path
from .cache import WindowResultCache
from .client import WorkerClient
from .hashing import rendezvous_owner, rendezvous_ranking, rendezvous_replicas
from .resilience import CircuitBreaker, jittered_backoff
from .sessions import SessionDirectory
from .worker import WorkerHandle, WorkerSpec

__all__ = ["ClusterRouter", "ClusterRuntime", "merge_summaries", "STALENESS_HEADER"]

#: Request header letting a client cap how many journal records a replica-
#: served read may trail the owner by (overrides the configured
#: ``replica_max_lag_records`` for that request; ``0`` demands an owner-fresh
#: answer).  Lowercase, because the HTTP layer lowercases header names.
STALENESS_HEADER = "x-gvdb-max-staleness"

#: Absolute (event-loop clock) deadline of the request currently being
#: dispatched, from the client's ``X-GVDB-Deadline-Ms`` header.  A contextvar
#: rather than a parameter because the deadline must reach :meth:`_proxy`
#: through every dispatch path (windows, sessions, edits) without widening
#: each signature; connection handlers are separate tasks, so contexts never
#: bleed between concurrent requests.
_request_deadline: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "gvdb_request_deadline", default=None
)

#: Per-request staleness bound from ``X-GVDB-Max-Staleness`` (same contextvar
#: pattern as the deadline: it must reach the replica fallback through every
#: read dispatch path without widening signatures).
_request_max_staleness: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "gvdb_request_max_staleness", default=None
)


def merge_summaries(summaries: list[dict]) -> dict:
    """Merge worker metrics snapshots: sum numbers, ``max`` the ``peak_*`` ones."""
    merged: dict = {}
    for summary in summaries:
        _merge_into(merged, summary)
    return merged


def _merge_into(target: dict, source: dict) -> dict:
    for key, value in source.items():
        if isinstance(value, dict):
            existing = target.setdefault(key, {})
            if isinstance(existing, dict):
                _merge_into(existing, value)
            else:
                target[key] = dict(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            target[key] = value
        elif key.startswith("peak"):
            target[key] = max(target.get(key, 0), value)
        else:
            target[key] = target.get(key, 0) + value
    return target


class ClusterRouter:
    """Sharded multi-process serving: router, supervisor, and window cache.

    Parameters
    ----------
    datasets:
        ``name -> SQLite path`` of every served dataset.
    config:
        Full configuration; ``config.cluster`` drives fleet size, supervision
        and the cache, and the rest is handed to each worker process (with
        ``service.max_workers`` overridden by ``cluster.worker_threads``).
    metrics:
        Optional externally-owned metrics sink (cluster counters land here).
    """

    def __init__(
        self,
        datasets: dict[str, str],
        config: GraphVizDBConfig | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.config = config or GraphVizDBConfig()
        self.cluster_config: ClusterConfig = self.config.cluster
        if self.cluster_config.num_workers <= 0:
            raise ClusterError("ClusterRouter needs cluster.num_workers >= 1")
        if not datasets:
            raise ClusterError("ClusterRouter needs at least one dataset")
        self.datasets = {name: str(path) for name, path in datasets.items()}
        self.obs_config = self.config.observability
        self.metrics = metrics or ServiceMetrics(
            histograms_enabled=self.obs_config.histogram_enabled
        )
        # The router is where clients experience the cluster, so it runs its
        # own SLO engine over dispatch outcomes; worker-local SLO sections
        # are ignored in the merged view (burn rates don't sum).
        self.metrics.configure_slo(self.config.slo)
        #: Completed request traces (the router's own ring; worker-side span
        #: trees are grafted in on demand by ``/debug/trace/<id>``).
        self.traces = obs.TraceStore(
            ring_size=self.obs_config.trace_ring_size,
            slow_threshold_seconds=self.obs_config.slow_trace_seconds,
            slow_log_size=self.obs_config.slow_log_size,
        )
        self.cache = WindowResultCache(
            capacity=self.cluster_config.cache_capacity,
            # Adaptive sizing: when the workers' dataset pools run under a
            # byte budget, the router cache takes a configured fraction of
            # the same budget instead of an unrelated static knob.
            max_bytes=self.cluster_config.effective_cache_max_bytes(
                self.config.service.pool_max_resident_bytes
            ),
            metrics=self.metrics,
            stale_capacity=(
                self.cluster_config.degraded_stale_entries
                if self.cluster_config.degraded_stale_reads else 0
            ),
            stale_max_bytes=self.cluster_config.degraded_stale_max_bytes,
        )
        self._handles: dict[str, WorkerHandle] = {}
        self._clients: dict[str, WorkerClient] = {}
        #: Per-worker circuit breakers over connection-level failures; an
        #: open breaker removes the worker from the routing ring until a
        #: probe (or proxied request) observes a success.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._backoff_rng = random.Random()
        #: Replicated session cursors (dataset, layer, viewport): the state
        #: that lets a crashed owner's sessions transparently reopen on the
        #: next owner.  Entries leave on close, on an unrecoverable worker
        #: 404, or via the idle sweep in :meth:`probe_workers`.
        self.sessions = SessionDirectory()
        #: Recently seen canonical /keyword and /nearest targets: the
        #: repeat-rate measurement that justified caching those op classes
        #: (bounded sliding windows; still reported so hit rates have a
        #: live denominator to compare against).
        self._repeat_windows: dict[str, OrderedDict[str, None]] = {
            "keyword": OrderedDict(), "nearest": OrderedDict(),
        }
        self._restarting: set[str] = set()
        #: Promotion overlay: ``dataset -> worker`` routed *instead of* the
        #: rendezvous owner after that owner died and a caught-up replica was
        #: promoted.  Entries clear themselves in the reconcile pass once
        #: plain rendezvous routing would pick the same worker (or the home
        #: owner's replacement is back and fresh from disk).
        self._promoted: dict[str, str] = {}
        #: ``dataset -> replica workers`` under the current fleet (rendezvous
        #: ranks 1..k, recomputed each reconcile pass).
        self._replica_sets: dict[str, tuple[str, ...]] = {}
        #: Last replication watermarks each worker reported on ``/health``:
        #: ``worker -> dataset -> {applied_seq, lag, ...}``.  Promotion picks
        #: the most-caught-up candidate from these; the replica read fallback
        #: enforces its staleness bound with them.
        self._replica_status: dict[str, dict[str, dict]] = {}
        #: Control-plane state: ``(replica, dataset) -> (owner, owner_port)``
        #: of the last successful ``/replicate/start``, so the reconcile pass
        #: only re-sends when the assignment (or the owner's endpoint, e.g.
        #: after a restart) actually changed.
        self._replica_sent: dict[tuple[str, str], tuple[str, int]] = {}
        self._inflight = 0
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._restart_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ start

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "ClusterRouter":
        """Spawn the fleet and bind the public endpoint."""
        if self.cluster_config.fault_plan:
            # Configured fault plans cover the router process too (the
            # ``client.exchange`` injection point lives here); workers
            # install the same plan in their own interpreters on spawn.
            from .. import faults

            if faults.active_plan() is None:
                faults.install(
                    faults.FaultPlan.from_json(self.cluster_config.fault_plan)
                )
        worker_config = GraphVizDBConfig(
            partition=self.config.partition,
            layout=self.config.layout,
            abstraction=self.config.abstraction,
            storage=self.config.storage,
            client=self.config.client,
            service=self._worker_service_config(),
            cluster=self.cluster_config,
            write=self.config.write,
            observability=self.config.observability,
            slo=self.config.slo,
        )
        dataset_items = tuple(sorted(self.datasets.items()))
        loop = asyncio.get_running_loop()
        handles = [
            WorkerHandle(spec=WorkerSpec(
                worker_id=f"w{index}",
                datasets=dataset_items,
                config=worker_config,
                host=host,
            ))
            for index in range(self.cluster_config.num_workers)
        ]
        # Register handles before spawning, so a partial spawn failure (or a
        # caller's stop()) can terminate whatever did come up.
        for handle in handles:
            self._handles[handle.worker_id] = handle
        try:
            await asyncio.gather(
                *(loop.run_in_executor(None, handle.spawn) for handle in handles)
            )
        except Exception:
            await asyncio.gather(*(
                loop.run_in_executor(None, handle.terminate) for handle in handles
            ))
            raise
        for handle in handles:
            self._clients[handle.worker_id] = self._make_client(handle)
        try:
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port
            )
        except OSError:
            # The public bind failed (port already in use): the fleet must
            # not be left running — callers that never call stop() (e.g. a
            # failed ClusterRuntime constructor) would otherwise leak N
            # worker processes.
            for client in self._clients.values():
                client.close()
            await asyncio.gather(*(
                loop.run_in_executor(None, handle.terminate) for handle in handles
            ))
            raise
        self._health_task = asyncio.create_task(self._health_loop())
        return self

    def _worker_service_config(self):
        from dataclasses import replace

        return replace(
            self.config.service, max_workers=self.cluster_config.worker_threads
        )

    def _make_client(self, handle: WorkerHandle) -> WorkerClient:
        # Pooled proxy connections expire client-side well inside the
        # worker's keep-alive window, so a stale socket (which would be
        # mistaken for a crash and trigger a restart) stays rare.
        keepalive = self.config.service.http_keepalive_seconds
        return WorkerClient(
            handle.worker_id, handle.spec.host, handle.port,
            timeout_seconds=self.cluster_config.proxy_timeout_seconds,
            idle_expiry_seconds=keepalive / 3 if keepalive > 0 else 0.0,
            metrics=self.metrics,
        )

    @property
    def port(self) -> int:
        """The bound public port (after :meth:`start`)."""
        if self._server is None:
            raise ClusterError("router is not started")
        return self._server.sockets[0].getsockname()[1]

    # ---------------------------------------------------------------- routing

    def alive_workers(self) -> list[str]:
        """Worker ids currently eligible for routing (healthy, in id order).

        A worker whose circuit breaker is open is excluded even if its
        process looks healthy: it has failed ``circuit_breaker_failures``
        consecutive exchanges, and routing to it again only taxes requests
        with connect timeouts.  The health loop keeps probing it; the first
        successful probe closes the circuit and readmits it.
        """
        return [
            worker_id
            for worker_id, handle in sorted(self._handles.items())
            if handle.healthy and not self._breaker(worker_id).is_open
        ]

    def _breaker(self, worker_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(worker_id)
        if breaker is None:
            breaker = CircuitBreaker(self.cluster_config.circuit_breaker_failures)
            self._breakers[worker_id] = breaker
        return breaker

    def _note_worker_failure(self, worker_id: str) -> None:
        """One connection-level failure: feed the breaker, shrink the ring."""
        if self._breaker(worker_id).record_failure():
            self.metrics.record_circuit_open()
        self._mark_worker_failed(worker_id)

    def _note_worker_success(self, worker_id: str) -> None:
        self._breaker(worker_id).record_success()

    def worker_for(self, dataset: str) -> str | None:
        """The dataset's current route target (``None``: no healthy worker).

        Normally the rendezvous owner over the healthy fleet; while a
        promotion overlay entry is live (the natural owner died and a
        caught-up replica took over), the promoted worker is the target for
        reads *and* writes until reconcile re-homes the dataset.
        """
        alive = self.alive_workers()
        promoted = self._promoted.get(dataset)
        if promoted is not None and promoted in alive:
            return promoted
        return rendezvous_owner(dataset, alive)

    def assignment(self) -> dict[str, str | None]:
        """``dataset -> owning worker`` under the current healthy fleet."""
        return {name: self.worker_for(name) for name in sorted(self.datasets)}

    # ------------------------------------------------------------- HTTP server

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Track the connection task so stop() can cancel parked keep-alive
        # reads: on Python >= 3.12 ``wait_closed`` waits for every handler,
        # and an idle connection would otherwise stall the drain until its
        # keep-alive window expires.
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await serve_connection(
                reader, writer, self._respond,
                self.config.service.http_keepalive_seconds,
            )
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _respond(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ):
        if not self.obs_config.trace_enabled:
            return await self._respond_inner(method, target, body, headers)
        # The router mints the request's trace id (or honours the client's
        # ``X-GVDB-Trace-Id``); the contextvar travels through every dispatch
        # path and across the proxy hop (the worker client re-sends the
        # header), so router and worker spans land in one tree.
        trace, trace_token = obs.begin_trace(
            (headers or {}).get(obs.TRACE_HEADER),
            name=f"router {method} {urlsplit(target).path}",
        )
        status = 500
        try:
            result = await self._respond_inner(method, target, body, headers)
            status = result[0]
            extra = dict(result[2]) if len(result) > 2 else {}
            extra.setdefault(obs.TRACE_HEADER_WIRE, trace.trace_id)
            return result[0], result[1], extra
        finally:
            trace.finish("ok" if status < 500 else "error")
            self.traces.add(trace)
            obs.end_trace(trace_token)

    async def _respond_inner(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ):
        self._inflight += 1
        token = None
        staleness_token = None
        remaining = _header_deadline_seconds(headers)
        if remaining is not None:
            if remaining <= 0:
                self._inflight -= 1
                self.metrics.record_deadline_rejection()
                return 504, _json_bytes(
                    {"error": "deadline expired before admission"}
                )
            token = _request_deadline.set(
                asyncio.get_running_loop().time() + remaining
            )
        raw_staleness = (headers or {}).get(STALENESS_HEADER)
        if raw_staleness is not None:
            try:
                staleness_token = _request_max_staleness.set(
                    max(0, int(raw_staleness))
                )
            except ValueError:
                pass  # an unparseable bound falls back to the configured one
        try:
            loop = asyncio.get_running_loop()
            started = loop.time()
            result = await self._dispatch(method, target, body)
            # Feed the SLO engine with the outcome the *client* experienced:
            # full dispatch wall time (cache hits, retries, replica fallbacks
            # and failures included), per operation class.
            op = slo_op_for_path(urlsplit(target).path.rstrip("/") or "/")
            if op is not None:
                self.metrics.record_op_outcome(
                    op, loop.time() - started, result[0]
                )
            return result
        except Exception:  # defence: a router bug must not kill the router
            return 500, _json_bytes({"error": "internal router error"})
        finally:
            if token is not None:
                _request_deadline.reset(token)
            if staleness_token is not None:
                _request_max_staleness.reset(staleness_token)
            self._inflight -= 1

    async def _dispatch(self, method: str, target: str, body: bytes) -> tuple[int, bytes]:
        """Answer one request target: locally, from cache, or via a worker."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = {key: values[-1] for key, values in parse_qs(split.query).items()}
        if self._draining:
            return 503, _json_bytes({"error": "router is draining; retry elsewhere"})
        if path == "/datasets":
            return 200, _json_bytes({"datasets": sorted(self.datasets)})
        if path == "/health":
            return 200, _json_bytes(self.health_summary())
        if path == "/metrics":
            summary = await self.metrics_summary()
            if params.get("format") == "prometheus":
                return 200, render_prometheus(summary).encode(), {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                }
            return 200, _json_bytes(summary)
        if path.startswith("/debug/trace/"):
            payload = self.traces.get(path.rpartition("/")[2])
            if payload is None:
                return 404, _json_bytes({"error": "unknown trace id"})
            return 200, _json_bytes(await self._grafted_trace(payload))
        if path == "/debug/slow":
            try:
                count = max(1, int(params.get("n", "10")))
            except ValueError:
                count = 10
            return 200, _json_bytes({
                "threshold_seconds": self.traces.slow_threshold_seconds,
                "traces": self.traces.slowest(count),
            })
        if path == "/debug/profile":
            return await self._fanout_profile(params)
        if path == "/debug/memory":
            return await self._fanout_memory(params)

        # Everything else belongs to one dataset's owner.
        if path == "/session/new":
            return await self._proxy_session_new(target, params)
        if path.startswith("/session/"):
            return await self._proxy_session(path, target)
        dataset = params.get("dataset")
        if dataset is None:
            return 400, _json_bytes({"error": "bad request: 'dataset'"})
        if dataset not in self.datasets:
            return 404, _json_bytes({
                "error": f"dataset {dataset!r} is not served; available: "
                + (", ".join(sorted(self.datasets)) or "none")
            })
        if path.startswith("/edit/"):
            return await self._proxy_edit(method, target, body, dataset)
        if path == "/window":
            return await self._window(target, params, dataset)
        if path in ("/keyword", "/nearest"):
            return await self._cached_read(path, target, params, dataset)
        return await self._proxy(target, dataset)

    async def _cached_read(
        self, path: str, target: str, params: dict[str, str], dataset: str
    ) -> tuple[int, bytes]:
        """Serve ``/keyword`` or ``/nearest`` through the result cache.

        The repeat-rate counters (PR 5) measured these op classes earning
        double-digit hit rates under session traffic, so they now ride the
        same cache as windows: canonical target key (prefixed with the path
        so op classes can't collide), counter snapshot before the round
        trip, and the shared edit-driven invalidation.  Misses keep the
        replica fallback windows always had.
        """
        kind = path.lstrip("/")
        canonical = _cache_key(params)
        self._record_repeat(kind, canonical)
        key = f"{path}?{canonical}"
        if self.cluster_config.cache_capacity:
            entry = self.cache.get(key, op=kind)
            if entry is not None:
                return entry.status, entry.body
        counter = self.cache.counter_snapshot(dataset)
        status, body = await self._proxy(target, dataset)
        if status == 200 and self.cluster_config.cache_capacity:
            self.cache.put(key, dataset, status, body, counter=counter)
            return status, body
        if status == 503:
            # Owner saturated (or gone): a replica inside the staleness
            # bound beats a 503.
            replica = await self._proxy_replica(target, dataset)
            if replica is not None:
                return replica
        return status, body

    def _record_repeat(self, kind: str, key: str) -> None:
        """Track whether a keyword/kNN target repeats within the recent window.

        This settled the ROADMAP "measure before caching" question with live
        numbers: the repeat rate these counters expose is exactly the hit
        rate the keyword/kNN result cache (enabled since PR 9) can earn.
        """
        window = self._repeat_windows[kind]
        repeat = key in window
        self.metrics.record_read_repeat(kind, repeat)
        if repeat:
            window.move_to_end(key)
        else:
            window[key] = None
            while len(window) > 4096:
                window.popitem(last=False)

    # ------------------------------------------------------------------- edits

    async def _proxy_edit(
        self, method: str, target: str, body: bytes, dataset: str
    ) -> tuple[int, bytes]:
        """Forward a write to the dataset's owner and invalidate eagerly.

        Every proxied edit carries an **idempotency key** (the client's, or
        one the router mints here), persisted in the owner's write-ahead
        journal alongside the edit itself.  That key is what makes write
        retries safe: a broken worker connection is ambiguous — the dead
        worker may have journalled (and durably committed) the edit before
        dying — but resending the same key is harmless, because the write
        coordinator deduplicates keys it has already applied (including
        across journal replay on the next owner).  So unlike the pre-key
        contract, a failed write *is* retried on the next rendezvous owner,
        up to ``retry_budget`` times within the request deadline; the edit
        lands exactly once no matter which attempt got through.  On a 200
        the worker's acknowledgement carries its post-edit edit counter,
        which feeds the window cache *now* — a read-after-write through the
        router must never see a pre-edit cached window, no matter where the
        health probe cadence stands.
        """
        split = urlsplit(target)
        if "idempotency_key" not in parse_qs(split.query):
            separator = "&" if split.query else "?"
            target = f"{target}{separator}idempotency_key={uuid.uuid4().hex}"
        status, response = await self._proxy(
            target, dataset, method=method, body=body, retryable=True
        )
        if status == 200:
            counter: int | None = None
            try:
                counter = int(json.loads(response).get("edit_counter"))
            except (ValueError, TypeError):
                counter = None
            self.cache.note_write(dataset, counter)
        return status, response

    # ------------------------------------------------------------------ window

    async def _window(self, target: str, params: dict[str, str], dataset: str):
        key = f"/window?{_cache_key(params)}"
        entry = self.cache.get(key) if self.cluster_config.cache_capacity else None
        if entry is not None:
            return entry.status, entry.body
        # Snapshot the edit counter before the round trip: if an edit (and
        # its invalidation) lands while the query is in flight, put() sees a
        # moved counter and drops the now-pre-edit response.
        counter = self.cache.counter_snapshot(dataset)
        status, body = await self._proxy(target, dataset)
        if status == 200 and self.cluster_config.cache_capacity:
            self.cache.put(key, dataset, status, body, counter=counter)
            return status, body
        if status == 503:
            # Owner saturated or gone: a replica within the staleness bound
            # is the first fallback — it serves a live (bounded-stale) index,
            # not an archived response.  Replica answers are deliberately not
            # cached: the window cache must only ever hold owner-fresh bodies.
            replica = await self._proxy_replica(target, dataset)
            if replica is not None:
                return replica
        if (
            status in (503, 504)
            and self.cluster_config.degraded_stale_reads
            and self.worker_for(dataset) is None
        ):
            # Last resort: no healthy owner, no replica inside the bound.  A
            # last-known-good window beats a blank viewport mid-incident —
            # but only with the staleness declared, so clients can render it
            # greyed out and keep polling for the live response.
            stale = self.cache.get_stale(key)
            if stale is not None:
                self.metrics.record_degraded_read()
                return 200, stale.body, {
                    "X-GVDB-Stale": "1",
                    "X-GVDB-Degraded": "no-healthy-owner",
                }
        return status, body

    # ---------------------------------------------------------------- sessions

    async def _proxy_session_new(
        self, target: str, params: dict[str, str]
    ) -> tuple[int, bytes]:
        dataset = params.get("dataset")
        if dataset is None:
            return 400, _json_bytes({"error": "bad request: 'dataset'"})
        status, body = await self._proxy(target, dataset)
        if status == 200:
            decoded = json.loads(body)
            session_id = decoded.get("session_id")
            if session_id:
                cursor = self.sessions.record(session_id, dataset)
                reported = decoded.get("cursor")
                if isinstance(reported, dict):
                    cursor.update(reported)
        return status, body

    async def _proxy_session(self, path: str, target: str) -> tuple[int, bytes]:
        _, _, rest = path.partition("/session/")
        session_id, _, op = rest.partition("/")
        cursor = self.sessions.get(session_id)
        if cursor is None:
            return 404, _json_bytes({
                "error": f"session {session_id!r} does not exist on this cluster"
            })
        cursor.touch()
        status, body = await self._proxy(target, cursor.dataset)
        session_alive = True
        if status == 404 and op != "close":
            # 404 is ambiguous: the worker may not know the *session* (its
            # previous owner crashed, or it idle-expired) — or the session
            # is fine and the *command itself* 404'd (e.g. focus_on an
            # unknown node id).  Reopen in place from the replicated cursor
            # on the dataset's current owner and retry once: a recovered
            # session answers the retry (failover), while a command-level
            # 404 repeats — in which case the session provably exists (the
            # reopen just succeeded) and must be neither dropped nor counted
            # as a failover.
            reopen_status, _ = await self._proxy(
                cursor.reopen_target(), cursor.dataset
            )
            if reopen_status == 200:
                status, body = await self._proxy(target, cursor.dataset)
                if status != 404:
                    self.metrics.record_session_failover()
            else:
                session_alive = False
        if status == 200 and op != "close":
            reported = _extract_cursor(body)
            if reported is not None:
                cursor.update(reported)
        if (op == "close" and status in (200, 404)) or not session_alive:
            # An explicit close (or a close on a session no worker knows),
            # or a session that could not even be reopened: drop the
            # directory entry so the map cannot grow with sessions nobody
            # will ever close.
            self.sessions.drop(session_id)
        return status, body

    # ------------------------------------------------------------------- proxy

    async def _proxy(
        self,
        target: str,
        dataset: str,
        method: str = "GET",
        body: bytes = b"",
        retryable: bool | None = None,
    ) -> tuple[int, bytes]:
        """Forward ``target`` to the dataset's owner, retrying within budget.

        Every attempt runs under the request's **deadline** — the router's
        ``proxy_timeout_seconds``, tightened by the client's
        ``X-GVDB-Deadline-Ms`` header if present — and the remaining time is
        propagated to the worker in the same header, so a worker never spends
        longer computing an answer than anyone is still waiting for.

        A broken worker connection feeds the worker's circuit breaker, marks
        it unhealthy (scheduling its restart) and — when the request is
        retryable — retries on the dataset's next rendezvous owner after a
        jittered exponential backoff, up to ``retry_budget`` extra attempts
        or until the deadline runs out, whichever comes first.  GETs are
        retryable by definition; edits are retryable because
        :meth:`_proxy_edit` gives every one an idempotency key the worker
        deduplicates.  With nobody healthy (or the budget exhausted) the
        client gets 503 + ``Retry-After``; a deadline that expires mid-retry
        gets 504.
        """
        if retryable is None:
            retryable = method == "GET"
        loop = asyncio.get_running_loop()
        proxy_started = loop.time()
        deadline = proxy_started + self.cluster_config.proxy_timeout_seconds
        client_deadline = _request_deadline.get()
        if client_deadline is not None:
            deadline = min(deadline, client_deadline)
        attempts = 1 + (self.cluster_config.retry_budget if retryable else 0)
        for attempt in range(attempts):
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.metrics.record_deadline_rejection()
                return 504, _json_bytes({
                    "error": f"deadline exhausted while proxying {method} {target}"
                })
            worker_id = self.worker_for(dataset)
            if worker_id is None:
                break
            client = self._clients[worker_id]
            try:
                with obs.span(
                    "proxy", worker=worker_id, dataset=dataset,
                    attempt=attempt + 1,
                ):
                    status, _, response = await client.request(
                        method, target, body,
                        timeout_seconds=remaining,
                        headers={
                            "X-GVDB-Deadline-Ms": str(max(1, int(remaining * 1000)))
                        },
                        idempotent=retryable and method != "GET",
                    )
            except WorkerUnavailableError:
                self._note_worker_failure(worker_id)
                if attempt + 1 < attempts:
                    self.metrics.record_proxy_retry()
                    if method != "GET":
                        self.metrics.record_edit_retry()
                    delay = jittered_backoff(
                        attempt + 1,
                        self.cluster_config.retry_backoff_base_seconds,
                        self.cluster_config.retry_backoff_max_seconds,
                        self.cluster_config.retry_backoff_jitter,
                        self._backoff_rng,
                    )
                    # Sleeping past the deadline helps nobody; skip straight
                    # to the next attempt and let the deadline check rule.
                    if delay > 0 and loop.time() + delay < deadline:
                        with obs.span("retry.backoff", attempt=attempt + 1):
                            await asyncio.sleep(delay)
                continue
            self._note_worker_success(worker_id)
            self.metrics.record_proxied()
            self.metrics.record_latency("proxy", loop.time() - proxy_started)
            self.metrics.record_latency("proxy.attempts", attempt + 1)
            return status, response
        return 503, _json_bytes({
            "error": f"no healthy worker for dataset {dataset!r}; retry later"
        })

    async def _proxy_replica(self, target: str, dataset: str):
        """Try the dataset's replicas, most-caught-up first, within the bound.

        The staleness bound is the request's ``X-GVDB-Max-Staleness`` header
        if present, otherwise ``replica_max_lag_records``.  A replica is only
        eligible when its last-reported lag fits the bound — a lagging
        replica is skipped entirely (the caller falls through to the owner's
        error or the degraded archive), never silently served.  Successful
        answers carry honest provenance headers: which replica answered and
        how many records it trailed the owner by when last probed.

        Returns ``None`` when no eligible replica produced a 200.
        """
        bound = _request_max_staleness.get()
        if bound is None:
            bound = self.cluster_config.replica_max_lag_records
        alive = set(self.alive_workers())
        owner = self.worker_for(dataset)
        candidates: list[tuple[int, int, str]] = []
        for worker_id in self._replica_sets.get(dataset, ()):
            if worker_id == owner or worker_id not in alive:
                continue
            status = (self._replica_status.get(worker_id) or {}).get(dataset)
            if not isinstance(status, dict) or "applied_seq" not in status:
                continue  # never heard a watermark: staleness is unknowable
            lag = max(0, int(status.get("lag", 0)))
            if lag > bound:
                continue
            candidates.append((lag, -int(status.get("applied_seq", 0)), worker_id))
        candidates.sort()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.cluster_config.proxy_timeout_seconds
        client_deadline = _request_deadline.get()
        if client_deadline is not None:
            deadline = min(deadline, client_deadline)
        for lag, _, worker_id in candidates:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return None
            client = self._clients.get(worker_id)
            if client is None:
                continue
            try:
                with obs.span(
                    "proxy.replica", worker=worker_id, dataset=dataset, lag=lag
                ):
                    status, _, body = await client.request(
                        "GET", target, b"",
                        timeout_seconds=remaining,
                        headers={
                            "X-GVDB-Deadline-Ms": str(max(1, int(remaining * 1000)))
                        },
                    )
            except WorkerUnavailableError:
                self._note_worker_failure(worker_id)
                continue
            if status == 200:
                self._note_worker_success(worker_id)
                self.metrics.record_replica_read()
                headers = {
                    "X-GVDB-Replica": worker_id,
                    "X-GVDB-Replica-Lag": str(lag),
                }
                if lag > 0:
                    headers["X-GVDB-Stale"] = "1"
                return 200, body, headers
        return None

    # -------------------------------------------------------------- supervision

    async def _health_loop(self) -> None:
        interval = self.cluster_config.health_interval_seconds
        jitter = self.cluster_config.health_interval_jitter
        while True:
            # Jittered cadence: many routers (tests, CI, colocated fleets)
            # must not probe — and reconcile-replicate — in lockstep.
            delay = (
                jittered_backoff(1, interval, interval * 2, jitter,
                                 self._backoff_rng)
                if jitter > 0 else interval
            )
            await asyncio.sleep(delay)
            await self.probe_workers()

    async def probe_workers(self) -> None:
        """One supervision pass: probe the fleet concurrently, prune sessions.

        Probes run in parallel (``gather``), so one hung worker costs only
        its own ``health_timeout_seconds`` — not a serial stall that delays
        failure detection and cache invalidation for everyone else.
        """
        await asyncio.gather(*(
            self._probe_worker(worker_id)
            for worker_id in list(self._handles)
            if worker_id not in self._restarting
        ))
        await self._reconcile_replication()
        self._expire_idle_sessions()

    def _expire_idle_sessions(self) -> None:
        """Drop session directory entries idle past the workers' expiry clock.

        Workers expire the sessions themselves after ``session_idle_seconds``;
        this is the router-side mirror, so abandoned sessions (browsers that
        disconnect) do not leak directory entries the lazy 404 path would
        never touch.
        """
        self.sessions.expire_idle(self.config.service.session_idle_seconds)

    async def _probe_worker(self, worker_id: str) -> None:
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        if not handle.is_alive():
            self._mark_worker_failed(worker_id)
            return
        client = self._clients[worker_id]
        try:
            status, health = await client.get_json(
                "/health",
                timeout_seconds=self.cluster_config.health_timeout_seconds,
            )
        except WorkerUnavailableError:
            status, health = 0, {}
            # Probe connections feed the breaker like proxied requests do —
            # the probe of an open-circuit worker *is* the half-open trial.
            if self._breaker(worker_id).record_failure():
                self.metrics.record_circuit_open()
        if status != 200 or health.get("status") != "ok":
            handle.consecutive_failures += 1
            if handle.consecutive_failures >= self.cluster_config.max_health_failures:
                self._mark_worker_failed(worker_id)
        else:
            self._note_worker_success(worker_id)
            handle.consecutive_failures = 0
            handle.healthy = True
            counters = {
                str(name): int(counter)
                for name, counter in health.get("datasets", {}).items()
            }
            handle.edit_counters = counters
            replication = health.get("replication")
            if isinstance(replication, dict):
                self._replica_status[worker_id] = {
                    str(name): status
                    for name, status in replication.items()
                    if isinstance(status, dict)
                }
            # Only the *owner's* counter feeds cache invalidation: every
            # worker reports every dataset (non-owners report 0 since they
            # never opened it), so mixing workers into one counter stream
            # would flap owner/non-owner values and drop the dataset's cache
            # on every probe after the first edit.  An ownership change also
            # changes whose counter is tracked — that difference invalidates
            # too, which is correct: the new owner's state is fresh from
            # disk, not the old owner's in-memory edits.
            owned = {
                dataset: counter
                for dataset, counter in counters.items()
                if self.worker_for(dataset) == worker_id
            }
            self.cache.observe_edit_counters(owned)

    def _mark_worker_failed(self, worker_id: str) -> None:
        """Shrink the routing ring now; restart the worker in the background."""
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        was_routable = handle.healthy
        handle.healthy = False
        # Any promotion overlay pointing at the failed worker is dead weight:
        # routing falls straight back to rendezvous over the survivors.
        for dataset, promoted in list(self._promoted.items()):
            if promoted == worker_id:
                del self._promoted[dataset]
        if was_routable and not self._draining:
            # Datasets this worker was serving lose their owner right now;
            # kick off promotion of their most-caught-up replicas in the
            # background.  Routing does not wait: rendezvous failover (cold
            # open + journal replay on the next-ranked worker) remains the
            # correctness path — promotion is the warm path that usually
            # wins the race.
            lost = [
                dataset for dataset in self.datasets
                if rendezvous_owner(
                    dataset, sorted(set(self.alive_workers()) | {worker_id})
                ) == worker_id
            ]
            if lost and self.cluster_config.replicas_per_dataset > 0:
                task = asyncio.get_running_loop().create_task(
                    self._promote_replicas(worker_id, lost)
                )
                self._restart_tasks.add(task)
                task.add_done_callback(self._restart_tasks.discard)
        if worker_id in self._restarting or self._draining:
            return
        self._restarting.add(worker_id)
        task = asyncio.get_running_loop().create_task(self._restart_worker(worker_id))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart_worker(self, worker_id: str) -> None:
        handle = self._handles[worker_id]
        loop = asyncio.get_running_loop()
        try:
            backoff = self.cluster_config.restart_backoff_seconds
            if self.cluster_config.restart_backoff_jitter > 0:
                # Decorrelate restarts: a correlated fleet failure (OOM
                # killer sweep, machine stall) must not respawn every worker
                # in the same instant and recreate the thundering herd that
                # killed them.
                backoff *= 1.0 + self._backoff_rng.uniform(
                    0.0, self.cluster_config.restart_backoff_jitter
                )
            await asyncio.sleep(backoff)
            self._clients[worker_id].close()
            await loop.run_in_executor(None, handle.terminate, 1.0)
            spawn_future = loop.run_in_executor(None, handle.spawn)
            try:
                await asyncio.shield(spawn_future)
            except asyncio.CancelledError:
                # stop() cancelled the restart mid-spawn.  The executor
                # thread finishes regardless and may assign a live process
                # *after* the fleet was terminated — tear down whatever it
                # produces on a plain thread (the loop may be closing).
                spawn_future.add_done_callback(
                    lambda f: threading.Thread(
                        target=handle.terminate, daemon=True
                    ).start() if f.exception() is None else None
                )
                raise
            if self._draining:
                # Drain raced the respawn: this worker must not outlive it.
                await loop.run_in_executor(None, handle.terminate)
                return
            self._clients[worker_id] = self._make_client(handle)
            # A fresh process has no subscriptions and no watermarks: forget
            # the control-plane state so reconcile re-sends what it needs.
            self._replica_status.pop(worker_id, None)
            for key in list(self._replica_sent):
                if key[0] == worker_id:
                    del self._replica_sent[key]
            self.metrics.record_worker_restart()
        except Exception:
            # The worker stays unhealthy; the next health pass (which skips
            # only workers mid-restart) will find it dead and try again.
            handle.healthy = False
        finally:
            self._restarting.discard(worker_id)

    # -------------------------------------------------------------- replication

    async def _reconcile_replication(self) -> None:
        """Drive every worker's subscriptions toward the desired topology.

        Runs at the end of each supervision pass.  For every dataset: the
        replica set is the rendezvous ranks 1..k over the healthy fleet
        (excluding the current route target), and each replica must be
        subscribed to the *current owner's* endpoint.  Control calls only go
        out when the desired state differs from the last acknowledged one —
        a stable fleet reconciles with zero requests.  The same pass retires
        promotion overlay entries once plain rendezvous routing would pick
        the promoted worker anyway, or the home owner's replacement is back
        (fresh from disk + journal replay, so re-homing loses nothing).
        """
        if (
            self.cluster_config.replicas_per_dataset <= 0
            or not self.config.write.journal_enabled
        ):
            return
        alive = self.alive_workers()
        alive_set = set(alive)
        for dataset, promoted in list(self._promoted.items()):
            if promoted not in alive_set:
                del self._promoted[dataset]
                continue
            if rendezvous_owner(dataset, alive) == promoted:
                del self._promoted[dataset]  # the overlay became the default
                continue
            home = rendezvous_owner(dataset, sorted(self._handles))
            if home in alive_set:
                del self._promoted[dataset]  # the home owner is back
        calls = []
        desired: set[tuple[str, str]] = set()
        for dataset in self.datasets:
            owner = self.worker_for(dataset)
            if owner is None:
                self._replica_sets[dataset] = ()
                continue
            if self._promoted.get(dataset) == owner:
                # Under an overlay the replica set is everyone ranked below
                # the *promoted* owner, which plain rank-slicing cannot
                # express — take the top alive workers that are not it.
                ranked = [
                    worker_id
                    for worker_id in rendezvous_ranking(dataset, alive)
                    if worker_id != owner
                ][: self.cluster_config.replicas_per_dataset]
                replicas = tuple(ranked)
            else:
                replicas = tuple(
                    worker_id
                    for worker_id in rendezvous_replicas(
                        dataset, alive, self.cluster_config.replicas_per_dataset
                    )
                )
            self._replica_sets[dataset] = replicas
            owner_handle = self._handles[owner]
            endpoint = (owner, owner_handle.port)
            for worker_id in replicas:
                desired.add((worker_id, dataset))
                if self._replica_sent.get((worker_id, dataset)) != endpoint:
                    calls.append(self._replicate_start(
                        worker_id, dataset, owner, owner_handle
                    ))
        for key in list(self._replica_sent):
            if key not in desired:
                del self._replica_sent[key]
                if key[0] in alive_set:
                    calls.append(self._replicate_stop(key[0], key[1]))
        if calls:
            await asyncio.gather(*calls, return_exceptions=True)

    async def _replicate_start(
        self, worker_id: str, dataset: str, owner: str, owner_handle: WorkerHandle
    ) -> None:
        client = self._clients.get(worker_id)
        if client is None:
            return
        body = json.dumps({
            "owner_id": owner,
            "owner_host": owner_handle.spec.host,
            "owner_port": owner_handle.port,
        }).encode()
        try:
            status, _, response = await client.request(
                "POST", f"/replicate/start?dataset={dataset}", body,
                timeout_seconds=self.cluster_config.health_timeout_seconds,
            )
        except WorkerUnavailableError:
            return
        if status == 200:
            self._replica_sent[(worker_id, dataset)] = (owner, owner_handle.port)
            # The acknowledgement carries the subscription's watermark —
            # seed the status map so a promotion between health probes has
            # something to rank by.
            try:
                decoded = json.loads(response)
            except ValueError:
                return
            if isinstance(decoded, dict) and "applied_seq" in decoded:
                self._replica_status.setdefault(worker_id, {})[dataset] = {
                    key: value for key, value in decoded.items()
                    if key != "dataset"
                }

    async def _replicate_stop(self, worker_id: str, dataset: str) -> None:
        client = self._clients.get(worker_id)
        if client is None:
            return
        with contextlib.suppress(WorkerUnavailableError):
            await client.request(
                "POST", f"/replicate/stop?dataset={dataset}", b"",
                timeout_seconds=self.cluster_config.health_timeout_seconds,
            )
        status = self._replica_status.get(worker_id)
        if status is not None:
            status.pop(dataset, None)

    async def _promote_replicas(
        self, failed_worker: str, datasets: list[str]
    ) -> None:
        """Promote the most-caught-up replica of each dataset the dead owner held.

        Candidates are ranked by their last-reported ``applied_seq`` (health
        probes and start acknowledgements keep it current).  A successful
        ``/replicate/promote`` — the replica stops its feed, drains its local
        journal copy, and catches up from the authoritative journal — puts
        the worker into the promotion overlay, after which reads *and writes*
        route to it.  Failures simply leave the overlay unset: rendezvous
        failover over the survivors (cold open + replay + idempotency-key
        dedup) already guarantees correctness; promotion only buys the warm
        copy and the most-caught-up choice.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        for dataset in datasets:
            alive = set(self.alive_workers())
            candidates: list[tuple[int, str]] = []
            for worker_id in self._replica_sets.get(dataset, ()):
                if worker_id == failed_worker or worker_id not in alive:
                    continue
                status = (self._replica_status.get(worker_id) or {}).get(dataset)
                if not isinstance(status, dict):
                    continue
                candidates.append((int(status.get("applied_seq", 0)), worker_id))
            candidates.sort(reverse=True)
            for _, worker_id in candidates:
                client = self._clients.get(worker_id)
                if client is None:
                    continue
                try:
                    status_code, _, response = await client.request(
                        "POST", f"/replicate/promote?dataset={dataset}", b"",
                        timeout_seconds=self.cluster_config.health_timeout_seconds,
                    )
                except WorkerUnavailableError:
                    self._note_worker_failure(worker_id)
                    continue
                if status_code != 200:
                    continue
                self._promoted[dataset] = worker_id
                self._replica_sent.pop((worker_id, dataset), None)
                # Ownership moved: cached windows keyed to the old owner's
                # counter stream are no longer trustworthy.
                self.cache.invalidate_dataset(dataset)
                self.metrics.record_promotion((loop.time() - started) * 1000.0)
                await self._reopen_sessions(dataset)
                break

    async def _reopen_sessions(self, dataset: str) -> None:
        """Best-effort: rebuild the dataset's sessions on its new owner now.

        The lazy 404-triggered reopen in :meth:`_proxy_session` remains the
        correctness path; doing it eagerly at promotion just means the first
        post-failover command of each session does not pay the reopen round
        trip.
        """
        for _, cursor in self.sessions.for_dataset(dataset):
            with contextlib.suppress(Exception):
                await self._proxy(cursor.reopen_target(), dataset)

    # ---------------------------------------------------------------- summaries

    def health_summary(self) -> dict[str, object]:
        """The cluster's own health view (no worker round trips)."""
        return {
            "status": "draining" if self._draining else "ok",
            "workers": {
                worker_id: {
                    "healthy": handle.healthy,
                    "alive": handle.is_alive(),
                    "port": handle.port,
                    "generation": handle.generation,
                    "consecutive_failures": handle.consecutive_failures,
                    "circuit": self._breaker(worker_id).state,
                }
                for worker_id, handle in sorted(self._handles.items())
            },
            "assignment": self.assignment(),
            "replication": {
                "promoted": dict(sorted(self._promoted.items())),
                "replica_sets": {
                    dataset: list(replicas)
                    for dataset, replicas in sorted(self._replica_sets.items())
                },
                "watermarks": {
                    worker_id: status
                    for worker_id, status in sorted(self._replica_status.items())
                    if status
                },
            },
            "sessions": len(self.sessions),
            "inflight": self._inflight,
            "cache": self.cache.summary(),
            "slo": self._slo_health(),
        }

    def _slo_health(self) -> dict[str, object]:
        """Non-ok SLO alerts from the router's own engine (client view)."""
        engine = self.metrics.slo
        if engine is None:
            return {}
        return {
            "alerts": {
                op: engine.alert(op)
                for op in sorted(engine.ops())
                if engine.alert(op) != "ok"
            },
        }

    async def metrics_summary(self) -> dict[str, object]:
        """Aggregate worker ``/metrics`` plus the router's own counters."""
        summaries = []
        for worker_id in self.alive_workers():
            client = self._clients[worker_id]
            try:
                status, summary = await client.get_json(
                    "/metrics",
                    timeout_seconds=self.cluster_config.health_timeout_seconds,
                )
            except WorkerUnavailableError:
                continue
            if status == 200 and isinstance(summary, dict):
                summaries.append(summary)
        merged = merge_summaries(summaries)
        coalescer = merged.get("coalescer")
        if isinstance(coalescer, dict):
            # Ratios are not additive across workers; recompute from the
            # summed numerator/denominator.
            batches = coalescer.get("batches", 0)
            coalescer["ratio"] = (
                coalescer.get("requests", 0) / batches if batches else 0.0
            )
        router_summary = self.metrics.summary()
        merged["cluster"] = router_summary["cluster"]
        # The SLO view is the router's own: burn rates and budgets are
        # windowed ratios that cannot be summed across workers, and the
        # router is where clients experience latency and 503s anyway.
        merged["slo"] = router_summary.get("slo", {})
        router_latency = router_summary.get("latency")
        if isinstance(router_latency, dict) and router_latency:
            # The router's own histograms (proxy round trips, attempt counts)
            # merge into the fleet's under the same bucket-summing rules.
            _merge_into(merged.setdefault("latency", {}), router_latency)
        latency = merged.get("latency")
        if isinstance(latency, dict):
            # Percentiles are not additive either; recompute every op's
            # quantiles from the summed bucket counts (same move as the
            # coalescer ratio above).
            for state in latency.values():
                if isinstance(state, dict) and "buckets" in state:
                    state.update(percentiles_from_state(state))
        # Resource accounting (PR 10): fold the router's own footprint into
        # the merged ``memory`` section.  Byte gauges sum (the fleet total
        # now includes the router process and its result cache); the RSS
        # high-water mark rides the same ``peak*`` max rule as the workers'.
        memory = merged.setdefault("memory", {})
        if isinstance(memory, dict):
            router_memory = self._memory_contribution()
            _merge_into(memory, router_memory)
            memory["peak_rss_bytes"] = max(
                int(memory.get("peak_rss_bytes", 0) or 0),
                int(router_memory.get("rss_bytes", 0)),
            )
        merged["router"] = self.health_summary()
        return merged

    def _memory_contribution(self) -> dict[str, int]:
        """The router process's own attributed bytes (merge-ready keys)."""
        cache = self.cache.summary()
        return {
            "rss_bytes": obs.read_rss_bytes(),
            "cache_bytes": int(cache.get("bytes", 0)),
            "cache_stale_bytes": int(cache.get("stale_bytes", 0)),
        }

    async def _fanout_profile(self, params: dict[str, str]) -> tuple[int, bytes]:
        """Profile the whole fleet: collect on every alive worker, merge stacks.

        Every worker samples concurrently for the same window, so wall-clock
        cost is one collection, not one per worker.  Collapsed stacks merge
        by key-wise count summing (:func:`repro.obs.merge_collapsed` — the
        frame format omits line numbers precisely so stacks from different
        processes land on the same keys); per-worker sample counts stay
        visible so a worker drowning in its own work stands out.
        """
        try:
            seconds = float(params.get("seconds", "2"))
        except ValueError:
            seconds = 2.0
        seconds = min(max(seconds, 0.05), self.obs_config.profile_max_seconds)
        query: dict[str, str] = {"seconds": f"{seconds:g}"}
        if "hz" in params:
            with contextlib.suppress(ValueError):
                query["hz"] = str(int(params["hz"]))
        target = "/debug/profile?" + urlencode(query)
        timeout = seconds + 10.0

        async def collect(worker_id: str) -> tuple[str, dict | None]:
            client = self._clients[worker_id]
            try:
                status, decoded = await client.get_json(
                    target, timeout_seconds=timeout
                )
            except WorkerUnavailableError:
                return worker_id, None
            if status == 200 and isinstance(decoded, dict):
                return worker_id, decoded
            return worker_id, None

        results = await asyncio.gather(
            *(collect(worker_id) for worker_id in self.alive_workers())
        )
        profiles = {wid: decoded for wid, decoded in results if decoded is not None}
        if not profiles:
            return 503, _json_bytes({"error": "no worker produced a profile"})
        merged_stacks = obs.merge_collapsed(
            [dict(p.get("stacks", {})) for p in profiles.values()]
        )
        return 200, _json_bytes({
            "seconds": seconds,
            "hz": max(int(p.get("hz", 0)) for p in profiles.values()),
            "samples": sum(int(p.get("samples", 0)) for p in profiles.values()),
            "ticks": sum(int(p.get("ticks", 0)) for p in profiles.values()),
            "stacks": merged_stacks,
            "workers": {
                wid: {
                    "samples": int(p.get("samples", 0)),
                    "ticks": int(p.get("ticks", 0)),
                }
                for wid, p in sorted(profiles.items())
            },
        })

    async def _fanout_memory(self, params: dict[str, str]) -> tuple[int, bytes]:
        """Fleet memory debug: per-worker samples plus the router's own."""
        try:
            top_n = max(1, min(int(params.get("n", "10")), 100))
        except ValueError:
            top_n = 10
        target = f"/debug/memory?n={top_n}"

        async def collect(worker_id: str) -> tuple[str, dict | None]:
            client = self._clients[worker_id]
            try:
                status, decoded = await client.get_json(
                    target,
                    timeout_seconds=self.cluster_config.health_timeout_seconds,
                )
            except WorkerUnavailableError:
                return worker_id, None
            if status == 200 and isinstance(decoded, dict):
                return worker_id, decoded
            return worker_id, None

        results = await asyncio.gather(
            *(collect(worker_id) for worker_id in self.alive_workers())
        )
        workers = {wid: decoded for wid, decoded in results if decoded is not None}
        fleet: dict[str, object] = {}
        for decoded in workers.values():
            sample = decoded.get("sample")
            if isinstance(sample, dict):
                _merge_into(fleet, sample)
        router_memory = self._memory_contribution()
        _merge_into(fleet, router_memory)
        return 200, _json_bytes({
            "fleet": fleet,
            "router": router_memory,
            "workers": dict(sorted(workers.items())),
        })

    async def _grafted_trace(self, payload: dict) -> dict:
        """Attach worker-side span trees to the router's view of one trace.

        The router's ring only holds its own spans (dispatch, proxy attempts,
        backoff).  For every successful proxy span, the worker that answered
        holds the matching server-side trace — same id, because the worker
        client propagates the header — so fetch it and graft its root under
        the proxy span.  The result is the full request tree: queue wait,
        filter, JSON build and journal phases nested inside the hop that
        incurred them.  Best-effort: an unreachable worker (or an id already
        evicted from its ring) just leaves that hop ungrafted.
        """
        grafted = json.loads(json.dumps(payload))  # deep copy; ring stays pure
        trace_id = str(grafted.get("trace_id", ""))
        by_worker: dict[str, dict] = {}
        pending = [grafted.get("root") or {}]
        while pending:
            span = pending.pop()
            if (
                span.get("name") in ("proxy", "proxy.replica")
                and span.get("status") == "ok"
            ):
                worker_id = (span.get("annotations") or {}).get("worker")
                if worker_id:
                    # One graft per worker: retries reuse the trace id, so a
                    # worker's ring holds only its latest attempt anyway.
                    by_worker[str(worker_id)] = span
            pending.extend(span.get("children") or [])
        for worker_id, span in by_worker.items():
            client = self._clients.get(worker_id)
            if client is None:
                continue
            try:
                status, decoded = await client.get_json(
                    f"/debug/trace/{trace_id}",
                    timeout_seconds=self.cluster_config.health_timeout_seconds,
                )
            except WorkerUnavailableError:
                continue
            if (
                status == 200 and isinstance(decoded, dict)
                and isinstance(decoded.get("root"), dict)
            ):
                span.setdefault("children", []).append(decoded["root"])
        return grafted

    # --------------------------------------------------------------- lifecycle

    async def stop(self) -> None:
        """Graceful drain: stop admitting, flush in-flight, terminate the fleet."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        deadline = (
            asyncio.get_running_loop().time()
            + self.cluster_config.drain_timeout_seconds
        )
        while self._inflight > 0 and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        # In-flight work is done (or timed out): cancel lingering connection
        # handlers — idle keep-alive reads must not hold the drain hostage —
        # then let the server finish closing (bounded; on Python >= 3.12
        # wait_closed also waits for handlers, which have just been ended).
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 1.0)
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for task in list(self._restart_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for client in self._clients.values():
            client.close()
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            loop.run_in_executor(None, handle.terminate)
            for handle in self._handles.values()
        ))

    async def __aenter__(self) -> "ClusterRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


def _json_bytes(body: object) -> bytes:
    return json.dumps(body).encode()


def _header_deadline_seconds(headers: dict[str, str] | None) -> float | None:
    """Seconds of budget a client granted via ``X-GVDB-Deadline-Ms``, if any."""
    raw = (headers or {}).get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        return float(raw) / 1000.0
    except ValueError:
        return None


#: How a payload-carrying window answer starts: the worker writes ``meta``
#: (which holds the cursor) before the payload; see ``docs/serving.md``.
_META_PREFIX = b'{"meta": '

#: Bytes after :data:`_META_PREFIX` handed to the decoder.  ``meta`` is a
#: dozen scalars plus the cursor, far below this.
_META_HEAD_BYTES = 4096

_DECODER = json.JSONDecoder()


def _extract_cursor(body: bytes) -> dict[str, object] | None:
    """Pull the ``cursor`` object out of a worker session response.

    A payload answer is never parsed: only its leading ``meta`` object is
    decoded, from a bounded prefix, so the cursor is mirrored whatever the
    payload's size.  Payload-free answers (``meta`` alone, keyword matches,
    plain results) are small and are decoded whole.
    """
    try:
        if body.startswith(_META_PREFIX):
            head = body[len(_META_PREFIX):len(_META_PREFIX) + _META_HEAD_BYTES]
            decoded, _ = _DECODER.raw_decode(head.decode("utf-8", "replace"))
        else:
            decoded = json.loads(body)
    except ValueError:
        return None
    if not isinstance(decoded, dict):
        return None
    cursor = decoded.get("cursor")
    return cursor if isinstance(cursor, dict) else None


async def _cancel_pending_tasks() -> None:
    """Cancel and await every other task on the current loop (teardown helper)."""
    tasks = [
        task for task in asyncio.all_tasks() if task is not asyncio.current_task()
    ]
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def _cache_key(params: dict[str, str]) -> str:
    """Canonical cache key: sorted query items, so param order cannot split hits."""
    return urlencode(sorted(params.items()))


class ClusterRuntime:
    """A :class:`ClusterRouter` running on a background event-loop thread.

    The synchronous face of the cluster, mirroring
    :class:`~repro.service.frontend.ServiceRuntime`: the CLI, benchmarks and
    tests start a fleet with one call and talk plain blocking HTTP to
    ``http://host:port``.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        datasets: dict[str, str],
        config: GraphVizDBConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        self.router = ClusterRouter(datasets, config=config, metrics=metrics)
        self.host = host
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="graphvizdb-cluster", daemon=True
        )
        self._thread.start()
        try:
            self._call(self.router.start(host=host, port=port))
        except BaseException:
            self._shutdown_loop()
            raise

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    @property
    def port(self) -> int:
        """The router's bound public port."""
        return self.router.port

    def probe_workers(self) -> None:
        """Run one supervision pass now (deterministic tests)."""
        self._call(self.router.probe_workers())

    def metrics_summary(self) -> dict[str, object]:
        """Blocking aggregated :meth:`ClusterRouter.metrics_summary`."""
        return self._call(self.router.metrics_summary())

    def health_summary(self) -> dict[str, object]:
        """The router's :meth:`ClusterRouter.health_summary`."""
        return self.router.health_summary()

    def close(self) -> None:
        """Drain the cluster and tear the loop thread down (idempotent)."""
        if not self._thread.is_alive():
            return
        self._call(self.router.stop())
        self._shutdown_loop()

    def _shutdown_loop(self) -> None:
        with contextlib.suppress(Exception):
            # Cancel whatever is still parked on the loop (idle keep-alive
            # connections outlive the drained router) so nothing is destroyed
            # pending when the loop closes.
            self._call(_cancel_pending_tasks())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ClusterRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
