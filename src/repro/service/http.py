"""Dependency-free HTTP endpoint for the serving front-end.

A deliberately small HTTP/1.1 server on ``asyncio`` streams (the container
ships no web framework, and none is needed for a JSON API this size).  It
exposes the online operations of :class:`~repro.service.frontend.GraphVizDBService`
to real network clients:

====================================  =============================================
``GET /datasets``                     served dataset names
``GET /window?dataset=N&...``         window query (optional ``layer``, ``min_x``,
                                      ``min_y``, ``max_x``, ``max_y``, ``payload=1``)
``GET /keyword?dataset=N&q=K&...``    keyword search (optional ``layer``, ``mode``,
                                      ``limit``)
``GET /nearest?dataset=N&x=&y=&...``  kNN rows around a point (optional ``k``,
                                      ``layer``)
``GET /session/new?dataset=N``        open an exploration session (optional
                                      ``layer``, and — for cluster failover —
                                      ``session_id``, ``x``, ``y``, ``zoom``)
``GET /session/<id>/<op>?...``        run a session op (``refresh``, ``pan``, ...)
``GET /session/<id>/close``           close a session (idle ones auto-expire)
``POST /edit/<op>?dataset=N&...``     apply one durable edit (``add_node``,
                                      ``delete_node``, ``move_node``, ``relabel``,
                                      ``add_edge``, ``delete_edge``, ``repack``);
                                      the JSON body carries the op arguments
``GET /metrics``                      serving metrics snapshot (JSON; add
                                      ``?format=prometheus`` for text
                                      exposition)
``GET /debug/trace/<id>``             one completed trace's span tree from
                                      the bounded ring buffer
``GET /debug/slow?n=``                the slow-query log: span trees of the
                                      worst requests above the threshold
``GET /debug/profile?seconds=&hz=``   one sampling-profiler collection:
                                      collapsed stacks tagged with the
                                      active op per sample
``GET /debug/memory?n=``              fresh RSS + component byte attribution
                                      (plus tracemalloc top-N when enabled)
``GET /health``                       liveness + per-dataset edit counters
                                      (+ replication watermarks when subscribed)
``GET /journal/tail?dataset=N&...``   journal feed for read replicas (optional
                                      ``from_seq``, ``max_records``, ``wait_ms``
                                      bounded long-poll)
``POST /replicate/<op>?dataset=N``    replication control plane (``start`` /
                                      ``stop`` / ``promote``), driven by the
                                      cluster router
====================================  =============================================

Edits are journalled before they are applied (see :mod:`repro.writes`); a
200 acknowledgement therefore means the edit is durable against a crashed
worker.  Session responses carry a ``cursor`` object (dataset, layer,
viewport centre, zoom) the cluster router mirrors into its session
directory, so a session can be transparently reopened on another worker
after a failover.

Admission-control rejections surface as HTTP 503 with a ``Retry-After`` hint —
the wire form of the subsystem's explicit backpressure.

Connections are **keep-alive** (HTTP/1.1 default): one connection serves many
sequential requests until the client sends ``Connection: close`` or stays idle
past ``ServiceConfig.http_keepalive_seconds``.  The cluster router depends on
this — its proxy holds persistent connections to every worker.  Each request
additionally runs under ``ServiceConfig.http_request_timeout_seconds``; a
handler that exceeds the budget is abandoned and the client receives 504.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import time
from urllib.parse import parse_qs, urlsplit

from ..core.json_builder import payload_to_json
from ..core.query_manager import KeywordSearchResult, WindowQueryResult
from ..errors import (
    DatasetReadOnlyError,
    GraphVizDBError,
    JournalError,
    LayerNotFoundError,
    QueryError,
    ServiceError,
    ServiceOverloadedError,
    UnknownEditError,
)
from ..faults import FaultInjected, fault_check
from ..obs import (
    TRACE_HEADER,
    TRACE_HEADER_WIRE,
    begin_trace,
    end_trace,
    render_prometheus,
)
from ..slo.slo import slo_op_for_path
from ..spatial.geometry import Point, Rect
from .frontend import GraphVizDBService

__all__ = ["serve_http", "serve_connection", "DEADLINE_HEADER"]

#: Request header carrying the remaining deadline budget in milliseconds.
#: The router stamps it on proxied requests from its own remaining budget;
#: the worker clamps its per-request timeout to it and rejects requests whose
#: deadline already expired at admission (no point computing an answer the
#: proxy has stopped waiting for).
DEADLINE_HEADER = "x-gvdb-deadline-ms"

#: Jittered Retry-After range (seconds) for 503/504 responses: a fleet of
#: clients seeing the same outage must not be told to come back in lockstep.
_RETRY_AFTER_RANGE = (1, 3)
_retry_after_rng = random.Random()

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request bodies past this size are rejected before they are read into
#: memory (an edit payload is a handful of scalars; anything larger is a
#: malformed or hostile client).
_MAX_BODY_BYTES = 1024 * 1024


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond,
    keepalive_seconds: float,
) -> None:
    """Drive one HTTP/1.1 keep-alive connection until it closes.

    The single connection loop shared by the worker endpoint and the cluster
    router: reads requests (idle-expiring after ``keepalive_seconds``; ``0``
    closes after one response), answers methods other than GET/POST with 405,
    and otherwise delegates to ``respond`` — an async callable ``(method,
    target, body, headers) -> (status, payload_bytes)`` (optionally a
    three-tuple with extra response headers) that must not raise, except for
    :class:`~repro.faults.FaultInjected` with the ``drop`` action, which
    closes the connection without a response (the injected "died before
    acking" failure shape).  503/504 responses carry a jittered
    ``Retry-After`` hint (both are the retryable statuses of this API), so
    synchronized clients do not retry as one wave.
    """
    try:
        while True:
            request = await _read_request(reader, idle_seconds=keepalive_seconds)
            if request is None:  # EOF, malformed preamble, or idle expiry
                break
            method, target, headers, body = request
            keep_alive = (
                keepalive_seconds > 0
                and headers.get("connection", "").lower() != "close"
            )
            extra_headers: dict[str, str] = {}
            if method not in ("GET", "POST"):
                status: int = 405
                payload: bytes = json.dumps(
                    {"error": "only GET and POST requests are supported"}
                ).encode()
                keep_alive = False
            else:
                try:
                    result = await respond(method, target, body, headers)
                except FaultInjected:
                    break  # injected connection drop: no response bytes
                if len(result) == 3:
                    status, payload, extra_headers = result
                else:
                    status, payload = result
            retry_after = (
                f"Retry-After: {_retry_after_rng.randint(*_RETRY_AFTER_RANGE)}\r\n"
                if status in (503, 504) else ""
            )
            # JSON unless a handler overrides it (Prometheus exposition is
            # text/plain) — an override moves from extra_headers into the
            # fixed preamble so the header is never emitted twice.
            content_type = extra_headers.pop("Content-Type", "application/json")
            response_headers = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                + retry_after
                + "".join(
                    f"{name}: {value}\r\n"
                    for name, value in extra_headers.items()
                )
                + f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
            )
            writer.write(response_headers.encode() + payload)
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError, ValueError):
        # Client went away mid-exchange, or sent an unparseable preamble
        # (e.g. a request line past the StreamReader limit raises
        # LimitOverrunError, a ValueError) — close without a response.
        pass
    except asyncio.CancelledError:
        # Shutdown cancelled this connection's task (drain closes the
        # listener first, so no admitted request is lost — only the idle
        # keep-alive wait).  Exit quietly instead of letting the stream
        # machinery log the cancellation as an error.
        pass
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def serve_http(
    service: GraphVizDBService,
    host: str = "127.0.0.1",
    port: int = 8080,
    keepalive_seconds: float | None = None,
    request_timeout_seconds: float | None = None,
) -> asyncio.AbstractServer:
    """Start serving ``service`` over HTTP; returns the asyncio server.

    The caller owns the lifecycle: ``server.close()`` + ``await
    server.wait_closed()`` to stop, or ``await server.serve_forever()`` to
    block.  Bind ``port=0`` to let the OS pick a free port (tests do).

    ``keepalive_seconds`` / ``request_timeout_seconds`` override the service
    configuration (``0`` disables keep-alive / the timeout respectively).
    """
    config = service.service_config
    if keepalive_seconds is None:
        keepalive_seconds = config.http_keepalive_seconds
    if request_timeout_seconds is None:
        request_timeout_seconds = config.http_request_timeout_seconds

    async def handle_one(
        method: str, target: str, request_body: bytes,
        request_headers: dict[str, str],
        route_headers: dict[str, str],
    ) -> tuple[int, bytes]:
        try:
            fault_check("worker.request", method=method, target=target)
        except FaultInjected as fault:
            if fault.action == "drop":
                raise  # serve_connection closes the socket without a response
            return 500, json.dumps({"error": str(fault)}).encode()
        # Deadline admission: honour the router's propagated budget.  An
        # already-expired deadline is rejected before any work; otherwise the
        # request timeout is clamped to the remaining budget, so the worker
        # never computes longer than anyone upstream is still waiting.
        budget = request_timeout_seconds
        if urlsplit(target).path.startswith("/debug/profile") and budget > 0:
            # A profile collection legitimately runs for its whole requested
            # window; grant it headroom past the normal request budget (the
            # collection itself clamps to profile_max_seconds).
            budget = max(
                budget,
                service.obs_config.profile_max_seconds + 10.0,
            )
        remaining = _deadline_remaining(request_headers)
        if remaining is not None:
            if remaining <= 0:
                service.metrics.record_deadline_rejection()
                return 504, json.dumps(
                    {"error": "deadline expired before admission"}
                ).encode()
            budget = min(budget, remaining) if budget > 0 else remaining
        try:
            if budget > 0:
                result = await asyncio.wait_for(
                    _respond(service, method, target, request_body), budget
                )
            else:
                result = await _respond(service, method, target, request_body)
            status, body = result[0], result[1]
            if len(result) == 3:
                route_headers.update(result[2])
        except asyncio.TimeoutError:
            status, body = 504, {
                "error": f"request exceeded the {budget:g}s server budget"
            }
        except Exception:  # defence: a handler bug must not kill the server
            status, body = 500, {"error": "internal server error"}
        try:
            fault_check(
                "worker.response", method=method, target=target, status=status
            )
        except FaultInjected as fault:
            if fault.action == "drop":
                # The handler ran to completion (an edit is journalled and
                # applied) but the response is lost: the ambiguous-outcome
                # failure the idempotency-key machinery exists to make safe.
                raise
            return 500, json.dumps({"error": str(fault)}).encode()
        return status, body if isinstance(body, bytes) else json.dumps(body).encode()

    async def respond(
        method: str, target: str, request_body: bytes,
        request_headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        request_headers = request_headers or {}
        # Every request runs under a trace: the id is honored from the
        # router's (or client's) X-GVDB-Trace-Id header, minted otherwise,
        # echoed in the response, and the finished span tree lands in the
        # worker's bounded trace store for /debug/trace and /debug/slow.
        trace = trace_token = None
        if service.obs_config.trace_enabled:
            trace, trace_token = begin_trace(
                request_headers.get(TRACE_HEADER),
                name=f"worker {method} {urlsplit(target).path}",
            )
        route_headers: dict[str, str] = {}
        status = 500
        started = time.monotonic()
        try:
            status, payload = await handle_one(
                method, target, request_body, request_headers, route_headers
            )
        finally:
            # SLO accounting at the outermost layer that still knows the
            # final status: admission 503s, deadline 504s and handler
            # failures all consume budget exactly as the client saw them.
            op = slo_op_for_path(urlsplit(target).path.rstrip("/") or "/")
            if op is not None:
                service.metrics.record_op_outcome(
                    op, time.monotonic() - started, status
                )
            if trace is not None:
                trace.finish("ok" if status < 500 else "error")
                service.traces.add(trace)
                end_trace(trace_token)
                route_headers.setdefault(TRACE_HEADER_WIRE, trace.trace_id)
        return status, payload, route_headers

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        await serve_connection(reader, writer, respond, keepalive_seconds)

    return await asyncio.start_server(handle, host=host, port=port)


def _deadline_remaining(headers: dict[str, str]) -> float | None:
    """Seconds left on the request's propagated deadline (``None``: no header)."""
    raw = headers.get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        return float(raw) / 1000.0
    except ValueError:
        return None


async def _read_request(
    reader: asyncio.StreamReader, idle_seconds: float
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read one full request: ``(method, target, headers, body)``.

    Returns ``None`` on EOF, on a malformed request line, on an oversized
    body, or when no request arrives within the keep-alive idle window
    (``idle_seconds > 0``) — all cases where the connection should simply be
    closed.
    """
    try:
        if idle_seconds > 0:
            first = await asyncio.wait_for(reader.readline(), idle_seconds)
        else:
            first = await reader.readline()
    except asyncio.TimeoutError:
        return None
    request_line = first.decode("latin-1").strip()
    parts = request_line.split()
    if len(parts) != 3:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        return None
    if length:
        if length < 0 or length > _MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length)
    return parts[0], parts[1], headers, body


async def _respond(
    service: GraphVizDBService, method: str, target: str, body: bytes
) -> tuple[int, object]:
    """Dispatch one request target and produce ``(status, json_body_or_bytes)``."""
    split = urlsplit(target)
    path = split.path.rstrip("/") or "/"
    params = {key: values[-1] for key, values in parse_qs(split.query).items()}
    try:
        return await _route(service, method, path, params, body)
    except ServiceOverloadedError as exc:
        return 503, {"error": str(exc), "queue_depth": exc.queue_depth}
    except (KeyError, ValueError, UnknownEditError) as exc:
        return 400, {"error": f"bad request: {exc}"}
    except (QueryError, LayerNotFoundError) as exc:
        # Lookup failures (unknown dataset/layer/node/session) are the
        # client's fault: not found.
        return 404, {"error": str(exc)}
    except DatasetReadOnlyError as exc:
        # Fail-stop degraded mode: the journal's storage is failing, so the
        # dataset rejects writes while reads continue.  503 (not 500): the
        # router may retry on another owner whose storage is healthy.
        return 503, {"error": str(exc), "read_only": True}
    except JournalError as exc:
        # The edit could not be made durable: a server-side storage problem,
        # and emphatically not retryable-as-503 (retrying cannot help until
        # an operator fixes the journal's disk).
        return 500, {"error": str(exc)}
    except ServiceError as exc:
        # e.g. a request racing shutdown — retryable, like overload.
        return 503, {"error": str(exc)}
    except GraphVizDBError as exc:
        # Anything else (corrupt storage, index failures) is a server-side
        # problem; 404 would mislead clients and monitoring into treating it
        # as a bad URL.
        return 500, {"error": str(exc)}


async def _route(
    service: GraphVizDBService,
    method: str,
    path: str,
    params: dict[str, str],
    body: bytes,
) -> tuple[int, object]:
    if path.startswith("/edit/"):
        if method != "POST":
            return 405, {"error": "edits require POST"}
        return await _route_edit(service, path, params, body)
    if path.startswith("/replicate/"):
        if method != "POST":
            return 405, {"error": "replication control requires POST"}
        return await _route_replicate(service, path, params, body)
    if method != "GET":
        return 405, {"error": f"{path} only supports GET"}
    if path == "/journal/tail":
        frame = await service.journal_tail(
            params["dataset"],
            from_seq=int(params.get("from_seq", "0")),
            max_records=max(1, min(int(params.get("max_records", "256")), 4096)),
            wait_seconds=min(float(params.get("wait_ms", "0")) / 1000.0, 5.0),
        )
        return 200, frame
    if path == "/datasets":
        return 200, {"datasets": service.datasets()}
    if path == "/metrics":
        summary = service.metrics_summary()
        if params.get("format") == "prometheus":
            labels = {"worker": service.worker_id} if service.worker_id else {}
            return 200, render_prometheus(summary, labels).encode(), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }
        return 200, summary
    if path.startswith("/debug/trace/"):
        trace_id = path.rpartition("/")[2]
        payload = service.traces.get(trace_id)
        if payload is None:
            return 404, {"error": f"no trace {trace_id!r} in the ring buffer"}
        return 200, payload
    if path == "/debug/slow":
        return 200, {
            "threshold_seconds": service.traces.slow_threshold_seconds,
            "traces": service.traces.slowest(int(params.get("n", "10"))),
        }
    if path == "/debug/profile":
        # One bounded profile collection; blocks an executor thread for the
        # whole window (handle_one grants this path extra budget headroom).
        result = await service._run(
            service.profile,
            float(params.get("seconds", "2")),
            int(params["hz"]) if "hz" in params else None,
        )
        return 200, result
    if path == "/debug/memory":
        report = await service._run(
            service.memory_debug, max(1, min(int(params.get("n", "10")), 100))
        )
        return 200, report
    if path == "/health":
        # Liveness must answer even while the service drains (the router
        # watches workers through their whole lifecycle).
        return 200, service.health_snapshot()
    if path == "/window":
        result = await service.window_query(
            params["dataset"],
            window=_window_from(params),
            layer=int(params.get("layer", "0")),
        )
        return 200, _window_body(result, with_payload=params.get("payload") == "1")
    if path == "/keyword":
        result = await service.keyword_search(
            params["dataset"],
            params["q"],
            layer=int(params.get("layer", "0")),
            mode=params.get("mode", "contains"),
            limit=int(params["limit"]) if "limit" in params else None,
        )
        return 200, _keyword_body(result)
    if path == "/nearest":
        rows = await service.nearest(
            params["dataset"],
            Point(float(params["x"]), float(params["y"])),
            k=int(params.get("k", "1")),
            layer=int(params.get("layer", "0")),
        )
        return 200, {"rows": [_row_body(row) for row in rows]}
    if path == "/session/new":
        center = None
        if "x" in params and "y" in params:
            center = Point(float(params["x"]), float(params["y"]))
        session_id = await service.create_session(
            params["dataset"],
            start_layer=int(params.get("layer", "0")),
            session_id=params.get("session_id"),
            center=center,
            zoom=float(params["zoom"]) if "zoom" in params else None,
        )
        return 200, {
            "session_id": session_id,
            "cursor": service.session_cursor(session_id),
        }
    if path.startswith("/session/"):
        _, _, rest = path.partition("/session/")
        session_id, _, op = rest.partition("/")
        if not session_id or not op:
            return 400, {"error": "use /session/<id>/<op>"}
        if op == "close":
            closed = await service.close_session(session_id)
            return 200, {"closed": closed}
        result = await service.session_command(
            session_id, op, **_session_kwargs(op, params)
        )
        cursor = service.session_cursor(session_id)
        if isinstance(result, WindowQueryResult):
            return 200, _window_body(
                result, with_payload=params.get("payload") == "1", cursor=cursor
            )
        if isinstance(result, KeywordSearchResult):
            keyword_body = _keyword_body(result)
            keyword_body["cursor"] = cursor
            return 200, keyword_body
        return 200, {"result": result, "cursor": cursor}
    return 404, {"error": f"unknown path {path!r}"}


async def _route_replicate(
    service: GraphVizDBService, path: str, params: dict[str, str], body: bytes
) -> tuple[int, object]:
    """Drive the worker's replication manager (router control plane).

    ``POST /replicate/start`` (JSON body: ``owner_id``, ``owner_host``,
    ``owner_port``) subscribes a dataset to its owner's journal feed;
    ``/replicate/stop`` unsubscribes; ``/replicate/promote`` stops the feed,
    drains the local journal copy and reports the final ``applied_seq`` —
    after which the router routes the dataset's reads *and writes* here.
    """
    _, _, op = path.partition("/replicate/")
    manager = service.replication
    if manager is None:
        return 503, {"error": "replication is not enabled on this worker"}
    dataset = params["dataset"]
    try:
        args = json.loads(body) if body else {}
    except ValueError as exc:
        return 400, {"error": f"bad request: body is not JSON ({exc})"}
    if not isinstance(args, dict):
        return 400, {"error": "bad request: body must be a JSON object"}
    if op == "start":
        result = await service._run(
            manager.start,
            dataset,
            str(args["owner_id"]),
            str(args["owner_host"]),
            int(args["owner_port"]),
        )
    elif op == "stop":
        result = await service._run(manager.stop, dataset)
    elif op == "promote":
        result = await service._run(manager.promote, dataset)
    else:
        return 400, {"error": "use POST /replicate/{start,stop,promote}"}
    return 200, result


async def _route_edit(
    service: GraphVizDBService, path: str, params: dict[str, str], body: bytes
) -> tuple[int, object]:
    """Apply one ``POST /edit/<op>`` request through the write coordinator."""
    _, _, op = path.partition("/edit/")
    if not op or "/" in op:
        return 400, {"error": "use POST /edit/<op>?dataset=<name>"}
    try:
        args = json.loads(body) if body else {}
    except ValueError as exc:
        return 400, {"error": f"bad request: edit body is not JSON ({exc})"}
    if not isinstance(args, dict):
        return 400, {"error": "bad request: edit body must be a JSON object"}
    result = await service.edit(
        params["dataset"], op, args, layer=int(params.get("layer", "0")),
        idempotency_key=params.get("idempotency_key"),
    )
    return 200, result


def _window_from(params: dict[str, str]) -> Rect | None:
    keys = ("min_x", "min_y", "max_x", "max_y")
    if not any(key in params for key in keys):
        return None
    return Rect(*(float(params[key]) for key in keys))


def _session_kwargs(op: str, params: dict[str, str]) -> dict[str, object]:
    """Translate query parameters into the session method's arguments."""
    if op == "pan":
        return {"dx_px": float(params["dx"]), "dy_px": float(params["dy"])}
    if op in ("zoom", "zoom_lod"):
        return {"factor": float(params["factor"])}
    if op == "jump_to":
        return {"center": Point(float(params["x"]), float(params["y"]))}
    if op == "change_layer":
        return {"new_layer": int(params["layer"])}
    if op == "search":
        kwargs: dict[str, object] = {"keyword": params["q"]}
        if "limit" in params:
            kwargs["limit"] = int(params["limit"])
        return kwargs
    if op == "focus_on":
        return {"node_id": int(params["node_id"])}
    return {}


def _window_body(
    result: WindowQueryResult,
    with_payload: bool = False,
    cursor: dict[str, object] | None = None,
) -> bytes:
    meta = {
        "layer": result.layer,
        "num_objects": result.num_objects,
        "num_rows": len(result.rows),
        "num_chunks": result.num_chunks,
        "total_bytes": result.total_bytes,
        "db_query_seconds": result.db_query_seconds,
        "filter_seconds": result.filter_seconds,
        "json_build_seconds": result.json_build_seconds,
        "server_seconds": result.server_seconds,
    }
    if cursor is not None:
        meta["cursor"] = cursor
    if not with_payload:
        return json.dumps(meta).encode()
    # The payload is already JSON (fragment-cached concatenation); splice it
    # in verbatim instead of parse + re-encode.  The cursor rides at the
    # front of the object so the router can mirror it without scanning past
    # a large payload.
    return (
        b'{"meta": ' + json.dumps(meta).encode()
        + b', "payload": ' + payload_to_json(result.payload).encode()
        + b"}"
    )


def _keyword_body(result: KeywordSearchResult) -> dict[str, object]:
    return {
        "keyword": result.keyword,
        "layer": result.layer,
        "num_matches": result.num_matches,
        "matches": result.matches,
        "search_seconds": result.search_seconds,
    }


def _row_body(row) -> dict[str, object]:
    return {
        "row_id": row.row_id,
        "node1_id": row.node1_id,
        "node1_label": row.node1_label,
        "edge_label": row.edge_label,
        "node2_id": row.node2_id,
        "node2_label": row.node2_label,
    }
