"""Closed-loop replay of a session trace over keep-alive HTTP connections.

Each connection is one browser tab: a thread that takes the next session
from the shared trace and sends its ops in order, each only after the
previous answer arrived (zero think time).  Every request's latency is kept
as a raw sample; percentiles are computed from these samples, never from
histogram buckets.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from .workloads import Op, SessionSource

__all__ = ["Sample", "ReplayResult", "replay"]

_clock = time.perf_counter
_SID = "{sid}"
_META_PREFIX = b'{"meta": '

#: Op classes whose answers are kept (every Nth) for the answer checker.
_CHECKED = ("pan_zoom", "window", "keyword", "nearest")


@dataclass
class Sample:
    """One request as the client saw it."""

    op: Op
    start: float
    end: float
    status: int
    nbytes: int = 0
    objects: int = 0
    request_id: str | None = None
    body: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class ReplayResult:
    """All samples of a replay; the measured ones started after the warm-up."""

    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    measured_from: float = 0.0
    finished: float = 0.0

    @property
    def measured(self) -> list[Sample]:
        return [s for s in self.samples if s.start >= self.measured_from]

    @property
    def wall_seconds(self) -> float:
        return self.finished - self.measured_from


def _objects(op: Op, body: bytes) -> int:
    """Graph objects (or matches / rows) in an answer; raises on bad JSON."""
    if op.cls in ("pan_zoom", "window"):
        if not body.startswith(_META_PREFIX):
            raise ValueError("window answer without meta")
        head = body[:4096].decode("utf-8", errors="ignore")
        meta, _ = json.JSONDecoder().raw_decode(head, len(_META_PREFIX))
        return int(meta["num_objects"])
    if op.cls == "keyword":
        return len(json.loads(body)["matches"])
    if op.cls == "nearest":
        return len(json.loads(body)["rows"])
    return 0


def replay(
    host: str,
    port: int,
    source: SessionSource,
    seconds: float,
    warmup_seconds: float = 0.0,
    on_warm=None,
    connections: int = 2,
    keep_every: int = 6,
    traced: bool = False,
) -> ReplayResult:
    """Replay sessions from ``source`` on ``connections`` tabs.

    The replay runs ``warmup_seconds + seconds`` without a pause; samples
    that start after the warm-up are the measured ones, and ``on_warm`` is
    called at that boundary (to snapshot server counters).

    Every ``keep_every``-th checked answer per connection, every edit
    acknowledgement and every session-open answer keep their body.  With
    ``traced`` each request carries a unique ``X-GVDB-Trace-Id`` so server
    spans can be joined to the client's sample.
    """
    result = ReplayResult()
    lock = threading.Lock()
    barrier = threading.Barrier(connections + 1)
    deadline = [0.0]
    errors: list[BaseException] = []

    def tab(index: int) -> None:
        samples: list[Sample] = []
        conn = http.client.HTTPConnection(host, port, timeout=60)
        counter = 0
        barrier.wait()
        try:
            while _clock() < deadline[0]:
                session_id = None
                for op in source.next():
                    if _clock() >= deadline[0]:
                        break
                    target = op.target
                    if _SID in target:
                        if session_id is None:
                            continue  # the open failed; its session is skipped
                        target = target.replace(_SID, session_id)
                    counter += 1
                    headers = {}
                    request_id = None
                    if traced:
                        request_id = f"{index:02x}{counter:014x}"
                        headers["X-GVDB-Trace-Id"] = request_id
                    body = op.body.encode() if op.body is not None else None
                    if body is not None:
                        headers["Content-Type"] = "application/json"
                    started = _clock()
                    try:
                        conn.request(op.method, target, body=body, headers=headers)
                        response = conn.getresponse()
                        data = response.read()
                        status, error = response.status, None
                    except (OSError, http.client.HTTPException) as exc:
                        data, status, error = b"", 0, f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = http.client.HTTPConnection(host, port, timeout=60)
                    ended = _clock()
                    sample = Sample(op, started, ended, status, len(data),
                                    request_id=request_id, error=error)
                    if sample.ok:
                        try:
                            sample.objects = _objects(op, data)
                            if op.cls == "session_open":
                                session_id = json.loads(data)["session_id"]
                        except (ValueError, KeyError) as exc:
                            sample.error = f"malformed answer: {exc}"
                    if op.cls in ("edit", "session_open") or (
                        op.cls in _CHECKED and counter % keep_every == 0
                    ):
                        sample.body = data
                    samples.append(sample)
        except BaseException as exc:  # recorded and re-raised in the caller
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                result.samples.extend(samples)

    threads = [threading.Thread(target=tab, args=(i,), daemon=True)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    result.started = _clock()
    result.measured_from = result.started + warmup_seconds
    deadline[0] = result.measured_from + seconds
    barrier.wait()
    if on_warm is not None:
        time.sleep(max(0.0, result.measured_from - _clock()))
        on_warm()
    for thread in threads:
        thread.join()
    result.finished = _clock()
    if errors:
        raise errors[0]
    result.samples.sort(key=lambda sample: sample.start)
    return result
