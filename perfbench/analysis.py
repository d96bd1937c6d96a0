"""Pure helpers: percentiles of raw samples and span self-time attribution."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "percentile",
    "tail_supported",
    "Span",
    "nest",
    "self_times",
    "attach_orphans",
    "layer_of",
]

#: A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of raw samples.

    Same definition as ``statistics.quantiles(method="inclusive")`` and
    NumPy's default: the value at rank ``q * (n - 1)`` of the sorted samples.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_supported(count: int, q: float) -> bool:
    """``True`` when at least :data:`MIN_BEYOND` of ``count`` samples lie above
    the ``q`` quantile's rank."""
    return count - 1 - math.floor(q * (count - 1)) >= MIN_BEYOND


@dataclass
class Span:
    """One timed interval of one request (any process, one shared clock)."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def nest(spans: list[Span]) -> list[int | None]:
    """Parent index of each span: the innermost span containing it.

    Spans of one request recorded in different processes are linked by time
    alone, which is exact because every layer of a request runs inside the
    call of the layer above it.  Ties (identical intervals) nest in list
    order, so callers list outer spans first.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i].start, -spans[i].end, i))
    parents: list[int | None] = [None] * len(spans)
    stack: list[int] = []
    for index in order:
        span = spans[index]
        while stack and not (spans[stack[-1]].start <= span.start
                             and span.end <= spans[stack[-1]].end):
            stack.pop()
        parents[index] = stack[-1] if stack else None
        stack.append(index)
    return parents


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    parents = nest(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda i: spans[i].start):
            start = max(spans[child].start, cursor)
            end = min(spans[child].end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def attach_orphans(
    by_request: dict[str, list[Span]],
    orphans: list[Span],
    anchor: str,
) -> None:
    """Give request-less spans to every request whose ``anchor`` span holds them.

    A coalesced window batch runs on an executor thread outside any request
    context; each request waiting on it (inside its ``anchor`` span) spent
    that time in the batch.
    """
    anchors = [
        (span, spans) for spans in by_request.values()
        for span in spans if span.name == anchor
    ]
    for orphan in orphans:
        for span, spans in anchors:
            if span.start <= orphan.start and orphan.end <= span.end:
                spans.append(Span(orphan.name, orphan.start, orphan.end))


#: Span name -> the layer whose self time it counts toward.
_LAYERS = {
    "bench.request": "unattributed",
    "cluster.router.dispatch": "cluster.router.dispatch",
    "cluster.client.request": "service.http",
    "service.frontend": "service.frontend",
    "service.frontend.queue_wait": "service.frontend.queue_wait",
    "service.coalescer.submit": "service.coalescer",
    "service.coalescer.batch": "service.coalescer",
    "service.pool.open": "service.pool",
    "core.session": "core.session",
    "core.query_manager": "core.query_manager",
    "storage.table.window": "storage.table",
    "storage.table.nearest": "storage.table",
    "storage.table.keyword": "storage.table",
    "storage.table.repack": "storage.table",
    "core.json_builder.build": "core.json_builder",
    "writes.coordinator.apply": "writes.coordinator",
    "writes.journal.append": "writes.journal",
    "writes.journal.sync": "writes.journal",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time belongs to."""
    return _LAYERS.get(span_name, span_name)
