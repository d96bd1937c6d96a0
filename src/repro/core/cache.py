"""Window-result caching and prefetching.

An extension beyond the paper's prototype motivated by its own observation that
client-server communication dominates interactive latency: consecutive window
queries issued while panning overlap heavily, so the server can (a) cache
recently evaluated windows and answer repeat/contained requests without hitting
the R-tree, and (b) prefetch the windows adjacent to the current viewport so a
subsequent pan is served from memory.

The cache is deliberately simple — an LRU of :class:`CachedWindow` entries per
abstraction layer, with containment-based reuse — and is wired into
:class:`CachingQueryManager`, a drop-in wrapper around
:class:`~repro.core.query_manager.QueryManager`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..spatial.geometry import Rect
from ..storage.schema import EdgeRow
from .filters import FilterSpec
from .query_manager import QueryManager, WindowQueryResult
from .viewport import Viewport

__all__ = ["CacheStatistics", "WindowCache", "CachingQueryManager"]


@dataclass
class CacheStatistics:
    """Hit/miss counters, exposed for tests and the ablation benchmark."""

    hits: int = 0
    misses: int = 0
    prefetches: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class _CachedWindow:
    """One cached window: the covered rectangle and the rows inside it."""

    layer: int
    window: Rect
    rows: tuple[EdgeRow, ...] = field(hash=False)


class WindowCache:
    """LRU cache of window-query results with containment reuse.

    A lookup for window ``W`` on layer ``L`` is a hit if some cached entry on
    ``L`` *contains* ``W``; the cached rows are then filtered down to the exact
    window with the same segment/rectangle test the layer table uses, so cached
    answers are always identical to fresh ones.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStatistics()
        self._entries: OrderedDict[int, _CachedWindow] = OrderedDict()
        self._next_key = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, layer: int, window: Rect) -> list[EdgeRow] | None:
        """Return the rows for ``window`` if a containing entry is cached."""
        for key in reversed(self._entries):
            entry = self._entries[key]
            if entry.layer != layer:
                continue
            if entry.window.contains_rect(window):
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return [
                    row for row in entry.rows if row.segment().intersects_rect(window)
                ]
        self.stats.misses += 1
        return None

    def store(self, layer: int, window: Rect, rows: list[EdgeRow]) -> None:
        """Insert a freshly evaluated window, evicting the LRU entry if full."""
        key = self._next_key
        self._next_key += 1
        self._entries[key] = _CachedWindow(layer=layer, window=window, rows=tuple(rows))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, layer: int | None = None) -> None:
        """Drop all entries (or only those of one layer) — called after edits."""
        if layer is None:
            self._entries.clear()
            return
        for key in [k for k, entry in self._entries.items() if entry.layer == layer]:
            del self._entries[key]


class CachingQueryManager:
    """A :class:`QueryManager` wrapper that adds caching and pan prefetching.

    Parameters
    ----------
    query_manager:
        The underlying (uncached) query manager.
    capacity:
        Number of windows kept in the cache.
    prefetch_margin:
        When > 0, every miss also evaluates and caches a window enlarged by this
        fraction of its size in every direction, so small pans hit the cache.
    """

    def __init__(
        self,
        query_manager: QueryManager,
        capacity: int = 16,
        prefetch_margin: float = 0.5,
    ) -> None:
        if prefetch_margin < 0:
            raise ValueError("prefetch_margin must be >= 0")
        self.inner = query_manager
        self.cache = WindowCache(capacity=capacity)
        self.prefetch_margin = prefetch_margin

    @property
    def database(self):
        """The underlying database (kept for API parity with QueryManager)."""
        return self.inner.database

    @property
    def client_config(self):
        """The underlying client configuration."""
        return self.inner.client_config

    def window_query(
        self,
        window: Rect,
        layer: int = 0,
        filters: FilterSpec | None = None,
    ) -> WindowQueryResult:
        """Cached version of :meth:`QueryManager.window_query`.

        Filtered queries bypass the cache (filters are cheap and rarely repeat),
        so cached and uncached paths always return identical results.
        """
        if filters is not None and not filters.is_empty():
            return self.inner.window_query(window, layer=layer, filters=filters)

        cached_rows = self.cache.lookup(layer, window)
        if cached_rows is not None:
            return self._result_from_rows(
                window, layer, cached_rows, trusted_rows=False
            )

        if self.prefetch_margin > 0:
            # Fetch the enlarged window through the batched rows entry point:
            # no payload is built for the (larger) prefetch window, only for
            # the exact window the client asked for.
            margin = max(window.width, window.height) * self.prefetch_margin
            prefetch_window = window.expanded(margin)
            table = self.inner.database.table(layer)
            # Guard captured before the fetch: see LayerTable.fragment_fill_guard.
            fragments = table.fragment_fill_guard()
            started = time.perf_counter()
            (prefetched_rows,) = self.inner.rows_for_windows(
                [prefetch_window], layer=layer
            )
            db_seconds = time.perf_counter() - started
            self.cache.store(layer, prefetch_window, prefetched_rows)
            self.cache.stats.prefetches += 1
            started = time.perf_counter()
            segment_of = table.segment_of
            rows = [
                row for row in prefetched_rows
                if segment_of(row).intersects_rect(window)
            ]
            filter_seconds = time.perf_counter() - started
            return self._result_from_rows(
                window, layer, rows,
                db_seconds=db_seconds, filter_seconds=filter_seconds,
                fragments=fragments,
            )

        result = self.inner.window_query(window, layer=layer)
        self.cache.store(layer, window, result.rows)
        return result

    def viewport_query(
        self, viewport: Viewport, layer: int = 0, filters: FilterSpec | None = None
    ) -> WindowQueryResult:
        """Cached viewport query."""
        return self.window_query(viewport.window(), layer=layer, filters=filters)

    def invalidate(self, layer: int | None = None) -> None:
        """Invalidate the cache after edits."""
        self.cache.invalidate(layer)

    # Delegate the non-window operations unchanged.
    def keyword_search(self, *args, **kwargs):
        """See :meth:`QueryManager.keyword_search`."""
        return self.inner.keyword_search(*args, **kwargs)

    def focus_on_node(self, *args, **kwargs):
        """See :meth:`QueryManager.focus_on_node`."""
        return self.inner.focus_on_node(*args, **kwargs)

    def neighborhood(self, *args, **kwargs):
        """See :meth:`QueryManager.neighborhood`."""
        return self.inner.neighborhood(*args, **kwargs)

    def node_info(self, *args, **kwargs):
        """See :meth:`QueryManager.node_info`."""
        return self.inner.node_info(*args, **kwargs)

    def default_viewport(self, layer: int = 0) -> Viewport:
        """See :meth:`QueryManager.default_viewport`."""
        return self.inner.default_viewport(layer=layer)

    def change_layer(self, viewport: Viewport, new_layer: int, filters=None):
        """Cached layer switch (same window, different layer table)."""
        return self.window_query(viewport.window(), layer=new_layer, filters=filters)

    # ------------------------------------------------------------------ helpers

    def _result_from_rows(
        self,
        window: Rect,
        layer: int,
        rows: list[EdgeRow],
        db_seconds: float = 0.0,
        filter_seconds: float = 0.0,
        trusted_rows: bool = True,
        fragments=None,
    ) -> WindowQueryResult:
        """Build a WindowQueryResult from cached rows (JSON work still happens).

        ``trusted_rows`` marks rows that came straight from the table (the
        prefetch path); rows replayed from the window cache may be stale after
        an edit, so their fragment misses must not be written back into the
        table's authoritative fragment cache.  The prefetch path passes its
        own ``fragments`` guard, captured before the rows were fetched.
        """
        from .json_builder import build_payload, table_fragments

        table = self.inner.database.table(layer)
        if fragments is None:
            fragments = (
                table.fragment_fill_guard()
                if trusted_rows
                else table_fragments(table, populate=False)
            )
        started = time.perf_counter()
        payload = build_payload(rows, fragments=fragments)
        json_seconds = time.perf_counter() - started
        return WindowQueryResult(
            layer=layer,
            window=window,
            rows=rows,
            payload=payload,
            chunk_size=self.inner.client_config.chunk_size,
            db_query_seconds=db_seconds,
            json_build_seconds=json_seconds,
            filter_seconds=filter_seconds,
        )
