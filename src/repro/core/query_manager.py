"""Query Manager: the online half of graphVizdb.

"The Query Manager ... is responsible for the communication between the Client
and the Database."  It translates the three user-facing operations into the
backend spatial operations:

* **interactive navigation** → window query on the current layer's R-tree;
* **multi-level exploration** → the same window query against a different
  layer's table (optionally resizing the window according to the zoom level);
* **keyword search** → trie lookup over node labels, then a window query
  centred on the selected node.

Each window query returns a :class:`WindowQueryResult` carrying the timing
breakdown of Fig. 3 (DB query execution, JSON building; communication and
rendering are added by the client simulator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..config import ClientConfig
from ..errors import QueryError
from ..spatial.geometry import Point, Rect
from ..storage.database import GraphVizDatabase
from ..storage.schema import EdgeRow
from .filters import FilterSpec, apply_filters
from .json_builder import GraphPayload, build_payload
from .streaming import PayloadChunk, chunk_count, stream_bytes, stream_payload
from .viewport import Viewport

__all__ = ["WindowQueryResult", "KeywordSearchResult", "QueryManager"]


@dataclass
class WindowQueryResult:
    """The server-side result of one window query.

    Attributes
    ----------
    layer / window:
        What was asked.
    rows:
        The matching rows (after filtering).
    payload:
        The JSON-ready payload built from the rows.
    chunk_size:
        Objects per streamed chunk; :attr:`num_chunks`, :attr:`total_bytes`
        and the lazily built :attr:`chunks` follow from it.
    db_query_seconds:
        Time spent evaluating the window query in the storage layer
        (Fig. 3 "DB Query Execution").
    json_build_seconds:
        Time spent building the JSON objects (Fig. 3 "Build JSON Objects").
    filter_seconds:
        Time spent applying canvas filters and server-side decimation to the
        rows.  Historically this ran outside both timers, under-reporting
        server time; it is now measured and included in ``server_seconds``.
    """

    layer: int
    window: Rect
    rows: list[EdgeRow]
    payload: GraphPayload
    chunk_size: int
    db_query_seconds: float
    json_build_seconds: float
    filter_seconds: float = 0.0

    @property
    def num_objects(self) -> int:
        """Nodes + edges returned (the secondary y-axis of Fig. 3)."""
        return self.payload.num_objects

    @property
    def server_seconds(self) -> float:
        """Total server-side time (DB + filtering + JSON)."""
        return self.db_query_seconds + self.filter_seconds + self.json_build_seconds

    @property
    def num_chunks(self) -> int:
        """Number of chunks the payload is streamed in."""
        return chunk_count(self.payload, self.chunk_size)

    @property
    def total_bytes(self) -> int:
        """Exact bytes of the chunked stream, counted from the JSON fragments."""
        return stream_bytes(self.payload, self.chunk_size)

    @property
    def chunks(self) -> list[PayloadChunk]:
        """The payload split into streaming chunks (built on demand)."""
        return list(stream_payload(self.payload, self.chunk_size))


@dataclass
class KeywordSearchResult:
    """The result of a keyword query: matching nodes and their positions."""

    keyword: str
    layer: int
    matches: list[dict[str, object]] = field(default_factory=list)
    search_seconds: float = 0.0

    @property
    def num_matches(self) -> int:
        """Number of matching nodes."""
        return len(self.matches)


class QueryManager:
    """Maps client operations onto database operations.

    Parameters
    ----------
    database:
        The preprocessed, indexed database.
    client_config:
        Streaming/viewport parameters (chunk size, default viewport).

    Thread safety: the manager itself is stateless (both attributes are set
    once and only read), so one instance may serve concurrent reads from many
    threads — the serving subsystem does exactly that.  The shared mutable
    state lives in the layer tables: per-row caches tolerate racing writers,
    lazy secondary-index builds are single-flight, mutations serialise on a
    per-table write lock, spatial reads share that lock only while a table
    runs the edit-demoted dynamic tree (packed-index reads are lock-free),
    and row fetches tolerate ids deleted behind an index snapshot.
    """

    def __init__(
        self, database: GraphVizDatabase, client_config: ClientConfig | None = None
    ) -> None:
        self.database = database
        self.client_config = client_config or ClientConfig()

    # ------------------------------------------------------------ window query

    def window_query(
        self,
        window: Rect,
        layer: int = 0,
        filters: FilterSpec | None = None,
        max_rows: int | None = None,
    ) -> WindowQueryResult:
        """Evaluate a window query on one abstraction layer.

        This is the backend operation behind interactive navigation: "a spatial
        range query ... retrieves all elements of the graph (nodes and edges)
        that overlap with the current window".

        ``max_rows`` optionally decimates the result server-side (keeping the
        rows incident to the most connected in-window nodes) so a zoomed-out
        window never overwhelms the client; see :mod:`repro.core.decimation`.
        """
        if not self.database.has_layer(layer):
            raise QueryError(f"layer {layer} does not exist")
        table = self.database.table(layer)
        # Captured before the rows are fetched: fragment-cache fills for rows
        # a concurrent edit invalidates mid-query are dropped, not stored.
        fragments = table.fragment_fill_guard()

        started = time.perf_counter()
        rows = table.window_query(window)
        db_seconds = time.perf_counter() - started

        started = time.perf_counter()
        rows = apply_filters(rows, filters)
        if max_rows is not None:
            from .decimation import decimate_rows

            rows = decimate_rows(rows, max_rows).rows
        filter_seconds = time.perf_counter() - started

        started = time.perf_counter()
        payload = build_payload(rows, fragments=fragments)
        json_seconds = time.perf_counter() - started

        return WindowQueryResult(
            layer=layer,
            window=window,
            rows=rows,
            payload=payload,
            chunk_size=self.client_config.chunk_size,
            db_query_seconds=db_seconds,
            json_build_seconds=json_seconds,
            filter_seconds=filter_seconds,
        )

    def rows_for_windows(self, windows: list[Rect], layer: int = 0) -> list[list[EdgeRow]]:
        """Fetch the raw rows of many windows in one call.

        This is the prefetcher's entry point: no filtering, no payload
        construction, no per-window result objects — just the exact in-window
        rows per requested window, straight off the spatial index.
        """
        if not self.database.has_layer(layer):
            raise QueryError(f"layer {layer} does not exist")
        return self.database.window_query_batch(layer, windows)

    def viewport_query(
        self,
        viewport: Viewport,
        layer: int = 0,
        filters: FilterSpec | None = None,
    ) -> WindowQueryResult:
        """Window query for a client viewport (pixel window → plane window)."""
        return self.window_query(viewport.window(), layer=layer, filters=filters)

    # --------------------------------------------------------- layer switching

    def change_layer(
        self,
        viewport: Viewport,
        new_layer: int,
        filters: FilterSpec | None = None,
    ) -> WindowQueryResult:
        """Multi-level exploration: fetch the same window from another layer.

        "When changing a level of abstraction, the graph elements are fetched
        through spatial range queries on the appropriate table that corresponds
        to the selected layer."
        """
        if not self.database.has_layer(new_layer):
            raise QueryError(f"layer {new_layer} does not exist")
        return self.window_query(viewport.window(), layer=new_layer, filters=filters)

    # ---------------------------------------------------------- keyword search

    def keyword_search(
        self, keyword: str, layer: int = 0, mode: str = "contains", limit: int | None = None
    ) -> KeywordSearchResult:
        """Search node labels and return matches with their plane coordinates."""
        if not keyword or not keyword.strip():
            raise QueryError("keyword must not be empty")
        started = time.perf_counter()
        matches = self.database.keyword_search(layer, keyword, mode=mode)
        if limit is not None:
            # Slice before the loop: exactly ``limit`` position lookups happen.
            matches = matches[:limit]
        table = self.database.table(layer)
        result = KeywordSearchResult(keyword=keyword, layer=layer)
        for node_id, label in matches:
            position = table.node_position(node_id)
            result.matches.append({
                "node_id": node_id,
                "label": label,
                "x": position.x if position else None,
                "y": position.y if position else None,
            })
        result.search_seconds = time.perf_counter() - started
        return result

    def focus_on_node(
        self,
        node_id: int,
        viewport: Viewport,
        layer: int = 0,
        filters: FilterSpec | None = None,
    ) -> tuple[Viewport, WindowQueryResult]:
        """Centre the viewport on a node and fetch its surroundings.

        Implements the click-on-search-result behaviour: "the spatial query sent
        to the server uses as window the rectangle whose size is equal to the
        size of the client's window and whose center has the same coordinates
        with the selected node from the list."
        """
        position = self.database.table(layer).node_position(node_id)
        if position is None:
            raise QueryError(f"node {node_id} does not exist in layer {layer}")
        centered = viewport.moved_to(position)
        return centered, self.window_query(centered.window(), layer=layer, filters=filters)

    def neighborhood(
        self, node_id: int, layer: int = 0
    ) -> list[EdgeRow]:
        """Return every row incident to a node ("Focus on node" mode).

        "In this mode, only the selected node and its neighbours are visible."
        Evaluated through the B+-tree indexes, not the R-tree.
        """
        rows = self.database.rows_for_node(layer, node_id)
        if not rows:
            raise QueryError(f"node {node_id} does not exist in layer {layer}")
        return rows

    # ------------------------------------------------------------- information

    def node_info(self, node_id: int, layer: int = 0) -> dict[str, object]:
        """Return the Information-panel payload for one node."""
        rows = self.neighborhood(node_id, layer=layer)
        label = ""
        position: Point | None = None
        neighbours: set[int] = set()
        for row in rows:
            start, end = row.endpoints()
            if row.node1_id == node_id:
                label = row.node1_label
                position = start
                if not row.is_node_row():
                    neighbours.add(row.node2_id)
            if row.node2_id == node_id:
                label = label or row.node2_label
                position = position or end
                if not row.is_node_row():
                    neighbours.add(row.node1_id)
        return {
            "node_id": node_id,
            "label": label,
            "x": position.x if position else None,
            "y": position.y if position else None,
            "degree": len(neighbours),
            "neighbours": sorted(neighbours),
            "layer": layer,
        }

    def recommend_layer(
        self,
        viewport: Viewport,
        max_objects: int = 600,
        current_layer: int | None = None,
    ) -> int:
        """Return the most detailed layer whose window content stays renderable.

        The paper combines vertical navigation with zooming: "the size of the
        window ... is decreased/increased proportionally according to the zoom
        level".  When the user zooms far out, the layer-0 window may contain
        tens of thousands of objects; this helper picks the lowest (most
        detailed) layer whose content for the current window does not exceed
        ``max_objects``, falling back to the most abstract layer.  Counting uses
        the R-tree only (no row fetches), so the recommendation itself is cheap.
        """
        if max_objects <= 0:
            raise QueryError("max_objects must be positive")
        window = viewport.window()
        layers = self.database.layers()
        if not layers:
            raise QueryError("the database has no layers")
        chosen = layers[-1]
        for layer in layers:
            count = self.database.table(layer).count_window_index(window)
            if count <= max_objects:
                chosen = layer
                break
        if current_layer is not None and chosen == current_layer:
            return current_layer
        return chosen

    def default_viewport(self, layer: int = 0) -> Viewport:
        """Return a viewport centred on the layer's drawing."""
        bounds = self.database.bounds(layer)
        center = bounds.center if bounds is not None else Point(0.0, 0.0)
        return Viewport.from_config(self.client_config, center=center)
