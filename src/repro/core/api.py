"""JSON API layer.

The original prototype is a web application: the JavaScript frontend calls
HTTP endpoints that return JSON.  This module provides the equivalent
transport-agnostic request handlers — plain functions taking and returning
JSON-serialisable dictionaries — so the library can be mounted behind any HTTP
framework (Flask, FastAPI, the standard-library ``http.server``) without
additional glue, and so the request/response contract can be tested directly.

Endpoints (mirroring the Web UI panels):

==================  =======================================================
``list_datasets``   the dataset selector
``dataset_info``    the Statistics panel (dataset level)
``window``          the Visualization panel (interactive navigation)
``layer``           the Layer panel (multi-level exploration)
``search``          the Search panel (keyword search)
``focus``           "Focus on node" / click on a search result
``node``            the Information panel
``birdview``        the Birdview panel
``edit``            the Edit panel
==================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..client.birdview import Birdview
from ..errors import GraphVizDBError
from ..spatial.geometry import Point, Rect
from .editing import GraphEditor
from .json_builder import GraphPayload
from .query_manager import WindowQueryResult
from .server import GraphVizDBServer

__all__ = ["ApiError", "GraphVizDBApi"]


@dataclass(frozen=True)
class ApiError(Exception):
    """A request-level error with an HTTP-like status code."""

    status: int
    message: str

    def as_dict(self) -> dict[str, object]:
        """Return the JSON error body."""
        return {"error": self.message, "status": self.status}


def _payload_dict(result: WindowQueryResult) -> dict[str, object]:
    payload: GraphPayload = result.payload
    return {
        "layer": result.layer,
        "window": {
            "min_x": result.window.min_x,
            "min_y": result.window.min_y,
            "max_x": result.window.max_x,
            "max_y": result.window.max_y,
        },
        "nodes": payload.nodes,
        "edges": payload.edges,
        "num_objects": payload.num_objects,
        "chunks": result.num_chunks,
        "timings_ms": {
            "db_query": result.db_query_seconds * 1000.0,
            "filter": result.filter_seconds * 1000.0,
            "build_json": result.json_build_seconds * 1000.0,
        },
    }


class GraphVizDBApi:
    """Request handlers over a :class:`GraphVizDBServer`.

    Every handler validates its inputs, translates library exceptions into
    :class:`ApiError` (status 400/404) and returns a JSON-serialisable dict.
    """

    def __init__(self, server: GraphVizDBServer) -> None:
        self.server = server
        self._editors: dict[str, GraphEditor] = {}

    # ------------------------------------------------------------------ helpers

    def _handle(self, dataset: str):
        try:
            return self.server.dataset(dataset)
        except GraphVizDBError as exc:
            raise ApiError(404, str(exc)) from exc

    @staticmethod
    def _require(request: dict[str, object], *keys: str) -> None:
        missing = [key for key in keys if key not in request]
        if missing:
            raise ApiError(400, f"missing required field(s): {', '.join(missing)}")

    @staticmethod
    def _window_from(request: dict[str, object]) -> Rect:
        try:
            return Rect(
                float(request["min_x"]), float(request["min_y"]),
                float(request["max_x"]), float(request["max_y"]),
            )
        except (KeyError, TypeError, ValueError, GraphVizDBError) as exc:
            raise ApiError(400, f"invalid window: {exc}") from exc

    # ---------------------------------------------------------------- endpoints

    def list_datasets(self) -> dict[str, object]:
        """``GET /datasets`` — the dataset selector."""
        datasets = []
        for name in self.server.datasets():
            handle = self.server.dataset(name)
            datasets.append({
                "name": name,
                "num_nodes": handle.graph.num_nodes,
                "num_edges": handle.graph.num_edges,
                "layers": handle.database.layers(),
            })
        return {"datasets": datasets}

    def dataset_info(self, dataset: str) -> dict[str, object]:
        """``GET /datasets/<name>`` — the Statistics panel."""
        handle = self._handle(dataset)
        stats = self.server.dataset_statistics(dataset)
        layers = [
            self.server.layer_statistics(dataset, layer).as_dict()
            for layer in handle.database.layers()
        ]
        return {"name": dataset, "statistics": stats.as_dict(), "layers": layers}

    def window(self, dataset: str, request: dict[str, object]) -> dict[str, object]:
        """``POST /datasets/<name>/window`` — interactive navigation.

        Request fields: ``min_x``, ``min_y``, ``max_x``, ``max_y`` and an
        optional ``layer`` (default 0).
        """
        handle = self._handle(dataset)
        self._require(request, "min_x", "min_y", "max_x", "max_y")
        window = self._window_from(request)
        layer = int(request.get("layer", 0))
        try:
            result = handle.query_manager.window_query(window, layer=layer)
        except GraphVizDBError as exc:
            raise ApiError(404, str(exc)) from exc
        return _payload_dict(result)

    def layer(self, dataset: str, request: dict[str, object]) -> dict[str, object]:
        """``POST /datasets/<name>/layer`` — multi-level exploration.

        Request fields: the window plus ``layer`` (required).
        """
        self._require(request, "layer")
        return self.window(dataset, request)

    def search(self, dataset: str, request: dict[str, object]) -> dict[str, object]:
        """``POST /datasets/<name>/search`` — keyword search.

        Request fields: ``keyword``; optional ``layer`` (default 0), ``limit``.
        """
        handle = self._handle(dataset)
        self._require(request, "keyword")
        keyword = str(request["keyword"])
        layer = int(request.get("layer", 0))
        limit = request.get("limit")
        try:
            result = handle.query_manager.keyword_search(
                keyword, layer=layer, limit=int(limit) if limit is not None else None
            )
        except GraphVizDBError as exc:
            raise ApiError(400, str(exc)) from exc
        return {
            "keyword": keyword,
            "layer": layer,
            "matches": result.matches,
            "num_matches": result.num_matches,
        }

    def focus(self, dataset: str, request: dict[str, object]) -> dict[str, object]:
        """``POST /datasets/<name>/focus`` — centre the viewport on a node.

        Request fields: ``node_id``; optional ``layer``, ``viewport_width``,
        ``viewport_height`` (pixels).
        """
        handle = self._handle(dataset)
        self._require(request, "node_id")
        layer = int(request.get("layer", 0))
        viewport = handle.query_manager.default_viewport(layer=layer)
        if "viewport_width" in request and "viewport_height" in request:
            viewport = viewport.resized(
                int(request["viewport_width"]), int(request["viewport_height"])
            )
        try:
            centered, result = handle.query_manager.focus_on_node(
                int(request["node_id"]), viewport, layer=layer
            )
        except GraphVizDBError as exc:
            raise ApiError(404, str(exc)) from exc
        response = _payload_dict(result)
        response["center"] = {"x": centered.center.x, "y": centered.center.y}
        return response

    def node(self, dataset: str, node_id: int, layer: int = 0) -> dict[str, object]:
        """``GET /datasets/<name>/nodes/<id>`` — the Information panel."""
        handle = self._handle(dataset)
        try:
            return handle.query_manager.node_info(int(node_id), layer=layer)
        except GraphVizDBError as exc:
            raise ApiError(404, str(exc)) from exc

    def birdview(
        self, dataset: str, layer: int = 0, width: int = 64, height: int = 24
    ) -> dict[str, object]:
        """``GET /datasets/<name>/birdview`` — the Birdview panel."""
        handle = self._handle(dataset)
        try:
            birdview = Birdview.from_database(
                handle.database, layer=layer, width=width, height=height
            )
        except GraphVizDBError as exc:
            raise ApiError(400, str(exc)) from exc
        return {
            "bounds": {
                "min_x": birdview.bounds.min_x,
                "min_y": birdview.bounds.min_y,
                "max_x": birdview.bounds.max_x,
                "max_y": birdview.bounds.max_y,
            },
            "width": birdview.width,
            "height": birdview.height,
            "grid": birdview.grid,
        }

    def edit(self, dataset: str, request: dict[str, object]) -> dict[str, object]:
        """``POST /datasets/<name>/edit`` — the Edit panel.

        Request fields: ``operation`` (``rename_node`` / ``move_node`` /
        ``add_edge`` / ``delete_edge``) plus the operation's arguments.
        """
        self._handle(dataset)
        self._require(request, "operation")
        editor = self._editors.setdefault(dataset, self.server.create_editor(dataset))
        operation = str(request["operation"])
        try:
            if operation == "rename_node":
                self._require(request, "node_id", "label")
                touched = editor.rename_node(int(request["node_id"]), str(request["label"]))
            elif operation == "move_node":
                self._require(request, "node_id", "x", "y")
                touched = editor.move_node(
                    int(request["node_id"]),
                    Point(float(request["x"]), float(request["y"])),
                )
            elif operation == "add_edge":
                self._require(request, "source", "target")
                editor.add_edge(
                    int(request["source"]), int(request["target"]),
                    label=str(request.get("label", "")),
                )
                touched = 1
            elif operation == "delete_edge":
                self._require(request, "source", "target")
                touched = editor.delete_edge(int(request["source"]), int(request["target"]))
            else:
                raise ApiError(400, f"unknown edit operation {operation!r}")
        except GraphVizDBError as exc:
            raise ApiError(400, str(exc)) from exc
        return {
            "operation": operation,
            "rows_touched": touched,
            "journal_length": len(editor.journal),
        }
