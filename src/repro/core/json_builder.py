"""JSON object construction for the client.

The Fig. 3 latency breakdown has a dedicated "Build JSON Objects" component:
"the time required for the server to process the query result and build the
JSON objects that are sent to the client".  This module converts the rows
returned by a window query into the node/edge JSON objects the (simulated)
mxGraph client renders, deduplicating nodes that appear in several rows.

Every object is JSON-encoded exactly once, by :func:`row_fragments`:

* the plain path (:func:`build_payload` with just ``rows``) builds fresh
  fragments per call;
* the zero-copy path passes a *fragment source* — typically
  :func:`table_fragments` over a :class:`~repro.storage.table.LayerTable` —
  so the per-row node/edge dictionaries **and** their serialised JSON strings
  are computed once per row and reused across queries.

Either way the payload carries one JSON string per object;
:func:`payload_to_json` concatenates them and
:func:`repro.core.streaming.stream_bytes` counts them, so no later layer
re-encodes the answer.

Payload dictionaries produced through the fragment cache are shared between
queries; callers must treat them as immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from ..storage.schema import EdgeRow

__all__ = [
    "GraphPayload",
    "RowFragments",
    "row_fragments",
    "table_fragments",
    "build_payload",
    "payload_to_json",
]

_dumps = json.dumps
_COMPACT = (",", ":")


@dataclass(frozen=True)
class RowFragments:
    """Pre-built payload pieces for one row: dictionaries plus JSON strings.

    ``node2_obj`` / ``edge_obj`` are ``None`` for self-rows (isolated nodes).
    The JSON strings are exactly ``json.dumps(obj, separators=(",", ":"))`` of
    the corresponding dictionary, so concatenating fragments reproduces a full
    ``json.dumps`` byte for byte.
    """

    node1_id: int
    node2_id: int
    node_row: bool
    node1_obj: dict[str, object]
    node2_obj: dict[str, object] | None
    edge_obj: dict[str, object] | None
    node1_json: str
    node2_json: str
    edge_json: str


def row_fragments(row: EdgeRow) -> RowFragments:
    """Build the cached payload fragments for one row (decodes geometry once)."""
    segment = row.segment()
    start, end = segment.start, segment.end
    node1_obj: dict[str, object] = {
        "id": row.node1_id,
        "label": row.node1_label,
        "x": start.x,
        "y": start.y,
    }
    node_row = row.is_node_row()
    if node_row:
        node2_obj = None
        edge_obj = None
        node2_json = ""
        edge_json = ""
    else:
        node2_obj = {
            "id": row.node2_id,
            "label": row.node2_label,
            "x": end.x,
            "y": end.y,
        }
        edge_obj = {
            "source": row.node1_id,
            "target": row.node2_id,
            "label": row.edge_label,
            "directed": segment.directed,
        }
        node2_json = _dumps(node2_obj, separators=_COMPACT)
        edge_json = _dumps(edge_obj, separators=_COMPACT)
    return RowFragments(
        node1_id=row.node1_id,
        node2_id=row.node2_id,
        node_row=node_row,
        node1_obj=node1_obj,
        node2_obj=node2_obj,
        edge_obj=edge_obj,
        node1_json=_dumps(node1_obj, separators=_COMPACT),
        node2_json=node2_json,
        edge_json=edge_json,
    )


def table_fragments(table, populate: bool = True) -> Callable[[EdgeRow], RowFragments]:
    """Return a fragment source backed by ``table``'s per-row cache.

    The table invalidates cached fragments when a row is inserted, updated or
    deleted, so cached payloads always match fresh ones.  Pass
    ``populate=False`` when the rows being rendered did not come straight from
    the table (e.g. rows replayed from a window cache): misses are then built
    on the fly without writing into the authoritative per-table cache, so a
    stale row can never poison fragments served to fresh queries.
    """
    cache = table.fragment_cache

    def source(row: EdgeRow) -> RowFragments:
        fragments = cache.get(row.row_id)
        if fragments is None:
            fragments = row_fragments(row)
            if populate:
                cache[row.row_id] = fragments
        return fragments

    return source


@dataclass
class GraphPayload:
    """The JSON-ready representation of one window-query result.

    Attributes
    ----------
    nodes:
        One dictionary per distinct node: ``{"id", "label", "x", "y"}``.
    edges:
        One dictionary per edge row: ``{"source", "target", "label", "directed"}``.
    nodes_json / edges_json:
        JSON fragments parallel to ``nodes`` / ``edges`` (each exactly
        ``json.dumps(obj, separators=(",", ":"))``), filled by
        :func:`build_payload`.  The wire string and its size are derived from
        these alone.
    """

    nodes: list[dict[str, object]] = field(default_factory=list)
    edges: list[dict[str, object]] = field(default_factory=list)
    nodes_json: list[str] = field(default_factory=list, repr=False, compare=False)
    edges_json: list[str] = field(default_factory=list, repr=False, compare=False)

    @property
    def num_objects(self) -> int:
        """Total number of visual objects (nodes + edges), the Fig. 3 x-axis companion."""
        return len(self.nodes) + len(self.edges)

    def node_ids(self) -> set[int]:
        """Return the distinct node ids in the payload."""
        return {int(node["id"]) for node in self.nodes}

    def as_dict(self) -> dict[str, object]:
        """Return the payload as a dictionary ready for ``json.dumps``."""
        return {"nodes": self.nodes, "edges": self.edges}


def build_payload(
    rows: list[EdgeRow],
    fragments: Callable[[EdgeRow], RowFragments] | dict[int, RowFragments] | None = None,
) -> GraphPayload:
    """Build the client payload from window-query rows.

    Nodes are deduplicated across rows; their coordinates are taken from the
    geometry endpoints so the client needs no second lookup.  When a
    ``fragments`` source is given — a per-row callable (see
    :func:`table_fragments`) or a table's ``fragment_cache`` dictionary — the
    cached per-row dictionaries and JSON strings are reused instead of
    rebuilt; without one, each row's fragments are built once for this call.
    Passing the dictionary avoids a Python call per row and is what the query
    manager's hot path does.
    """
    payload = GraphPayload()
    seen_nodes: set[int] = set()
    nodes = payload.nodes
    edges = payload.edges
    nodes_json = payload.nodes_json
    edges_json = payload.edges_json
    add_seen = seen_nodes.add
    if isinstance(fragments, dict):
        cache = fragments
        cache_get = cache.get
        for row in rows:
            piece = cache_get(row.row_id)
            if piece is None:
                piece = row_fragments(row)
                cache[row.row_id] = piece
            node1_id = piece.node1_id
            if node1_id not in seen_nodes:
                add_seen(node1_id)
                nodes.append(piece.node1_obj)
                nodes_json.append(piece.node1_json)
            if piece.node_row:
                continue
            node2_id = piece.node2_id
            if node2_id not in seen_nodes:
                add_seen(node2_id)
                nodes.append(piece.node2_obj)
                nodes_json.append(piece.node2_json)
            edges.append(piece.edge_obj)
            edges_json.append(piece.edge_json)
        return payload
    if fragments is None:
        fragments = row_fragments
    for row in rows:
        piece = fragments(row)
        node1_id = piece.node1_id
        if node1_id not in seen_nodes:
            add_seen(node1_id)
            nodes.append(piece.node1_obj)
            nodes_json.append(piece.node1_json)
        if piece.node_row:
            continue
        node2_id = piece.node2_id
        if node2_id not in seen_nodes:
            add_seen(node2_id)
            nodes.append(piece.node2_obj)
            nodes_json.append(piece.node2_json)
        edges.append(piece.edge_obj)
        edges_json.append(piece.edge_json)
    return payload


def payload_to_json(payload: GraphPayload) -> str:
    """Serialise the payload to a JSON string (what actually goes on the wire).

    The per-object fragments are concatenated, which is byte-identical to
    ``json.dumps(payload.as_dict(), separators=(",", ":"))``.
    """
    return (
        '{"nodes":[' + ",".join(payload.nodes_json)
        + '],"edges":[' + ",".join(payload.edges_json) + "]}"
    )
