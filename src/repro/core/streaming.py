"""Chunked streaming of window-query results.

"The part of the graph included in the window of the user is sent from the
server to the client in small pieces, i.e., in a streaming fashion."  The
streamer slices a :class:`~repro.core.json_builder.GraphPayload` into chunks of
a configurable number of objects; the client simulator consumes the chunks one
by one and charges communication + rendering cost per chunk.

Every object of a payload already carries its JSON encoding (the fragment
cache, or one encode on the plain build path), so a chunk is serialised by
concatenation and its byte size is *counted*, never re-encoded:
:func:`chunk_bytes` is the one definition of "bytes on the wire" that
:attr:`PayloadChunk.byte_size`, :func:`stream_bytes` and the response ``meta``
all go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .json_builder import GraphPayload

__all__ = [
    "PayloadChunk",
    "stream_payload",
    "chunk_count",
    "chunk_bytes",
    "stream_bytes",
]

#: ``{"chunk":<i>,"total":<n>,"nodes":[<...>],"edges":[<...>]}`` minus the
#: two numbers and the two comma-joined fragment lists.
_CHUNK_FRAME_BYTES = len('{"chunk":,"total":,"nodes":[],"edges":[]}')


def chunk_bytes(
    index: int, total: int, nodes_json: Sequence[str], edges_json: Sequence[str]
) -> int:
    """Exact serialised size of one chunk, counted from its object fragments.

    The fragments are ``json.dumps`` output with ``ensure_ascii`` on, so each
    string's length is its UTF-8 byte count.
    """
    return (
        _CHUNK_FRAME_BYTES + len(str(index)) + len(str(total))
        + sum(map(len, nodes_json)) + max(len(nodes_json) - 1, 0)
        + sum(map(len, edges_json)) + max(len(edges_json) - 1, 0)
    )


@dataclass(frozen=True)
class PayloadChunk:
    """One streamed piece of a window-query result.

    ``nodes_json`` / ``edges_json`` are the per-object JSON fragments parallel
    to ``nodes`` / ``edges``; the chunk's wire form is their concatenation.
    """

    index: int
    total_chunks: int
    nodes: tuple[dict[str, object], ...]
    edges: tuple[dict[str, object], ...]
    nodes_json: tuple[str, ...] = field(repr=False, compare=False)
    edges_json: tuple[str, ...] = field(repr=False, compare=False)

    @property
    def num_objects(self) -> int:
        """Number of visual objects carried by this chunk."""
        return len(self.nodes) + len(self.edges)

    @property
    def is_last(self) -> bool:
        """``True`` for the final chunk of the stream."""
        return self.index == self.total_chunks - 1

    def to_json(self) -> str:
        """Serialise this chunk (what goes on the wire for one piece)."""
        return (
            f'{{"chunk":{self.index},"total":{self.total_chunks},"nodes":['
            + ",".join(self.nodes_json) + '],"edges":['
            + ",".join(self.edges_json) + "]}"
        )

    @property
    def byte_size(self) -> int:
        """Size of the serialised chunk in bytes (drives the communication cost model)."""
        return chunk_bytes(
            self.index, self.total_chunks, self.nodes_json, self.edges_json
        )


def chunk_count(payload: GraphPayload, chunk_size: int) -> int:
    """Return how many chunks a payload will be streamed in."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    total_objects = payload.num_objects
    if total_objects == 0:
        return 1
    return -(-total_objects // chunk_size)  # ceil division


def _chunk_slices(
    payload: GraphPayload, chunk_size: int
) -> Iterator[tuple[int, int, slice, slice]]:
    """Yield ``(index, total, node slice, edge slice)`` for every chunk.

    Objects are emitted in payload order (nodes first, then edges); each
    chunk is carved out of the two lists by slicing, so a chunk may straddle
    the node/edge boundary.  An empty payload is one empty chunk.
    """
    total = chunk_count(payload, chunk_size)
    num_nodes = len(payload.nodes)
    for index in range(total):
        start = index * chunk_size
        end = start + chunk_size
        yield (
            index,
            total,
            slice(min(start, num_nodes), min(end, num_nodes)),
            slice(max(start - num_nodes, 0), max(end - num_nodes, 0)),
        )


def stream_payload(payload: GraphPayload, chunk_size: int = 200) -> Iterator[PayloadChunk]:
    """Yield the payload in chunks of at most ``chunk_size`` objects.

    Nodes are streamed before the edges that reference them whenever possible:
    objects are emitted in payload order (nodes first, then edges), which is how
    the original system avoids the client rendering an edge whose endpoints have
    not arrived yet.
    """
    nodes, edges = payload.nodes, payload.edges
    nodes_json, edges_json = payload.nodes_json, payload.edges_json
    for index, total, node_part, edge_part in _chunk_slices(payload, chunk_size):
        yield PayloadChunk(
            index=index,
            total_chunks=total,
            nodes=tuple(nodes[node_part]),
            edges=tuple(edges[edge_part]),
            nodes_json=tuple(nodes_json[node_part]),
            edges_json=tuple(edges_json[edge_part]),
        )


def stream_bytes(payload: GraphPayload, chunk_size: int) -> int:
    """Exact byte count of the whole chunked stream, without building it.

    Equal to ``sum(chunk.byte_size for chunk in stream_payload(payload,
    chunk_size))``; this is the ``total_bytes`` a window answer reports.
    """
    nodes_json, edges_json = payload.nodes_json, payload.edges_json
    return sum(
        chunk_bytes(index, total, nodes_json[node_part], edges_json[edge_part])
        for index, total, node_part, edge_part in _chunk_slices(payload, chunk_size)
    )
