"""Unit tests for JSON payload building and chunked streaming."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.json_builder import build_payload, payload_to_json, row_fragments
from repro.core.streaming import chunk_count, stream_bytes, stream_payload
from repro.graph.model import Graph
from repro.layout.base import Layout
from repro.spatial.geometry import LineSegment, Point, encode_segment
from repro.storage.schema import EdgeRow, rows_from_graph


@pytest.fixture
def rows(small_graph):
    layout = Layout({
        1: Point(0.0, 0.0), 2: Point(10.0, 0.0), 3: Point(10.0, 10.0), 4: Point(0.0, 10.0),
    })
    return rows_from_graph(small_graph, layout)


class TestPayload:
    def test_nodes_deduplicated(self, rows):
        payload = build_payload(rows)
        assert len(payload.nodes) == 4
        assert len(payload.edges) == 4
        assert payload.num_objects == 8
        assert payload.node_ids() == {1, 2, 3, 4}

    def test_node_coordinates_come_from_geometry(self, rows):
        payload = build_payload(rows)
        node1 = next(node for node in payload.nodes if node["id"] == 1)
        assert (node1["x"], node1["y"]) == (0.0, 0.0)

    def test_edge_records_direction(self, rows):
        payload = build_payload(rows)
        assert all(edge["directed"] for edge in payload.edges)

    def test_isolated_node_row_becomes_node_only(self):
        graph = Graph()
        graph.add_node(7, label="alone")
        payload = build_payload(rows_from_graph(graph, Layout({7: Point(1, 1)})))
        assert len(payload.nodes) == 1
        assert payload.edges == []

    def test_empty_payload(self):
        payload = build_payload([])
        assert payload.num_objects == 0

    def test_payload_to_json_is_valid(self, rows):
        payload = build_payload(rows)
        parsed = json.loads(payload_to_json(payload))
        assert len(parsed["nodes"]) == 4
        assert len(parsed["edges"]) == 4


class TestStreaming:
    def test_chunk_count(self, rows):
        payload = build_payload(rows)
        assert chunk_count(payload, 3) == 3  # 8 objects in chunks of 3
        assert chunk_count(payload, 100) == 1
        assert chunk_count(build_payload([]), 10) == 1

    def test_chunk_count_invalid(self, rows):
        with pytest.raises(ValueError):
            chunk_count(build_payload(rows), 0)

    def test_chunks_cover_all_objects_once(self, rows):
        payload = build_payload(rows)
        chunks = list(stream_payload(payload, chunk_size=3))
        assert len(chunks) == 3
        total_objects = sum(chunk.num_objects for chunk in chunks)
        assert total_objects == payload.num_objects
        assert chunks[-1].is_last
        assert [chunk.index for chunk in chunks] == [0, 1, 2]

    def test_nodes_stream_before_edges(self, rows):
        payload = build_payload(rows)
        chunks = list(stream_payload(payload, chunk_size=4))
        assert len(chunks[0].nodes) == 4
        assert len(chunks[0].edges) == 0
        assert len(chunks[1].edges) == 4

    def test_empty_payload_yields_one_empty_chunk(self):
        chunks = list(stream_payload(build_payload([]), chunk_size=10))
        assert len(chunks) == 1
        assert chunks[0].num_objects == 0
        assert chunks[0].is_last

    def test_chunk_json_and_bytes(self, rows):
        payload = build_payload(rows)
        chunk = next(stream_payload(payload, chunk_size=100))
        parsed = json.loads(chunk.to_json())
        assert parsed["chunk"] == 0
        assert chunk.byte_size == len(chunk.to_json().encode("utf-8"))
        assert chunk.byte_size > 0


# ---------------------------------------------------------------------------
# Exact stream size (property-based)

_coords = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
# Non-ASCII (accents, CJK, emoji, control characters) must count as the
# escaped ASCII that ``json.dumps`` writes.
_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)


@st.composite
def window_rows(draw):
    """Edge rows and node-only rows over a small id space (so nodes repeat)."""
    rows = []
    for row_id in range(draw(st.integers(min_value=0, max_value=25))):
        node1 = draw(st.integers(min_value=0, max_value=15))
        node_only = draw(st.booleans())
        node2 = node1 if node_only else draw(
            st.integers(min_value=0, max_value=15).filter(lambda n: n != node1)
        )
        start = Point(draw(_coords), draw(_coords))
        end = start if node_only else Point(draw(_coords), draw(_coords))
        segment = LineSegment(start, end, directed=draw(st.booleans()))
        rows.append(EdgeRow(
            row_id=row_id,
            node1_id=node1,
            node1_label=draw(_labels),
            edge_geometry=encode_segment(segment),
            edge_label="" if node_only else draw(_labels),
            node2_id=node2,
            node2_label=draw(_labels),
        ))
    return rows


def _reference_chunk_json(chunk) -> str:
    """A chunk encoded from its dictionaries, independently of the fragments."""
    return json.dumps(
        {
            "chunk": chunk.index,
            "total": chunk.total_chunks,
            "nodes": list(chunk.nodes),
            "edges": list(chunk.edges),
        },
        separators=(",", ":"),
    )


class TestExactStreamSize:
    @settings(max_examples=150, deadline=None)
    @given(rows=window_rows(), chunk_size=st.integers(min_value=1, max_value=60))
    def test_stream_bytes_counts_the_chunked_stream(self, rows, chunk_size):
        cache: dict = {}
        payloads = {
            "plain": build_payload(rows),
            "cached-cold": build_payload(rows, fragments=cache),
            "cached-warm": build_payload(rows, fragments=cache),
            "callable": build_payload(rows, fragments=row_fragments),
        }
        for name, payload in payloads.items():
            chunks = list(stream_payload(payload, chunk_size))
            assert len(chunks) == chunk_count(payload, chunk_size), name
            for chunk in chunks:
                assert chunk.to_json() == _reference_chunk_json(chunk), name
                assert chunk.byte_size == len(chunk.to_json().encode()), name
            assert stream_bytes(payload, chunk_size) == sum(
                len(chunk.to_json().encode()) for chunk in chunks
            ), name
            assert payload_to_json(payload) == json.dumps(
                payload.as_dict(), separators=(",", ":")
            ), name

    def test_chunks_straddling_the_node_edge_boundary(self, rows):
        payload = build_payload(rows)  # 4 nodes, then 4 edges
        for chunk_size in range(1, payload.num_objects + 3):
            chunks = list(stream_payload(payload, chunk_size))
            assert stream_bytes(payload, chunk_size) == sum(
                len(_reference_chunk_json(chunk)) for chunk in chunks
            )
        mixed = list(stream_payload(payload, 3))[1]
        assert len(mixed.nodes) == 1 and len(mixed.edges) == 2

    def test_empty_payload_is_one_empty_chunk(self):
        payload = build_payload([])
        assert stream_bytes(payload, 5) == len(
            '{"chunk":0,"total":1,"nodes":[],"edges":[]}'
        )

    def test_non_ascii_labels_count_escaped_bytes(self):
        graph = Graph()
        graph.add_node(1, label="Zoë – 東京 🚀")
        payload = build_payload(rows_from_graph(graph, Layout({1: Point(1, 2)})))
        wire = payload_to_json(payload)
        assert wire.isascii() and "\\u" in wire
        (chunk,) = stream_payload(payload, 10)
        assert stream_bytes(payload, 10) == len(_reference_chunk_json(chunk).encode())
