"""Unit tests of the benchmark's own helpers: percentiles, self times, checks."""

import bisect
import json
import random
import statistics

import pytest

from perfbench.analysis import Span, attach_orphans, nest, percentile, self_times, tail_supported
from perfbench.checks import EditLog, Verdict, _check_keyword, _check_window, parse_window
from perfbench.replay import Sample
from perfbench.tracing import SpanRecorder, _wrap_sync
from perfbench.workloads import WORKLOADS, DatasetInfo, Op


# ----------------------------------------------------------------- percentiles


@pytest.mark.parametrize("count", [1, 2, 7, 100, 1001])
def test_percentile_matches_statistics_inclusive(count):
    rng = random.Random(count)
    values = [rng.expovariate(1.0) for _ in range(count)]
    if count >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in (0.25, 0.5, 0.95, 0.99):
            assert percentile(values, q) == pytest.approx(cuts[round(q * 100) - 1])
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 1.0) == max(values)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_tail_supported_means_ten_samples_lie_beyond(q):
    for count in range(1, 1100):
        values = list(range(count))
        beyond = count - bisect.bisect_right(values, percentile(values, q))
        assert tail_supported(count, q) == (beyond >= 10), count
    assert not tail_supported(19, 0.5) and tail_supported(20, 0.5)


# -------------------------------------------------------------- self time


def test_self_times_subtract_children_across_processes():
    spans = [
        Span("bench.request", 0.0, 10.0),          # client
        Span("cluster.router.dispatch", 1.0, 9.0),  # router
        Span("service.frontend", 2.0, 5.0),        # worker
        Span("storage.table.window", 3.0, 4.0),
        Span("core.json_builder.build", 6.0, 8.0),  # sibling of the frontend
    ]
    assert nest(spans) == [None, 0, 1, 2, 1]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 1.0, 2.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_times_identical_intervals_nest_in_list_order():
    spans = [Span("outer", 0.0, 1.0), Span("inner", 0.0, 1.0)]
    assert nest(spans) == [None, 0]
    assert self_times(spans) == pytest.approx([0.0, 1.0])


def test_attach_orphans_uses_containing_anchor_only():
    by_request = {
        "a": [Span("service.coalescer.submit", 0.0, 5.0)],
        "b": [Span("service.coalescer.submit", 6.0, 9.0)],
    }
    attach_orphans(by_request, [Span("service.coalescer.batch", 1.0, 2.0)],
                   anchor="service.coalescer.submit")
    assert [s.name for s in by_request["a"]] == [
        "service.coalescer.submit", "service.coalescer.batch"]
    assert len(by_request["b"]) == 1


def test_wrapped_calls_record_parent_links():
    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

    recorder = SpanRecorder()
    _wrap_sync(recorder, Layer, "inner", "inner")
    _wrap_sync(recorder, Layer, "outer", "outer")
    assert Layer().outer() == 7
    (inner, start, end, inner_id, inner_parent, _), outer = recorder.spans
    assert inner == "inner" and outer[0] == "outer"
    assert inner_parent == outer[3] and outer[4] == 0
    assert outer[1] <= start <= end <= outer[2]


# ----------------------------------------------------------------- checks


def _window_body(nodes, edges, cursor=None):
    meta = {"num_objects": len(nodes) + len(edges)}
    if cursor is not None:
        meta["cursor"] = cursor
    return json.dumps({"meta": meta, "payload": {
        "nodes": [{"id": n, "label": str(n), "x": x, "y": y} for n, x, y in nodes],
        "edges": [{"source": a, "target": b, "label": "l", "directed": True}
                  for a, b in edges],
    }}).encode()


class _Reference:
    def __init__(self, nodes, edges, matches=()):
        self.nodes, self.edges, self.matches = nodes, edges, list(matches)

    def window(self, dataset, layer, rect):
        return set(self.nodes), {(a, b, "l") for a, b in self.edges}

    def keyword(self, dataset, query, limit, layer):
        return self.matches


def _sample(op, start, end, body=None, status=200):
    return Sample(op, start, end, status, body=body)


def _window_op():
    return Op("window", "GET", "/window", "d",
              check={"layer": 0, "window": [0.0, 0.0, 10.0, 10.0]})


def _edit(op, start, end, status=200, **args):
    return _sample(Op("edit", "POST", f"/edit/{op}", "d", edit={"op": op, **args}),
                   start, end, status=status)


def test_parse_window_reads_ids_edges_and_positions():
    meta, nodes, edges, positions = parse_window(
        _window_body([(1, 1.0, 2.0), (2, 3.0, 4.0)], [(1, 2)]))
    assert meta["num_objects"] == 3
    assert nodes == {1, 2} and edges == {(1, 2, "l")}
    assert positions[2] == (3.0, 4.0)


def test_window_check_flags_a_missing_object_and_passes_an_exact_one():
    reference = _Reference([1, 2], [(1, 2)])
    edits = EditLog([])
    good = _sample(_window_op(), 0.0, 1.0, _window_body([(1, 1, 1), (2, 2, 2)], [(1, 2)]))
    bad = _sample(_window_op(), 0.0, 1.0, _window_body([(1, 1, 1)], []))
    verdict = Verdict()
    _check_window(good, reference, edits, verdict)
    assert verdict.wrong == [] and verdict.checked == 1
    _check_window(bad, reference, edits, verdict)
    assert len(verdict.wrong) == 1


def test_window_touched_by_an_edit_must_show_the_acknowledged_node():
    reference = _Reference([1], [])
    log = EditLog([_edit("add_node", 0.0, 1.0, node_id=9, label="n9", x=5.0, y=5.0)])
    assert log.touches("d", 3.0, _rect(0, 0, 10, 10))
    assert not log.touches("d", 3.0, _rect(20, 20, 30, 30))
    shown = _sample(_window_op(), 2.0, 3.0, _window_body([(1, 1, 1), (9, 5.0, 5.0)], []))
    hidden = _sample(_window_op(), 2.0, 3.0, _window_body([(1, 1, 1)], []))
    verdict = Verdict()
    _check_window(shown, reference, log, verdict)
    assert verdict.wrong == []
    _check_window(hidden, reference, log, verdict)
    assert len(verdict.wrong) == 1


def test_stable_nodes_ignore_edits_in_flight_during_the_read():
    log = EditLog([
        _edit("add_node", 0.0, 1.0, node_id=1, label="a", x=1.0, y=1.0),
        _edit("move_node", 2.0, 4.0, node_id=1, x=2.0, y=2.0),
        _edit("add_node", 0.5, 1.5, node_id=2, label="b", x=3.0, y=3.0),
    ])
    assert log.stable_nodes("d", sent=1.8, answered=3.0) == {2: (3.0, 3.0)}
    assert log.stable_nodes("d", sent=5.0, answered=6.0) == {1: (2.0, 2.0), 2: (3.0, 3.0)}
    nodes, edges = log.final_state()
    assert nodes == {("d", 1): (2.0, 2.0), ("d", 2): (3.0, 3.0)}


def test_final_state_drops_nodes_whose_last_write_failed():
    log = EditLog([
        _edit("add_node", 0.0, 1.0, node_id=1, label="a", x=1.0, y=1.0),
        _edit("move_node", 2.0, 3.0, status=503, node_id=1, x=2.0, y=2.0),
    ])
    assert log.final_state() == ({}, [])


def test_keyword_check_compares_with_reference_and_edit_log():
    match = {"node_id": 4, "label": "apple", "x": 1.0, "y": 2.0}
    op = Op("keyword", "GET", "/keyword", "d", check={"q": "app", "limit": 20, "layer": 0})
    verdict = Verdict()
    _check_keyword(_sample(op, 0, 1, json.dumps({"matches": [match]}).encode()),
                   _Reference([], [], [match]), EditLog([]), verdict)
    assert verdict.wrong == []
    _check_keyword(_sample(op, 0, 1, json.dumps({"matches": []}).encode()),
                   _Reference([], [], [match]), EditLog([]), verdict)
    assert len(verdict.wrong) == 1

    log = EditLog([_edit("add_node", 0.0, 1.0, node_id=9, label="bench9", x=5.0, y=6.0)])
    op = Op("keyword", "GET", "/keyword", "d", check={"q": "bench9", "limit": 20, "layer": 0})
    found = {"node_id": 9, "label": "bench9", "x": 5.0, "y": 6.0}
    verdict = Verdict()
    _check_keyword(_sample(op, 2, 3, json.dumps({"matches": [found]}).encode()),
                   _Reference([], []), log, verdict)
    _check_keyword(_sample(op, 2, 3, json.dumps({"matches": []}).encode()),
                   _Reference([], []), log, verdict)
    assert len(verdict.wrong) == 1


def _rect(*values):
    from repro.spatial.geometry import Rect

    return Rect(*values)


# -------------------------------------------------------------- workloads


def _infos():
    rng = random.Random(5)
    infos = {}
    for name in ("patent-like", "wikidata-like"):
        layers = {layer: [(i, rng.uniform(-2000, 2000), rng.uniform(-2000, 2000))
                          for i in range(200)] for layer in range(3)}
        infos[name] = DatasetInfo(name, layers, [f"item {i} alpha{i % 7}" for i in range(200)])
    return infos


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traces_are_a_pure_function_of_the_seed(workload):
    factory = WORKLOADS[workload][0]

    def first(seed, count=80):
        sessions = factory(seed, _infos())
        return [next(sessions) for _ in range(count)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    classes = {op.cls for session in first(3) for op in session}
    assert {"pan_zoom", "window", "keyword", "nearest"} <= classes


def test_edit_mix_edits_only_touch_nodes_its_session_added():
    for session in [s for s, _ in zip(WORKLOADS["edit-mix"][0](7, _infos()), range(50))]:
        added = set()
        for op in session:
            if op.cls != "edit":
                continue
            if op.edit["op"] == "add_node":
                added.add(op.edit["node_id"])
            elif op.edit["op"] == "move_node":
                assert op.edit["node_id"] in added
            else:
                assert {op.edit["source"], op.edit["target"]} <= added


# -------------------------------------------------------------- reference


@pytest.fixture(scope="module")
def small_sqlite(tmp_path_factory):
    from repro.config import AbstractionConfig, GraphVizDBConfig, LayoutConfig, PartitionConfig
    from repro.core.pipeline import PreprocessingPipeline
    from repro.graph.generators import wikidata_like
    from repro.storage.sqlite_backend import save_to_sqlite

    config = GraphVizDBConfig(
        partition=PartitionConfig(max_partition_nodes=120, seed=1),
        layout=LayoutConfig(iterations=15, seed=1),
        abstraction=AbstractionConfig(num_layers=2),
    )
    result = PreprocessingPipeline(config).run(wikidata_like(num_entities=120, seed=3))
    path = tmp_path_factory.mktemp("perfbench") / "small.sqlite"
    save_to_sqlite(result.database, path)
    return str(path)


def test_reference_answers_match_the_query_manager(small_sqlite):
    from perfbench.checks import Reference
    from repro.core.query_manager import QueryManager
    from repro.spatial.geometry import Point
    from repro.storage.sqlite_backend import load_from_sqlite

    reference = Reference({"d": small_sqlite})
    manager = QueryManager(load_from_sqlite(small_sqlite))
    labels = sorted({row.node1_label for row in manager.database.table(0).scan()})
    info = DatasetInfo("d", {0: []}, labels)
    for query in info.tokens()[:40] + ["a", "on", "zz", "knuth storage"]:
        assert reference.keyword("d", query, 20, 0) == \
            manager.keyword_search(query, layer=0, limit=20).matches

    viewport = manager.default_viewport(layer=0)
    for zoom in (2.0, 1.0, 0.3):
        rect = viewport.zoomed(zoom).window()
        payload = manager.window_query(rect, layer=0).payload
        assert reference.window("d", 0, rect) == (
            {n["id"] for n in payload.nodes},
            {(e["source"], e["target"], e["label"]) for e in payload.edges},
        )

    center = viewport.center
    distances, reach = reference.nearest("d", center.x, center.y, 5, 0)
    rows = manager.database.table(0).nearest(Point(center.x, center.y), k=5)
    assert sorted(reference.row_distance("d", 0, row.row_id, center.x, center.y)
                  for row in rows) == distances
    assert reach == distances[-1]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    from pathlib import Path

    from perfbench.report import END_TO_END, PER_LAYER

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
