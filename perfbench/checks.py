"""Answer checking against a reference built from a copy of the same data.

The reference is ``load_from_sqlite`` + ``QueryManager`` over copies of the
SQLite files taken before the server started, so it holds the pre-edit
dataset.  A sampled answer is compared with it only where no edit the trace
sent before the answer arrived can have changed that answer; answers that
edits do touch are checked against the edit log instead (an acknowledged
edit must be visible to every later read).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .replay import Sample

__all__ = ["EditLog", "Reference", "Verdict", "check_samples", "parse_window"]


@dataclass
class Verdict:
    """Outcome of the answer checks of one replay."""

    checked: int = 0
    skipped: int = 0
    wrong: list[str] = field(default_factory=list)

    def fail(self, sample: Sample, reason: str) -> None:
        self.wrong.append(f"{sample.op.target}: {reason}")


def parse_window(body: bytes) -> tuple[dict, set[int], set[tuple], dict[int, tuple]]:
    """``(meta, node ids, edge tuples, node positions)`` of a window answer."""
    decoded = json.loads(body)
    payload = decoded["payload"]
    positions = {int(n["id"]): (n["x"], n["y"]) for n in payload["nodes"]}
    edges = {(int(e["source"]), int(e["target"]), e["label"]) for e in payload["edges"]}
    return decoded["meta"], set(positions), edges, positions


def _rect(values):
    from repro.spatial.geometry import Rect

    return Rect(*values)


def _window_of_cursor(cursor: dict):
    from repro.config import ClientConfig
    from repro.core.viewport import Viewport
    from repro.spatial.geometry import Point

    config = ClientConfig()
    viewport = Viewport(Point(cursor["x"], cursor["y"]), config.viewport_width,
                        config.viewport_height, cursor["zoom"])
    return int(cursor["layer"]), viewport.window()


class Reference:
    """Pre-edit answers of every dataset, computed in the benchmark process."""

    def __init__(self, paths: dict[str, str]) -> None:
        from repro.core.query_manager import QueryManager
        from repro.storage.sqlite_backend import load_from_sqlite

        self.managers = {
            name: QueryManager(load_from_sqlite(path)) for name, path in paths.items()
        }
        self._label_cache: dict = {}

    def default_window(self, dataset: str, layer: int):
        return self.managers[dataset].default_viewport(layer=layer).window()

    def window(self, dataset: str, layer: int, rect) -> tuple[set[int], set[tuple]]:
        """Node ids and edges a window answer must hold (``build_payload``'s
        rule: every row's nodes, and one edge per edge row)."""
        nodes: set[int] = set()
        edges: set[tuple] = set()
        for row in self.managers[dataset].database.table(layer).window_query(rect):
            nodes.add(row.node1_id)
            if not row.is_node_row():
                nodes.add(row.node2_id)
                edges.add((row.node1_id, row.node2_id, row.edge_label))
        return nodes, edges

    def keyword(self, dataset: str, query: str, limit: int, layer: int) -> list[dict]:
        """``QueryManager.keyword_search`` answer, by a scan of the labels.

        The label index's rule: every query token is a substring of some
        token of the label; matches sorted by (label, node id).  Scanning
        avoids building the reference's own label index, which costs
        seconds per run.
        """
        from repro.spatial.trie import tokenize

        wanted = tokenize(query)
        if not wanted:
            return []
        nodes = self._labels(dataset, layer)
        hits = sorted(
            (label, node) for node, (label, tokens, _) in nodes.items()
            if all(any(part in token for token in tokens) for part in wanted)
        )
        return [{"node_id": node, "label": label, "x": nodes[node][2][0],
                 "y": nodes[node][2][1]} for label, node in hits[:limit]]

    def _labels(self, dataset: str, layer: int) -> dict:
        """``node -> (label, label tokens, position)`` of one layer."""
        from repro.spatial.trie import tokenize

        key = (dataset, layer)
        if key not in self._label_cache:
            nodes = {}
            for row in self.managers[dataset].database.table(layer).scan():
                start, end = row.endpoints()
                ends = [(row.node1_id, row.node1_label, start)]
                if not row.is_node_row():
                    ends.append((row.node2_id, row.node2_label, end))
                for node, label, point in ends:
                    if node not in nodes:
                        nodes[node] = (label, tokenize(label), (point.x, point.y))
            self._label_cache[key] = nodes
        return self._label_cache[key]

    def nearest(self, dataset: str, x: float, y: float, k: int, layer: int):
        """Sorted index distances of the k nearest rows, and the largest one."""
        from repro.spatial.geometry import Point

        table = self.managers[dataset].database.table(layer)
        point = Point(x, y)
        distances = sorted(row.bounding_rect().min_distance_to_point(point)
                           for row in table.nearest(point, k=k))
        return distances, (distances[-1] if distances else 0.0)

    def row_distance(self, dataset: str, layer: int, row_id: int, x: float,
                     y: float) -> float | None:
        """Index distance of one pre-edit row from a point (``None``: no row)."""
        from repro.errors import StorageError
        from repro.spatial.geometry import Point

        table = self.managers[dataset].database.table(layer)
        try:
            row = table.get(row_id)
        except StorageError:
            return None
        return row.bounding_rect().min_distance_to_point(Point(x, y))


@dataclass
class _Edit:
    sample: Sample
    dataset: str
    op: str
    args: dict
    geometry: list = field(default_factory=list)  # Rects the edit may change

    @property
    def acked(self) -> bool:
        return self.sample.ok


class EditLog:
    """Every edit the replay sent, in send order, with the area it touches."""

    def __init__(self, samples: list[Sample]) -> None:
        from repro.spatial.geometry import LineSegment, Point, Rect

        self.edits: list[_Edit] = []
        positions: dict[tuple[str, int], tuple[float, float]] = {}
        incident: dict[tuple[str, int], list[int]] = {}
        for sample in samples:
            if sample.op.cls != "edit":
                continue
            op = sample.op.edit["op"]
            args = {k: v for k, v in sample.op.edit.items() if k != "op"}
            edit = _Edit(sample, sample.op.dataset, op, args)
            dataset = sample.op.dataset

            def point(xy):
                return Rect(xy[0], xy[1], xy[0], xy[1])

            def segment(a, b):
                return LineSegment(Point(*positions[(dataset, a)]),
                                   Point(*positions[(dataset, b)])).bounding_rect()

            if op in ("add_node", "move_node"):
                key = (dataset, int(args["node_id"]))
                if key in positions:
                    edit.geometry.append(point(positions[key]))
                    edit.geometry.extend(segment(a, b) for a, b in
                                         self._edge_pairs(incident, key))
                positions[key] = (float(args["x"]), float(args["y"]))
                edit.geometry.append(point(positions[key]))
                edit.geometry.extend(segment(a, b) for a, b in
                                     self._edge_pairs(incident, key))
            elif op == "add_edge":
                source, target = int(args["source"]), int(args["target"])
                if (dataset, source) in positions and (dataset, target) in positions:
                    incident.setdefault((dataset, source), []).append(target)
                    incident.setdefault((dataset, target), []).append(source)
                    edit.geometry.append(segment(source, target))
            self.edits.append(edit)

    @staticmethod
    def _edge_pairs(incident, key):
        return [(key[1], other) for other in incident.get(key, [])]

    def touches(self, dataset: str, before: float, rect) -> bool:
        """Could an edit sent before ``before`` change answers inside ``rect``?"""
        return any(
            edit.dataset == dataset and edit.sample.start < before
            and any(area.intersects(rect) for area in edit.geometry)
            for edit in self.edits
        )

    def near(self, dataset: str, before: float, x: float, y: float, reach: float) -> bool:
        from repro.spatial.geometry import Point

        probe = Point(x, y)
        return any(
            edit.dataset == dataset and edit.sample.start < before
            and any(area.min_distance_to_point(probe) <= reach + 1e-9
                    for area in edit.geometry)
            for edit in self.edits
        )

    def any_before(self, dataset: str, before: float) -> bool:
        return any(e.dataset == dataset and e.sample.start < before for e in self.edits)

    def labels_before(self, dataset: str, before: float) -> list[tuple[int, str]]:
        return [(int(e.args["node_id"]), e.args["label"]) for e in self.edits
                if e.op == "add_node" and e.dataset == dataset and e.sample.start < before]

    def stable_nodes(self, dataset: str, sent: float, answered: float):
        """``node -> position`` of nodes settled for a read over [sent, answered].

        A node is settled when its last add/move was acknowledged before the
        read was sent and no later add/move of it was sent before the answer
        arrived; the read must then see it at that position.
        """
        settled: dict[int, tuple[float, float] | None] = {}
        for edit in self.edits:
            if edit.dataset != dataset or edit.op not in ("add_node", "move_node"):
                continue
            node = int(edit.args["node_id"])
            if edit.sample.end < sent and edit.acked:
                if node in settled and settled[node] is None:
                    continue
                settled[node] = (float(edit.args["x"]), float(edit.args["y"]))
            elif edit.sample.start < answered:
                settled[node] = None  # in flight during the read
        return {node: xy for node, xy in settled.items() if xy is not None}

    def final_state(self):
        """Last acknowledged position of each node and every acknowledged edge."""
        nodes: dict[tuple[str, int], tuple[float, float]] = {}
        ambiguous: set[tuple[str, int]] = set()
        edges: list[tuple[str, int, int]] = []
        for edit in self.edits:
            if edit.op in ("add_node", "move_node"):
                key = (edit.dataset, int(edit.args["node_id"]))
                if edit.acked:
                    nodes[key] = (float(edit.args["x"]), float(edit.args["y"]))
                else:
                    ambiguous.add(key)
            elif edit.op == "add_edge" and edit.acked:
                edges.append((edit.dataset, int(edit.args["source"]),
                              int(edit.args["target"])))
        for key in ambiguous:
            nodes.pop(key, None)
        return nodes, edges


def check_samples(
    samples: list[Sample], reference: Reference, edits: EditLog, limit: int = 150
) -> Verdict:
    """Check the kept answers of a replay (at most ``limit`` per op class)."""
    verdict = Verdict()
    kept: dict[str, list[Sample]] = {}
    for sample in samples:
        if sample.ok and sample.body is not None and sample.op.check is not None:
            kept.setdefault(sample.op.cls, []).append(sample)
    for cls, group in sorted(kept.items()):
        step = max(1, len(group) // limit)
        for sample in group[::step][:limit]:
            try:
                if cls in ("pan_zoom", "window"):
                    _check_window(sample, reference, edits, verdict)
                elif cls == "keyword":
                    _check_keyword(sample, reference, edits, verdict)
                elif cls == "nearest":
                    _check_nearest(sample, reference, edits, verdict)
            except (ValueError, KeyError, TypeError) as exc:
                verdict.fail(sample, f"unreadable answer: {exc}")
    return verdict


def _check_window(sample: Sample, reference: Reference, edits: EditLog,
                  verdict: Verdict) -> None:
    meta, nodes, edge_set, positions = parse_window(sample.body)
    dataset = sample.op.dataset
    if sample.op.check.get("session"):
        layer, rect = _window_of_cursor(meta["cursor"])
    elif sample.op.check["window"] is None:
        if edits.any_before(dataset, sample.end):
            verdict.skipped += 1  # edits may have moved the default viewport
            return
        layer = sample.op.check["layer"]
        rect = reference.default_window(dataset, layer)
    else:
        layer, rect = sample.op.check["layer"], _rect(sample.op.check["window"])
    if meta["num_objects"] != len(nodes) + len(edge_set):
        verdict.fail(sample, "num_objects disagrees with the payload")
        return
    verdict.checked += 1
    if not edits.touches(dataset, sample.end, rect):
        expected_nodes, expected_edges = reference.window(dataset, layer, rect)
        if (nodes, edge_set) != (expected_nodes, expected_edges):
            verdict.fail(sample, f"window {rect} on layer {layer} differs from the "
                                 f"reference ({len(nodes)} vs {len(expected_nodes)} nodes)")
        return
    if layer != 0:
        return
    for node, (x, y) in edits.stable_nodes(dataset, sample.start, sample.end).items():
        inside = rect.min_x < x < rect.max_x and rect.min_y < y < rect.max_y
        if inside and positions.get(node) != (x, y):
            verdict.fail(sample, f"acknowledged node {node} at {(x, y)} missing "
                                 f"from a later window")
            return


def _check_keyword(sample: Sample, reference: Reference, edits: EditLog,
                   verdict: Verdict) -> None:
    check = sample.op.check
    dataset, query = sample.op.dataset, check["q"]
    matches = json.loads(sample.body)["matches"]
    expected = reference.keyword(dataset, query, check["limit"], check["layer"])
    added = [(node, label) for node, label in edits.labels_before(dataset, sample.end)
             if query in label]
    verdict.checked += 1
    if not added:
        if matches != expected:
            verdict.fail(sample, f"keyword {query!r} differs from the reference")
        return
    settled = edits.stable_nodes(dataset, sample.start, sample.end)
    if any(node not in settled for node, _ in added) or (
        len(added) + len(expected) > check["limit"]
    ):
        verdict.skipped += 1
        return
    want = {(m["node_id"], m["label"], m["x"], m["y"]) for m in expected}
    want |= {(node, label, *settled[node]) for node, label in added}
    got = {(m["node_id"], m["label"], m["x"], m["y"]) for m in matches}
    if got != want:
        verdict.fail(sample, f"keyword {query!r} misses an acknowledged edit")


def _check_nearest(sample: Sample, reference: Reference, edits: EditLog,
                   verdict: Verdict) -> None:
    """Rows at equal index distance tie, and trees break ties differently:
    the answer is right when its rows sit at exactly the reference's
    distances."""
    check = sample.op.check
    dataset, x, y, layer = sample.op.dataset, check["x"], check["y"], check["layer"]
    rows = [row["row_id"] for row in json.loads(sample.body)["rows"]]
    expected, reach = reference.nearest(dataset, x, y, check["k"], layer)
    if edits.near(dataset, sample.end, x, y, reach):
        verdict.skipped += 1
        return
    verdict.checked += 1
    got = [reference.row_distance(dataset, layer, row, x, y) for row in rows]
    if None in got or len(set(rows)) != len(rows) or sorted(got) != expected:
        verdict.fail(sample, f"nearest at ({x}, {y}) differs from the reference")
