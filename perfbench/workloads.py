"""Seeded request traces for the three benchmark workloads.

A trace is an unbounded, deterministic sequence of sessions; a session is
the op list one browser tab sends in order on its keep-alive connection.
Sessions are produced lazily in chunks whose seeds derive from the run seed,
so session *k* is the same whatever ``--seconds`` is and however far a
replay gets: the same seed always yields the same inputs, and the traced run
replays exactly the untraced run's trace.

Every workload carries every read class the metrics report (session
pan/zoom, ``/window``, ``/keyword``, ``/nearest``), in proportions that keep
each workload's purpose:

``explore``
    ``repro.slo.loadgen.generate_trace``'s default mix, made realistic:
    sessions open at populated points at zoom 2 and every window asks for
    its payload.
    Pans are distinct windows, so the router cache is bypassed and the
    worker query path does the work.
``hotspot``
    Read-only ``/window``, ``/keyword`` and ``/nearest`` over a zipfian set
    of popular targets sized to fit the router cache, plus a few session
    pans toggling between two windows.  The router cache answers most
    requests; the keyword tail still reaches the label index.  Runnable,
    but not listed in ``BENCHMARK.json`` (see ``perfbench/README.md``).
``edit-mix``
    About a quarter edits (``add_node``, ``move_node``, ``add_edge`` on nodes
    the session added) interleaved with pans and repeated ``/window``,
    ``/keyword`` and ``/nearest`` reads of the same region, so every edit
    invalidates cache entries the next reads want.
"""

from __future__ import annotations

import json
import random
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

__all__ = ["Op", "DatasetInfo", "SessionSource", "WORKLOADS", "READ_CLASSES"]

#: Op classes whose latencies make up the read metrics.
READ_CLASSES = ("pan_zoom", "window", "keyword", "nearest")

#: Sessions generated per chunk (each chunk has its own derived seed).
_CHUNK = 32

#: Zipf exponent for dataset popularity and hot-target ranks.
_ZIPF_S = 1.2

#: Zoom sessions open at.  At zoom 2 a 1280x800 viewport answer holds about
#: 900 layer-0 objects, against about 1,700 at the server's default zoom 1;
#: the paper's Fig. 3 regime is a few hundred per window.
_SESSION_ZOOM = 2.0

#: Lowest zoom an ``explore`` session reaches (window area <= 4x the start).
_MIN_EXPLORE_ZOOM = 1.0

#: Density strata that session starts and hot targets cycle through.
_STRATA = 8


@dataclass(frozen=True)
class Op:
    """One request of a trace.

    ``target`` may hold ``{sid}``, replaced by the session id at replay.
    ``check`` carries what the answer checker needs to recompute the answer
    (layer, window, query); ``edit`` describes a write for the edit log.
    """

    cls: str
    method: str
    target: str
    dataset: str
    body: str | None = None
    check: dict | None = None
    edit: dict | None = None


@dataclass
class DatasetInfo:
    """Populated positions and labels of one preprocessed dataset."""

    name: str
    layers: dict[int, list[tuple[int, float, float]]]
    labels: list[str] = field(default_factory=list)
    _strata: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def load(cls, name: str, path) -> "DatasetInfo":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        layers = {
            int(layer): [(int(n), float(x), float(y)) for n, x, y in nodes]
            for layer, nodes in raw["layers"].items()
        }
        return cls(name=name, layers=layers, labels=raw["labels"])

    def strata(self, layer: int) -> list[list[tuple[int, float, float]]]:
        """The layer's nodes in :data:`_STRATA` groups of rising local density.

        Density is the node count of the viewport-sized grid cell a node
        falls in.  A force-directed drawing has a dense core, so uniform
        picks make the work of a handful of sessions heavy-tailed; cycling
        through the strata gives every few consecutive sessions the same
        density mix.
        """
        if layer not in self._strata:
            from repro.config import ClientConfig

            config = ClientConfig()
            nodes = self.layers[layer]

            def cell(node):
                return (int(node[1] // config.viewport_width),
                        int(node[2] // config.viewport_height))

            counts: dict[tuple[int, int], int] = {}
            for node in nodes:
                counts[cell(node)] = counts.get(cell(node), 0) + 1
            ordered = sorted(nodes, key=lambda node: (counts[cell(node)], node[0]))
            size = len(ordered) / _STRATA
            self._strata[layer] = [ordered[round(i * size):round((i + 1) * size)]
                                   for i in range(_STRATA)]
        return self._strata[layer]

    def pick(self, rng: random.Random, layer: int, turn: int) -> tuple[int, float, float]:
        """A node of stratum ``turn % _STRATA`` (see :meth:`strata`)."""
        return rng.choice(self.strata(layer)[turn % _STRATA])

    def tokens(self) -> list[str]:
        """Distinct label tokens of at least three characters, sorted."""
        found: set[str] = set()
        for label in self.labels:
            found.update(t for t in re.split(r"[^0-9A-Za-z]+", label) if len(t) >= 3)
        return sorted(found)


class SessionSource:
    """Thread-safe lazy iterator over a workload's sessions."""

    def __init__(self, sessions: Iterator[list[Op]]) -> None:
        self._sessions = sessions
        self._lock = threading.Lock()

    def next(self) -> list[Op]:
        with self._lock:
            return next(self._sessions)


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / (rank + 1) ** _ZIPF_S for rank in range(count)]


class _DatasetTurns:
    """Zipf dataset popularity as a fixed interleaving, not a random draw.

    Session *i* goes to the dataset furthest behind its zipf share after
    *i* sessions, so every stretch of a trace has the same dataset mix and
    no run measures a luckier share of the cheaper dataset.
    """

    def __init__(self, datasets: list[str]) -> None:
        weights = _zipf_weights(len(datasets))
        total = sum(weights)
        self._shares = {name: w / total for name, w in zip(datasets, weights)}
        self._counts = {name: 0 for name in datasets}
        self._turn = 0

    def next(self) -> str:
        self._turn += 1
        name = max(self._shares, key=lambda d: (self._turn * self._shares[d]
                                                - self._counts[d], -self._counts[d]))
        self._counts[name] += 1
        return name


def _viewport(x: float, y: float, zoom: float = 1.0):
    from repro.config import ClientConfig
    from repro.core.viewport import Viewport
    from repro.spatial.geometry import Point

    config = ClientConfig()
    return Viewport(Point(x, y), config.viewport_width, config.viewport_height,
                    zoom)


def _window_target(dataset: str, layer: int, rect) -> str:
    return (f"/window?dataset={dataset}&layer={layer}&min_x={rect.min_x!r}"
            f"&min_y={rect.min_y!r}&max_x={rect.max_x!r}&max_y={rect.max_y!r}"
            f"&payload=1")


def _window_op(dataset: str, layer: int, rect) -> Op:
    return Op("window", "GET", _window_target(dataset, layer, rect), dataset,
              check={"layer": layer,
                     "window": [rect.min_x, rect.min_y, rect.max_x, rect.max_y]})


def _keyword_op(dataset: str, query: str, limit: int = 20) -> Op:
    return Op("keyword", "GET",
              f"/keyword?dataset={dataset}&q={query}&limit={limit}", dataset,
              check={"q": query, "limit": limit, "layer": 0})


def _nearest_op(dataset: str, x: float, y: float, k: int = 5) -> Op:
    return Op("nearest", "GET", f"/nearest?dataset={dataset}&x={x!r}&y={y!r}&k={k}",
              dataset, check={"x": x, "y": y, "k": k, "layer": 0})


def _open_op(dataset: str, x: float, y: float, zoom: float | None = None) -> Op:
    target = f"/session/new?dataset={dataset}&x={x!r}&y={y!r}"
    if zoom is not None:
        target += f"&zoom={zoom!r}"
    return Op("session_open", "GET", target, dataset)


def _close_op(dataset: str) -> Op:
    return Op("session_close", "GET", "/session/{sid}/close", dataset)


def _pan_op(dataset: str, dx: float, dy: float) -> Op:
    return Op("pan_zoom", "GET", f"/session/{{sid}}/pan?dx={dx!r}&dy={dy!r}&payload=1",
              dataset, check={"session": True})


def _zoom_op(dataset: str, factor: float) -> Op:
    return Op("pan_zoom", "GET", f"/session/{{sid}}/zoom?factor={factor!r}&payload=1",
              dataset, check={"session": True})


def _chunked(seed: int, make_chunk: Callable[[random.Random, int], list]):
    chunk = 0
    while True:
        rng = random.Random(f"{seed}:{chunk}")
        yield from make_chunk(rng, chunk)
        chunk += 1


# ---------------------------------------------------------------- explore


def explore(seed: int, infos: dict[str, DatasetInfo]) -> Iterator[list[Op]]:
    """The loadgen default mix over both datasets (zipf popularity)."""
    from repro.slo.loadgen import LoadgenConfig, generate_trace

    datasets = sorted(infos)
    node_ids = iter(range(900_001, 10**9))
    opened = {name: 0 for name in datasets}

    def convert(rng: random.Random, trace_op) -> Op:
        target = trace_op.target
        dataset = re.search(r"dataset=([^&]+)", target)
        if target.startswith("/session/new"):
            name = dataset.group(1)
            _, x, y = infos[name].pick(rng, 0, opened[name])
            opened[name] += 1
            return _open_op(name, x, y, _SESSION_ZOOM)
        if target.endswith("/close"):
            return _close_op("")
        if target.startswith("/session/"):
            return Op("pan_zoom", "GET", f"{target}&payload=1", "",
                      check={"session": True})
        name = dataset.group(1)
        if trace_op.op == "window":
            return Op("window", "GET", f"{target}&payload=1", name,
                      check={"layer": 0, "window": None})
        if trace_op.op == "keyword":
            query = re.search(r"q=([^&]+)", target).group(1)
            return _keyword_op(name, query)
        if trace_op.op == "nearest":
            x, y = (float(v) for v in re.search(r"x=([^&]+)&y=([^&]+)", target).groups())
            return _nearest_op(name, x, y)
        # Loadgen numbers its writes per generate_trace call; renumber so ids
        # stay unique across chunks.
        args = json.loads(trace_op.body)
        node_id = next(node_ids)
        args.update(node_id=node_id, label=f"loadgen-{node_id}")
        return Op("edit", "POST", f"/edit/add_node?dataset={name}", name,
                  body=json.dumps(args, sort_keys=True),
                  edit={"op": "add_node", **args})

    def bounded_zoom(session: list[Op]) -> list[Op]:
        # Loadgen zooms out twice as often as in, and a session drifting to
        # the server's 0.1 zoom floor asks layer 0 for 400x its first window:
        # a heavy tail that makes one run's work depend on which sessions it
        # reached.  A zoom-out below the floor turns into the matching zoom-in.
        zoom, bounded = _SESSION_ZOOM, []
        for op in session:
            match = re.search(r"/zoom\?factor=([0-9.]+)", op.target)
            if match:
                factor = float(match.group(1))
                if zoom * factor < _MIN_EXPLORE_ZOOM:
                    factor = round(1.0 / factor, 4)
                zoom *= factor
                op = Op(op.cls, op.method,
                        f"/session/{{sid}}/zoom?factor={factor!r}&payload=1",
                        op.dataset, check=op.check)
            bounded.append(op)
        return bounded

    turns = _DatasetTurns(datasets)

    def chunk(rng: random.Random, index: int) -> list[list[Op]]:
        config = LoadgenConfig(sessions=_CHUNK, concurrency=2,
                               seed=rng.randrange(2**31))
        sessions = []
        for trace_session in generate_trace(datasets, config):
            name = turns.next()
            ops = [convert(rng, replace(trace_op, target=re.sub(
                       r"dataset=[^&]+", f"dataset={name}", trace_op.target)))
                   for trace_op in trace_session]
            sessions.append(bounded_zoom([_with_dataset(op, name) for op in ops]))
        return sessions

    return _chunked(seed, chunk)


def _with_dataset(op: Op, dataset: str) -> Op:
    if op.dataset:
        return op
    return Op(op.cls, op.method, op.target, dataset, op.body, op.check, op.edit)


# ---------------------------------------------------------------- hotspot


def hotspot(seed: int, infos: dict[str, DatasetInfo]) -> Iterator[list[Op]]:
    """Zipfian reads over a fixed popular target set (fits the router cache).

    Per dataset: 24 viewports on layers 0-2 at zoom 1 or 0.5, 150 label
    tokens and 24 kNN points -- under 400 cache entries of a few KiB each,
    far inside the default 1024-entry / 64 MiB router cache.
    """
    datasets = sorted(infos)
    targets_rng = random.Random(f"{seed}:targets")
    targets: dict[str, dict[str, list]] = {}
    for name in datasets:
        info = infos[name]
        windows = []
        for index in range(24):
            layer = (0, 0, 1, 2)[index % 4]
            _, x, y = info.pick(targets_rng, layer, index // 4)
            zoom = (1.0, 0.5)[index // 8 % 2]
            windows.append((layer, _viewport(x, y, zoom).window(), (x, y)))
        tokens = info.tokens()
        targets_rng.shuffle(tokens)
        points = [info.pick(targets_rng, 0, index)[1:] for index in range(24)]
        targets[name] = {"windows": windows, "tokens": tokens[:150],
                         "points": points}

    opened = {name: 0 for name in datasets}
    turns = _DatasetTurns(datasets)

    def session(rng: random.Random) -> list[Op]:
        name = turns.next()
        hot = targets[name]
        views = [w for w in hot["windows"] if w[0] == 0]
        start = views[opened[name] % len(views)]
        opened[name] += 1
        ops = [_open_op(name, *start[2])]
        direction = 1.0
        for _ in range(24):
            roll = rng.random()
            if roll < 0.08:
                # Toggle between two neighbouring views: repeated windows.
                ops.append(_pan_op(name, 300.0 * direction, 0.0))
                direction = -direction
            elif roll < 0.38:
                layer, rect, _ = _zipf_pick(rng, hot["windows"])
                ops.append(_window_op(name, layer, rect))
            elif roll < 0.78:
                ops.append(_keyword_op(name, _zipf_pick(rng, hot["tokens"])))
            else:
                ops.append(_nearest_op(name, *_zipf_pick(rng, hot["points"])))
        ops.append(_close_op(name))
        return ops

    return _chunked(seed, lambda rng, index: [session(rng) for _ in range(_CHUNK)])


def _zipf_pick(rng: random.Random, items: list):
    return rng.choices(items, weights=_zipf_weights(len(items)))[0]


# ---------------------------------------------------------------- edit-mix


def edit_mix(seed: int, infos: dict[str, DatasetInfo]) -> Iterator[list[Op]]:
    """Edits on the session's own nodes interleaved with reads of the region."""
    from repro.config import ClientConfig

    datasets = sorted(infos)
    tokens_of = {name: infos[name].tokens() for name in datasets}
    client_config = ClientConfig()
    node_ids = iter(range(910_001, 10**9))
    tag = f"{seed % 65536:04x}"

    def inside(rng: random.Random, rect) -> tuple[float, float]:
        margin_x = (rect.max_x - rect.min_x) * 0.1
        margin_y = (rect.max_y - rect.min_y) * 0.1
        return (round(rng.uniform(rect.min_x + margin_x, rect.max_x - margin_x), 2),
                round(rng.uniform(rect.min_y + margin_y, rect.max_y - margin_y), 2))

    opened = {name: 0 for name in datasets}
    turns = _DatasetTurns(datasets)

    def session(rng: random.Random) -> list[Op]:
        name = turns.next()
        _, x, y = infos[name].pick(rng, 0, opened[name])
        opened[name] += 1
        viewport = _viewport(x, y, _SESSION_ZOOM)
        ops = [_open_op(name, x, y, _SESSION_ZOOM)]
        nodes: dict[int, tuple[str, float, float]] = {}
        edges: set[tuple[int, int]] = set()
        for _ in range(16):
            roll = rng.random()
            if roll < 0.30:
                ops.append(_edit(rng, name, viewport, nodes, edges, inside, node_ids, tag))
            elif roll < 0.62:
                if rng.random() < 0.8:
                    dx = round(rng.uniform(-250.0, 250.0), 1)
                    dy = round(rng.uniform(-250.0, 250.0), 1)
                    viewport = viewport.panned(dx, dy)
                    ops.append(_pan_op(name, dx, dy))
                else:
                    factor = 1.25 if viewport.zoom < _SESSION_ZOOM else 0.8
                    viewport = viewport.zoomed(factor, client_config)
                    ops.append(_zoom_op(name, factor))
            elif roll < 0.74:
                ops.append(_window_op(name, 0, viewport.window()))
            elif roll < 0.92:
                if nodes and rng.random() < 0.7:
                    query = nodes[rng.choice(sorted(nodes))][0]
                else:
                    query = rng.choice(tokens_of[name])
                ops.append(_keyword_op(name, query))
            else:
                if nodes:
                    _, px, py = nodes[rng.choice(sorted(nodes))]
                else:
                    px, py = viewport.center.x, viewport.center.y
                ops.append(_nearest_op(name, px, py))
        ops.append(_close_op(name))
        return ops

    return _chunked(seed, lambda rng, index: [session(rng) for _ in range(_CHUNK)])


def _edit(rng, name, viewport, nodes, edges, inside, node_ids, tag) -> Op:
    """One write on this session's own nodes (ordered on its connection)."""
    window = viewport.window()
    pairs = [(a, b) for a in sorted(nodes) for b in sorted(nodes)
             if a < b and (a, b) not in edges]
    kind = rng.random()
    if len(nodes) < 2 or kind < 0.45 or (kind >= 0.75 and not pairs):
        node_id = next(node_ids)
        label = f"bench{tag}n{node_id:07d}"
        x, y = inside(rng, window)
        nodes[node_id] = (label, x, y)
        args = {"node_id": node_id, "label": label, "x": x, "y": y}
        op = "add_node"
    elif kind < 0.75:
        node_id = rng.choice(sorted(nodes))
        x, y = inside(rng, window)
        nodes[node_id] = (nodes[node_id][0], x, y)
        args = {"node_id": node_id, "x": x, "y": y}
        op = "move_node"
    else:
        source, target = rng.choice(pairs)
        edges.add((source, target))
        args = {"source": source, "target": target, "label": "bench-link"}
        op = "add_edge"
    return Op("edit", "POST", f"/edit/{op}?dataset={name}", name,
              body=json.dumps(args, sort_keys=True), edit={"op": op, **args})


#: ``name -> (trace factory, workers, extra serve flags)``.
WORKLOADS: dict[str, tuple[Callable, int, tuple[str, ...]]] = {
    "explore": (explore, 1, ()),
    "hotspot": (hotspot, 1, ()),
    # Pinned so an acknowledged edit means durable on both sides of any
    # comparison, whatever the server's default fsync policy becomes.
    "edit-mix": (edit_mix, 2, ("--fsync", "always")),
}
