"""Exploration benchmark: client -> router -> worker, end to end and per layer.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run builds everything fresh: two
preprocessing set-ups of both benchmark datasets (the reported ``setup_s`` is
their median), a real ``python -m repro serve --workers N --port 0`` fleet
per set-up, a seeded trace replayed for ``--seconds`` by one process with two
keep-alive connections in a closed loop, then answer checks against a
reference built from a copy of the same SQLite files.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
trace twice, untraced on the first fleet and traced on the second (a fleet
started through ``traced_serve.py``), and prints the per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2

#: Checked answers kept per op class and connection (every Nth answer).
KEEP_EVERY = 6

#: Kept answers compared with the reference per op class (evenly spread).
CHECKS_PER_CLASS = 30

#: Seconds of the trace replayed before measuring, after one keyword query
#: per dataset: a fresh fleet's lazy set-up (label index, fragment caches,
#: router cache) is paid once per server start, not by every request.
WARMUP_SECONDS = 1.5

#: Keyword of the warm-up query (matches no label of either dataset).
WARMUP_QUERY = "warmupquery"


def _bootstrap(root: Path) -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {root}; run from the "
                         f"repository root")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _bootstrap(root)
    # A terminated run still stops its fleet: SIGTERM unwinds like Ctrl-C.
    signal.signal(signal.SIGTERM, _terminate)
    from perfbench import report
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        bench = Bench(root, work, args.workload, args.seed, args.seconds)
        result = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = report.final(result)
    for line in report.lines(result, summary):
        print(line)
    print(json.dumps(summary, sort_keys=True))
    return 0


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int,
                 seconds: float) -> None:
        from perfbench.workloads import WORKLOADS

        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.factory, self.workers, self.flags = WORKLOADS[workload]

    # ------------------------------------------------------------ building

    def _fleet(self, name: str, traced: bool = False):
        from perfbench.fleet import Fleet

        spans = self.work / name / "spans" if traced else None
        return Fleet(self.root, self.work / name, self.workers, self.flags, spans)

    def _source(self, fleet):
        from perfbench.workloads import DatasetInfo, SessionSource

        infos = {name: DatasetInfo.load(name, path)
                 for name, path in fleet.positions.items()}
        return SessionSource(self.factory(self.seed, infos))

    def _measure(self, fleet, traced: bool) -> dict:
        """Replay the trace on a running fleet; check every answer class."""
        from perfbench.checks import EditLog, Reference, check_samples
        from perfbench.replay import replay

        for dataset in fleet.sqlite:
            # The label index is built by the first keyword query (seconds on
            # patent-like); build it before the trace so no run measures it.
            status, _ = fleet.get(f"/keyword?dataset={dataset}&q={WARMUP_QUERY}&limit=1")
            if status != 200:
                raise RuntimeError(f"warm-up keyword query on {dataset}: HTTP {status}")
        before: dict[str, float] = {}
        result = replay("127.0.0.1", fleet.port, self._source(fleet), self.seconds,
                        warmup_seconds=WARMUP_SECONDS,
                        on_warm=lambda: before.update(fleet.counters()),
                        keep_every=KEEP_EVERY, traced=traced)
        after = fleet.counters()
        router_kib, worker_kib = fleet.peak_rss_kib()
        edits = EditLog(result.samples)
        visibility = final_visibility(fleet, edits)
        reference = Reference({k: str(v) for k, v in fleet.reference.items()})
        verdict = check_samples(result.samples, reference, edits, limit=CHECKS_PER_CLASS)
        return {
            "replay": result,
            "counters": {key: after.get(key, 0.0) - before.get(key, 0.0)
                         for key in after},
            "router_kib": router_kib,
            "worker_kib": worker_kib,
            "baseline_kib": dict(fleet.baseline_rss_kib),
            "verdict": verdict,
            "visibility": visibility,
        }

    def end_to_end(self) -> dict:
        setups = []
        fleet = self._fleet("a")
        try:
            setups.append(fleet.setup())
            measured = self._measure(fleet, traced=False)
        finally:
            fleet.stop()
        for index in range(1, SETUPS):
            extra = self._fleet(f"setup{index}")
            try:
                setups.append(extra.setup())
            finally:
                extra.stop()
        return {"mode": "end_to_end", "workload": self.workload, "seed": self.seed,
                "setups": setups, "runs": [measured]}

    def per_layer(self) -> dict:
        setups = []
        runs = []
        for name, traced in (("a", False), ("b", True)):
            fleet = self._fleet(name, traced=traced)
            try:
                setups.append(fleet.setup())
                runs.append(self._measure(fleet, traced=traced))
            finally:
                fleet.stop()
            if traced:
                runs[-1]["spans"] = load_spans(fleet.spans_dir)
        return {"mode": "per_layer", "workload": self.workload, "seed": self.seed,
                "setups": setups, "runs": runs}


def final_visibility(fleet, edits) -> list[str]:
    """Every acknowledged edit must be visible at its last acknowledged place.

    Nodes are looked up with one ``/keyword`` query per dataset over the
    trace's label prefix; each acknowledged edge must appear in a window
    spanning its endpoints.
    """
    nodes, edge_list = edits.final_state()
    problems: list[str] = []
    by_dataset: dict[str, dict[int, tuple[float, float]]] = defaultdict(dict)
    for (dataset, node), position in nodes.items():
        by_dataset[dataset][node] = position
    labels = {int(e.args["node_id"]): e.args["label"] for e in edits.edits
              if e.op == "add_node"}
    for dataset, expected in sorted(by_dataset.items()):
        prefix = os.path.commonprefix([labels[node] for node in expected])
        status, body = fleet.get(f"/keyword?dataset={dataset}&q={prefix}&limit=1000000")
        if status != 200:
            problems.append(f"{dataset}: keyword lookup of edits answered {status}")
            continue
        found = {m["node_id"]: (m["x"], m["y"]) for m in json.loads(body)["matches"]}
        for node, position in sorted(expected.items()):
            if found.get(node) != position:
                problems.append(f"{dataset}: node {node} expected at {position}, "
                                f"found {found.get(node)}")
    for dataset, source, target in edge_list:
        if (dataset, source) not in nodes or (dataset, target) not in nodes:
            continue
        (x1, y1), (x2, y2) = nodes[(dataset, source)], nodes[(dataset, target)]
        status, body = fleet.get(
            f"/window?dataset={dataset}&min_x={min(x1, x2) - 1.0!r}"
            f"&min_y={min(y1, y2) - 1.0!r}&max_x={max(x1, x2) + 1.0!r}"
            f"&max_y={max(y1, y2) + 1.0!r}&payload=1")
        edges = {(e["source"], e["target"]) for e in
                 json.loads(body)["payload"]["edges"]} if status == 200 else set()
        if (source, target) not in edges:
            problems.append(f"{dataset}: edge {source}->{target} not visible")
    return problems


def load_spans(directory: Path) -> list[dict]:
    processes = []
    for path in sorted(directory.glob("spans-*.json")):
        with open(path, encoding="utf-8") as handle:
            processes.append(json.load(handle))
    return processes


if __name__ == "__main__":
    sys.exit(main())
