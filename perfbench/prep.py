"""Generate, preprocess and save one benchmark dataset (one process each).

``python3 perfbench/prep.py <dataset> <output.sqlite> <positions.json>``

Builds ``build_benchmark_datasets(scale=1.0)[<dataset>]``, runs the
preprocessing pipeline with ``GraphVizDBConfig.benchmark()``, saves the
result with ``save_to_sqlite`` and prints one JSON line with the step timings.
It also writes every node's layer position and label, from which the
benchmark draws populated session starts, hotspot viewports and keyword
tokens.  The two datasets are prepared by two such processes in parallel.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    name, output, positions_path = argv
    from repro.bench.runner import build_benchmark_datasets
    from repro.config import GraphVizDBConfig
    from repro.core.pipeline import PreprocessingPipeline
    from repro.storage.sqlite_backend import save_to_sqlite

    graph = build_benchmark_datasets(scale=1.0)[name]
    result = PreprocessingPipeline(GraphVizDBConfig.benchmark()).run(graph)
    started = time.perf_counter()
    save_to_sqlite(result.database, output)
    ready_at = time.perf_counter()
    save_seconds = ready_at - started

    database = result.database
    layers = {}
    for layer in database.layers():
        table = database.table(layer)
        nodes = []
        for node_id in sorted(table.distinct_node_ids()):
            position = table.node_position(node_id)
            if position is not None:
                nodes.append([node_id, position.x, position.y])
        layers[str(layer)] = nodes
    labels = {}
    for row in database.table(0).scan():
        labels[row.node1_id] = row.node1_label
        if not row.is_node_row():
            labels[row.node2_id] = row.node2_label
    with open(positions_path, "w", encoding="utf-8") as handle:
        json.dump({"layers": layers,
                   "labels": [labels[key] for key in sorted(labels)]}, handle)

    print(json.dumps({
        "dataset": name,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "layer0_rows": database.table(0).num_rows,
        "steps": {step.name: step.seconds for step in result.report.steps},
        "save_s": save_seconds,
        "ready_at": ready_at,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
