"""Metric assembly and printing for one benchmark run.

End-to-end metrics (``--trace 0``) come from the untraced replay's raw
samples.  Per-layer metrics (``--trace 1``) come from the traced replay's
spans, from ``/metrics`` counter deltas over the untraced replay, and from
``/proc`` of the server processes.  See ``perfbench/README.md`` for which
end-to-end metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .analysis import Span, attach_orphans, layer_of, percentile, self_times, tail_supported
from .workloads import READ_CLASSES

__all__ = ["END_TO_END", "PER_LAYER", "lines", "final", "end_to_end_metrics",
           "per_layer_metrics"]

#: ``name -> unit`` of the end-to-end metrics, in print order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "fleet_rss_mb": "MiB",
}

#: Latencies of the untraced replay that vary too much from run to run on a
#: 2-CPU host to carry a regression bound (or, for edits, have too few
#: samples on ``explore``); reported per layer instead.
_UNBOUNDED_LATENCIES = {
    "bench.pan_zoom_p50_ms": (("pan_zoom",), 0.50),
    "bench.pan_zoom_p90_ms": (("pan_zoom",), 0.90),
    "bench.read_p90_ms": (READ_CLASSES, 0.90),
    "bench.window_p50_ms": (("window",), 0.50),
    "bench.keyword_p50_ms": (("keyword",), 0.50),
    "bench.nearest_p50_ms": (("nearest",), 0.50),
    "bench.edit_p50_ms": (("edit",), 0.50),
}

_STEP_NAMES = {
    "partitioning": "core.pipeline.partition_s",
    "layout": "core.pipeline.layout_s",
    "organize_partitions": "core.pipeline.organize_s",
    "abstraction_layers": "core.pipeline.abstraction_s",
    "store_and_index": "core.pipeline.store_index_s",
}

#: Op classes whose unexplained latency is reported.
_UNATTRIBUTED = ("pan_zoom", "window", "keyword", "nearest", "edit")

#: ``name -> (unit, better)`` of the per-layer metrics, in print order.
PER_LAYER = {
    **{name: ("s", "lower") for name in _STEP_NAMES.values()},
    "storage.sqlite_backend.save_s": ("s", "lower"),
    "cluster.worker.spawn_s": ("s", "lower"),
    "service.pool.open_ms": ("ms", "lower"),
    "cluster.router.rss_mb": ("MiB", "lower"),
    "cluster.worker.rss_mb": ("MiB", "lower"),
    "cluster.worker.baseline_rss_mb": ("MiB", "lower"),
    "cluster.cache.hit_frac.window": ("fraction", "higher"),
    "cluster.cache.hit_frac.keyword": ("fraction", "higher"),
    "cluster.cache.hit_frac.nearest": ("fraction", "higher"),
    "cluster.cache.invalidations": ("count", "lower"),
    "cluster.router.self_ms": ("ms", "lower"),
    "cluster.router.dispatch_self_ms": ("ms", "lower"),
    "cluster.client.proxy_ms": ("ms", "lower"),
    "cluster.client.retries": ("count", "lower"),
    "service.http.self_ms": ("ms", "lower"),
    "service.frontend.self_ms": ("ms", "lower"),
    "service.frontend.queue_wait_ms": ("ms", "lower"),
    "service.frontend.rejected": ("count", "lower"),
    "service.coalescer.batch_size": ("count", "higher"),
    "service.coalescer.hold_ms": ("ms", "lower"),
    "core.session.self_ms": ("ms", "lower"),
    "core.query_manager.self_ms": ("ms", "lower"),
    "storage.table.window_ms": ("ms", "lower"),
    "storage.table.candidates_per_row": ("ratio", "lower"),
    "spatial.dynamic_probe_frac": ("fraction", "lower"),
    "service.maintenance.repack_runs": ("count", "lower"),
    "core.json_builder.build_ms": ("ms", "lower"),
    "core.json_builder.bytes_per_object": ("B", "lower"),
    "storage.table.keyword_ms": ("ms", "lower"),
    "storage.table.nearest_ms": ("ms", "lower"),
    "writes.coordinator.apply_ms": ("ms", "lower"),
    "writes.journal.append_ms": ("ms", "lower"),
    "writes.journal.sync_ms": ("ms", "lower"),
    "writes.journal.fsyncs_per_edit": ("ratio", "lower"),
    "cluster.replication.records_applied_per_edit": ("ratio", "lower"),
    **{f"{cls}.unattributed_ms": ("ms", "lower") for cls in _UNATTRIBUTED},
    "bench.trace_overhead_frac": ("fraction", "lower"),
    **{name: ("ms", "lower") for name in _UNBOUNDED_LATENCIES},
    "bench.pan_zoom.objects_per_op": ("count", "higher"),
    "bench.pan_zoom.empty_frac": ("fraction", "lower"),
    "bench.window.objects_per_op": ("count", "higher"),
    "bench.bytes_per_op": ("B", "lower"),
    "bench.failed_frac": ("fraction", "lower"),
}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _latencies_ms(samples, classes) -> list[float]:
    return [s.latency * 1000.0 for s in samples if s.ok and s.op.cls in classes]


def _quantile_ms(samples, classes, q: float) -> float:
    values = _latencies_ms(samples, classes)
    return percentile(values, q) if values else 0.0


def _ops_per_s(run) -> float:
    replay = run["replay"]
    return len(replay.measured) / replay.wall_seconds


def _wrong(run) -> int:
    return len(run["verdict"].wrong) + len(run["visibility"])


def end_to_end_metrics(result: dict) -> dict[str, float]:
    run = result["runs"][0]
    return {
        "setup_s": statistics.median(s.setup_s for s in result["setups"]),
        "ops_per_s": _ops_per_s(run),
        "fleet_rss_mb": (run["router_kib"] + sum(run["worker_kib"].values())) / 1024.0,
    }


def _frac(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _request_spans(spans_files: list[dict], samples) -> dict[str, list[Span]]:
    """Spans of each traced client request, from every server process."""
    roots = {s.request_id: s for s in samples if s.request_id is not None}
    by_request: dict[str, list[Span]] = {}
    for request_id, sample in roots.items():
        by_request[request_id] = [Span("bench.request", sample.start, sample.end)]
    for process in spans_files:
        local: dict[str, list[Span]] = defaultdict(list)
        orphans = []
        for name, start, end, _, _, request_id in process["spans"]:
            span = Span(name, start, end)
            if request_id in roots:
                local[request_id].append(span)
            elif request_id is None:
                orphans.append(span)
        attach_orphans(local, orphans, anchor="service.coalescer.submit")
        for request_id, spans in local.items():
            by_request[request_id].extend(spans)
    return by_request


def _traced_layers(traced: dict):
    """Span durations (ms) and value samples of the traced replay's layers.

    Layer timings count work done while the trace was measured; set-up work
    (worker spawn, cold pool opens) happens before, so every span is also
    returned in the first mapping.
    """
    measured_from = traced["replay"].measured_from
    all_durations: dict[str, list[float]] = defaultdict(list)
    durations: dict[str, list[float]] = defaultdict(list)
    samples: dict[str, list[float]] = defaultdict(list)
    for process in traced.get("spans", []):
        for name, start, end, *_ in process["spans"]:
            all_durations[name].append((end - start) * 1000.0)
            if start >= measured_from:
                durations[name].append((end - start) * 1000.0)
        for name, values in process["samples"].items():
            samples[name].extend(v for taken, v in values if taken >= measured_from)
    return all_durations, durations, samples


def per_layer_metrics(result: dict) -> dict[str, float]:
    untraced, traced = result["runs"]
    counters = untraced["counters"]
    metrics: dict[str, float] = {}

    for step, name in _STEP_NAMES.items():
        metrics[name] = statistics.median(s.steps.get(step, 0.0) for s in result["setups"])
    metrics["storage.sqlite_backend.save_s"] = statistics.median(
        s.save_s for s in result["setups"])

    metrics["cluster.router.rss_mb"] = untraced["router_kib"] / 1024.0
    metrics["cluster.worker.rss_mb"] = _mean(untraced["worker_kib"].values()) / 1024.0
    metrics["cluster.worker.baseline_rss_mb"] = _mean(
        untraced["baseline_kib"].values()) / 1024.0

    def delta(key: str) -> float:
        return counters.get(key, 0.0)

    hits = delta("cluster.window_cache_hits")
    metrics["cluster.cache.hit_frac.window"] = _frac(
        hits, hits + delta("cluster.window_cache_misses"))
    for kind in ("keyword", "nearest"):
        metrics[f"cluster.cache.hit_frac.{kind}"] = _frac(
            delta(f"cluster.{kind}_cache_hits"), delta(f"cluster.{kind}_requests"))
    metrics["cluster.cache.invalidations"] = delta("cluster.window_cache_invalidations")
    metrics["cluster.client.retries"] = (delta("cluster.proxy_retries")
                                         + delta("cluster.proxy_stale_retries"))
    metrics["service.frontend.rejected"] = delta("requests.rejected")
    metrics["service.maintenance.repack_runs"] = delta("repack_runs")
    acked_edits = sum(1 for s in untraced["replay"].measured if s.op.cls == "edit" and s.ok)
    metrics["writes.journal.fsyncs_per_edit"] = _frac(
        delta("writes.journal_fsyncs"), delta("writes.applied"))
    metrics["cluster.replication.records_applied_per_edit"] = _frac(
        delta("replication.records_applied"), acked_edits)

    spans_files = traced.get("spans", [])
    all_durations, durations, samples = _traced_layers(traced)

    traced_samples = traced["replay"].measured
    by_request = _request_spans(spans_files, traced_samples)
    layer_self: dict[str, list[float]] = defaultdict(list)
    unattributed: dict[str, list[float]] = defaultdict(list)
    router_self = []
    classes = {s.request_id: s.op.cls for s in traced_samples if s.request_id}
    for request_id, spans in by_request.items():
        selfs = self_times(spans)
        per_layer: dict[str, float] = defaultdict(float)
        for span, value in zip(spans, selfs):
            per_layer[layer_of(span.name)] += value * 1000.0
        for layer, value in per_layer.items():
            layer_self[layer].append(value)
        unattributed[classes[request_id]].append(per_layer["unattributed"])
        proxied = sum(s.duration for s in spans if s.name == "cluster.client.request")
        router_self.append((spans[0].duration - proxied) * 1000.0)

    metrics["cluster.worker.spawn_s"] = _mean(all_durations["cluster.worker.spawn"]) / 1000.0
    metrics["service.pool.open_ms"] = _mean(all_durations["service.pool.open"])
    metrics["cluster.router.self_ms"] = _mean(router_self)
    metrics["cluster.router.dispatch_self_ms"] = _mean(layer_self["cluster.router.dispatch"])
    metrics["cluster.client.proxy_ms"] = _mean(durations["cluster.client.request"])
    metrics["service.http.self_ms"] = _mean(layer_self["service.http"])
    metrics["service.frontend.self_ms"] = _mean(layer_self["service.frontend"])
    metrics["service.frontend.queue_wait_ms"] = _mean(durations["service.frontend.queue_wait"])
    metrics["service.coalescer.batch_size"] = _mean(samples["service.coalescer.batch_size"])
    metrics["service.coalescer.hold_ms"] = _mean(samples["service.coalescer.hold_s"]) * 1000.0
    metrics["core.session.self_ms"] = _mean(layer_self["core.session"])
    metrics["core.query_manager.self_ms"] = _mean(layer_self["core.query_manager"])
    metrics["storage.table.window_ms"] = _mean(durations["storage.table.window"])
    metrics["storage.table.candidates_per_row"] = _frac(
        sum(samples["storage.table.candidates"]), sum(samples["storage.table.rows"]))
    metrics["spatial.dynamic_probe_frac"] = _mean(samples["spatial.dynamic_probe"])
    metrics["core.json_builder.build_ms"] = _mean(durations["core.json_builder.build"])
    metrics["core.json_builder.bytes_per_object"] = _frac(
        sum(samples["core.json_builder.bytes"]), sum(samples["core.json_builder.objects"]))
    metrics["storage.table.keyword_ms"] = _mean(durations["storage.table.keyword"])
    metrics["storage.table.nearest_ms"] = _mean(durations["storage.table.nearest"])
    metrics["writes.coordinator.apply_ms"] = _mean(durations["writes.coordinator.apply"])
    metrics["writes.journal.append_ms"] = _mean(durations["writes.journal.append"])
    metrics["writes.journal.sync_ms"] = _mean(
        [v * 1000.0 for v in samples["writes.journal.fsync_s"]]
        + durations["writes.journal.sync"])
    for cls in _UNATTRIBUTED:
        metrics[f"{cls}.unattributed_ms"] = _mean(unattributed[cls])
    metrics["bench.trace_overhead_frac"] = 1.0 - _ops_per_s(traced) / _ops_per_s(untraced)

    plain = untraced["replay"].measured
    for name, (classes, q) in _UNBOUNDED_LATENCIES.items():
        metrics[name] = _quantile_ms(plain, classes, q)
    for cls in ("pan_zoom", "window"):
        objects = [s.objects for s in plain if s.ok and s.op.cls == cls]
        metrics[f"bench.{cls}.objects_per_op"] = _mean(objects)
        if cls == "pan_zoom":
            metrics["bench.pan_zoom.empty_frac"] = _frac(
                sum(1 for n in objects if n == 0), len(objects))
    metrics["bench.bytes_per_op"] = _mean(s.nbytes for s in plain if s.ok)
    metrics["bench.failed_frac"] = _frac(_failed(untraced), len(plain))
    return {name: metrics[name] for name in PER_LAYER}


def _failed(run) -> int:
    return sum(1 for s in run["replay"].samples if not s.ok) + _wrong(run)


def final(result: dict) -> dict:
    """The last stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    runs = result["runs"]
    if result["mode"] == "end_to_end":
        values, units = end_to_end_metrics(result), END_TO_END
    else:
        values = per_layer_metrics(result)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return {
        "correct": all(_wrong(run) == 0 for run in runs),
        "attempted": sum(len(run["replay"].samples) for run in runs),
        "failed": sum(_failed(run) for run in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def lines(result: dict, summary: dict) -> list[str]:
    """Human-readable report: per-class samples, checks, set-up, metrics."""
    out = [f"workload {result['workload']} seed {result['seed']} ({result['mode']})"]
    for setup in result["setups"]:
        out.append(f"  setup {setup.setup_s:.3f} s = preprocessing {setup.prep_s:.3f} s"
                   f" + fleet start to first answers {setup.start_s:.3f} s")
    for index, run in enumerate(result["runs"]):
        replay = run["replay"]
        label = "traced" if "spans" in run else "untraced"
        samples = replay.measured
        failed = _failed(run)
        attempted = len(replay.samples)
        out.append(f"  replay {index} ({label}): {attempted} ops, failed {failed} "
                   f"(failed_frac {_frac(failed, attempted):.4f}); measured "
                   f"{len(samples)} ops in {replay.wall_seconds:.2f} s = "
                   f"{_ops_per_s(run):.1f} ops/s")
        by_class: dict[str, list] = defaultdict(list)
        for sample in samples:
            by_class[sample.op.cls].append(sample)
        for cls in sorted(by_class):
            group = by_class[cls]
            values = _latencies_ms(group, (cls,))
            cells = [f"n={len(group)}"]
            for q, name in ((0.5, "p50"), (0.9, "p90"), (0.95, "p95"), (0.99, "p99")):
                if values and tail_supported(len(values), q):
                    cells.append(f"{name}={percentile(values, q):.3f} ms")
            cells.append(f"objects/op={_mean(s.objects for s in group if s.ok):.1f}")
            cells.append(f"bytes/op={_mean(s.nbytes for s in group if s.ok):.0f}")
            if cls in ("pan_zoom", "window"):
                empty = sum(1 for s in group if s.ok and s.objects == 0)
                cells.append(f"empty={_frac(empty, len(group)):.3f}")
            bad = sum(1 for s in group if not s.ok)
            if bad:
                cells.append(f"non-2xx/errors={bad}")
            out.append(f"    {cls:<14} " + " ".join(cells))
        verdict = run["verdict"]
        out.append(f"    answers checked {verdict.checked}, skipped as edit-touched "
                   f"{verdict.skipped}, wrong {len(verdict.wrong)}; "
                   f"final edit visibility problems {len(run['visibility'])}")
        for reason in verdict.wrong[:5]:
            out.append(f"      wrong: {reason}")
        for problem in run["visibility"][:5]:
            out.append(f"      not visible: {problem}")
    if result["mode"] == "per_layer":
        # Reported here rather than as a metric: workloads whose tables never
        # reach the repack threshold would read a constant 0 ms.
        repacks = _traced_layers(result["runs"][1])[2]["storage.table.repack_s"]
        out.append(f"  traced repacks (index rebuilt): {len(repacks)}, mean "
                   f"{_mean(repacks) * 1000.0:.1f} ms")
    for name, metric in summary["metrics"].items():
        out.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return out
