"""Tests for the multi-process cluster subsystem (``repro.cluster``).

Unit coverage for rendezvous hashing, the cross-request window cache and the
metrics merge, plus live end-to-end coverage: a real 2-worker fleet behind a
real router socket — queries, sessions, aggregated metrics, worker crash /
restart with dataset failover, overload (503 + ``Retry-After``) propagation,
and graceful drain.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import threading
import time

import pytest

from repro import faults
from repro.cluster.cache import WindowResultCache
from repro.cluster.hashing import (
    rendezvous_owner,
    rendezvous_ranking,
    rendezvous_replicas,
)
from repro.cluster.replication import ReplicaJournalCopy, replica_journal_path
from repro.cluster.resilience import CircuitBreaker, jittered_backoff
from repro.cluster.router import (
    ClusterRouter,
    ClusterRuntime,
    _extract_cursor,
    merge_summaries,
)
from repro.config import ClusterConfig, GraphVizDBConfig, ServiceConfig
from repro.core.monitoring import ServiceMetrics
from repro.errors import ClusterError, JournalError
from repro.faults import FaultPlan, FaultRule
from repro.service.pool import DatasetPool
from repro.storage.sqlite_backend import save_to_sqlite
from repro.writes.journal import encode_journal_frame, verify_journal


class TestRendezvousHashing:
    WORKERS = ["w0", "w1", "w2", "w3"]
    DATASETS = [f"dataset-{i}" for i in range(64)]

    def test_owner_is_deterministic_and_member(self):
        for dataset in self.DATASETS:
            owner = rendezvous_owner(dataset, self.WORKERS)
            assert owner in self.WORKERS
            assert owner == rendezvous_owner(dataset, list(reversed(self.WORKERS)))

    def test_empty_fleet_has_no_owner(self):
        assert rendezvous_owner("anything", []) is None

    def test_balance(self):
        counts = {worker: 0 for worker in self.WORKERS}
        for dataset in self.DATASETS:
            counts[rendezvous_owner(dataset, self.WORKERS)] += 1
        # 64 datasets over 4 workers: every worker should own some.
        assert all(count > 0 for count in counts.values())

    def test_minimal_disruption_on_worker_loss(self):
        before = {d: rendezvous_owner(d, self.WORKERS) for d in self.DATASETS}
        survivors = [w for w in self.WORKERS if w != "w2"]
        for dataset, owner in before.items():
            after = rendezvous_owner(dataset, survivors)
            if owner != "w2":
                assert after == owner  # unaffected datasets do not move
            else:
                assert after in survivors

    def test_ranking_head_is_owner_and_failover_matches(self):
        for dataset in self.DATASETS:
            ranking = rendezvous_ranking(dataset, self.WORKERS)
            assert ranking[0] == rendezvous_owner(dataset, self.WORKERS)
            survivors = [w for w in self.WORKERS if w != ranking[0]]
            assert ranking[1] == rendezvous_owner(dataset, survivors)


class TestWindowResultCache:
    def test_hit_miss_and_metrics(self):
        metrics = ServiceMetrics()
        cache = WindowResultCache(capacity=4, metrics=metrics)
        assert cache.get("k1") is None
        cache.put("k1", "ds", 200, b"payload")
        entry = cache.get("k1")
        assert entry is not None and entry.body == b"payload"
        assert metrics.window_cache_hits == 1
        assert metrics.window_cache_misses == 1

    def test_capacity_eviction_is_lru(self):
        cache = WindowResultCache(capacity=2)
        cache.put("a", "ds", 200, b"1")
        cache.put("b", "ds", 200, b"2")
        assert cache.get("a") is not None  # refresh a; b becomes LRU
        cache.put("c", "ds", 200, b"3")
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_byte_budget_eviction(self):
        cache = WindowResultCache(capacity=100, max_bytes=100)
        cache.put("a", "ds", 200, b"x" * 60)
        cache.put("b", "ds", 200, b"y" * 60)  # 120 bytes > budget: evict a
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.total_bytes == 60

    def test_byte_budget_never_evicts_last_entry(self):
        cache = WindowResultCache(capacity=10, max_bytes=10)
        cache.put("huge", "ds", 200, b"z" * 1000)
        assert cache.get("huge") is not None

    def test_invalidate_dataset(self):
        metrics = ServiceMetrics()
        cache = WindowResultCache(capacity=10, metrics=metrics)
        cache.put("a", "ds1", 200, b"1")
        cache.put("b", "ds2", 200, b"2")
        assert cache.invalidate_dataset("ds1") == 1
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert metrics.window_cache_invalidations == 1

    def test_observe_edit_counters(self):
        cache = WindowResultCache(capacity=10)
        cache.put("a", "ds1", 200, b"1")
        # First observation only records the baseline.
        assert cache.observe_edit_counters({"ds1": 5}) == 0
        assert cache.get("a") is not None
        # Unchanged counter: nothing dropped.
        assert cache.observe_edit_counters({"ds1": 5}) == 0
        # Moved counter (any difference, including a reset): drop.
        assert cache.observe_edit_counters({"ds1": 7}) == 1
        assert cache.get("a") is None
        cache.put("b", "ds1", 200, b"2", counter=cache.counter_snapshot("ds1"))
        assert cache.observe_edit_counters({"ds1": 0}) == 1  # eviction reset
        assert cache.get("b") is None

    def test_put_rejects_response_older_than_an_invalidation(self):
        cache = WindowResultCache(capacity=10)
        cache.observe_edit_counters({"ds1": 1})
        snapshot = cache.counter_snapshot("ds1")  # taken before the "query"
        # While the query was in flight, an edit moved the counter and the
        # invalidation ran — the pre-edit response must not enter the cache.
        cache.observe_edit_counters({"ds1": 2})
        cache.put("stale", "ds1", 200, b"pre-edit", counter=snapshot)
        assert cache.get("stale") is None
        # A response computed after the snapshot refreshed is accepted.
        cache.put("fresh", "ds1", 200, b"post", counter=cache.counter_snapshot("ds1"))
        assert cache.get("fresh") is not None

    def test_zero_capacity_disables(self):
        cache = WindowResultCache(capacity=0)
        cache.put("a", "ds", 200, b"1")
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMergeSummaries:
    def test_sums_numbers_and_maxes_peaks(self):
        merged = merge_summaries([
            {"requests": {"admitted": 3}, "peak_queue_depth": 4, "name": "a"},
            {"requests": {"admitted": 5}, "peak_queue_depth": 2, "name": "b"},
        ])
        assert merged["requests"]["admitted"] == 8
        assert merged["peak_queue_depth"] == 4
        assert merged["name"] == "b"  # non-numeric: last wins

    def test_nested_dicts_merge_per_key(self):
        merged = merge_summaries([
            {"queue_depth": {"ds1": 1}},
            {"queue_depth": {"ds1": 2, "ds2": 3}},
        ])
        assert merged["queue_depth"] == {"ds1": 3, "ds2": 3}


class TestPoolMemoryBudget:
    def test_resident_bytes_estimated_and_summed(self, patent_result, tmp_path):
        path = tmp_path / "budget.db"
        save_to_sqlite(patent_result.database, path)
        pool = DatasetPool(capacity=4, max_resident_bytes=1 << 40)
        entry = pool.get(path)
        assert entry.resident_bytes > 0
        assert pool.total_resident_bytes() == entry.resident_bytes

    def test_budget_evicts_lru_but_keeps_newest(self, patent_result, tmp_path):
        paths = []
        for index in range(3):
            path = tmp_path / f"shard{index}.db"
            save_to_sqlite(patent_result.database, path)
            paths.append(path)
        probe_pool = DatasetPool(capacity=4, max_resident_bytes=1 << 40)
        one_dataset = probe_pool.get(paths[0]).resident_bytes
        # Budget fits one dataset but not two: each open evicts the previous.
        pool = DatasetPool(capacity=4, max_resident_bytes=int(one_dataset * 1.5))
        pool.get(paths[0])
        pool.get(paths[1])
        assert len(pool) == 1
        assert pool.peek(paths[1]) is not None and pool.peek(paths[0]) is None
        # A dataset larger than the whole budget still serves (never evict
        # the entry just opened).
        tiny = DatasetPool(capacity=4, max_resident_bytes=1)
        tiny.get(paths[2])
        assert len(tiny) == 1

    def test_budget_disabled_skips_estimation(self, patent_result, tmp_path):
        path = tmp_path / "nobudget.db"
        save_to_sqlite(patent_result.database, path)
        pool = DatasetPool(capacity=2)
        assert pool.get(path).resident_bytes == 0
        assert pool.total_resident_bytes() == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(Exception):
            DatasetPool(capacity=2, max_resident_bytes=-1)


# --------------------------------------------------------------------------
# Live cluster
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_paths(patent_result, tmp_path_factory):
    """Three SQLite shards of the small patent dataset."""
    base = tmp_path_factory.mktemp("cluster-shards")
    paths = {}
    for name in ("shard-a", "shard-b", "shard-c"):
        path = base / f"{name}.db"
        save_to_sqlite(patent_result.database, path)
        paths[name] = str(path)
    return paths


def _cluster_config(**cluster_kwargs) -> GraphVizDBConfig:
    cluster_kwargs.setdefault("num_workers", 2)
    cluster_kwargs.setdefault("health_interval_seconds", 0.1)
    cluster_kwargs.setdefault("restart_backoff_seconds", 0.01)
    return GraphVizDBConfig(cluster=ClusterConfig(**cluster_kwargs))


def _get(port: int, path: str, timeout: float = 30.0, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read()), dict(
            response.getheaders()
        )
    finally:
        connection.close()


@pytest.fixture(scope="module")
def live_cluster(shard_paths):
    """A running 2-worker cluster shared by the read-only live tests."""
    with ClusterRuntime(shard_paths, config=_cluster_config()) as runtime:
        yield runtime


class TestClusterLive:
    def test_rejects_empty_or_zero_worker_configs(self, shard_paths):
        with pytest.raises(ClusterError):
            ClusterRuntime({}, config=_cluster_config())
        with pytest.raises(ClusterError):
            ClusterRuntime(shard_paths, config=_cluster_config(num_workers=0))

    def test_datasets_and_assignment(self, live_cluster):
        status, body, _ = _get(live_cluster.port, "/datasets")
        assert status == 200
        assert body["datasets"] == ["shard-a", "shard-b", "shard-c"]
        assignment = live_cluster.health_summary()["assignment"]
        assert set(assignment) == set(body["datasets"])
        assert all(owner in ("w0", "w1") for owner in assignment.values())

    def test_window_query_and_cross_request_cache(self, live_cluster):
        target = "/window?dataset=shard-a&payload=1"
        status, body, _ = _get(live_cluster.port, target)
        assert status == 200 and body["meta"]["num_objects"] > 0
        before = live_cluster.router.metrics.window_cache_hits
        status2, body2, _ = _get(live_cluster.port, target)
        assert status2 == 200 and body2 == body
        assert live_cluster.router.metrics.window_cache_hits == before + 1
        # Same window, different parameter order: same canonical cache key.
        reordered = "/window?payload=1&dataset=shard-a"
        status3, body3, _ = _get(live_cluster.port, reordered)
        assert status3 == 200 and body3 == body
        assert live_cluster.router.metrics.window_cache_hits == before + 2

    def test_keyword_and_nearest_proxy(self, live_cluster):
        status, body, _ = _get(
            live_cluster.port, "/keyword?dataset=shard-b&q=patent&limit=2"
        )
        assert status == 200 and body["num_matches"] <= 2
        status, body, _ = _get(
            live_cluster.port, "/nearest?dataset=shard-c&x=0&y=0&k=2"
        )
        assert status == 200 and len(body["rows"]) == 2

    def test_sessions_route_to_owner(self, live_cluster):
        status, body, _ = _get(live_cluster.port, "/session/new?dataset=shard-a")
        assert status == 200
        session_id = body["session_id"]
        status, body, _ = _get(live_cluster.port, f"/session/{session_id}/refresh")
        assert status == 200 and body["num_objects"] > 0
        status, body, _ = _get(live_cluster.port, f"/session/{session_id}/close")
        assert status == 200 and body["closed"] is True
        status, _, _ = _get(live_cluster.port, f"/session/{session_id}/refresh")
        assert status == 404

    def test_unknown_dataset_and_missing_param(self, live_cluster):
        status, _, _ = _get(live_cluster.port, "/window?dataset=missing")
        assert status == 404
        status, _, _ = _get(live_cluster.port, "/window")
        assert status == 400

    def test_metrics_aggregate_across_workers(self, live_cluster):
        _get(live_cluster.port, "/keyword?dataset=shard-a&q=patent")
        _get(live_cluster.port, "/keyword?dataset=shard-c&q=patent")
        status, body, _ = _get(live_cluster.port, "/metrics")
        assert status == 200
        assert body["requests"]["admitted"] >= 2  # merged across both workers
        assert body["cluster"]["proxied_requests"] >= 2
        assert set(body["router"]["workers"]) == {"w0", "w1"}

    def test_health_endpoint(self, live_cluster):
        status, body, _ = _get(live_cluster.port, "/health")
        assert status == 200 and body["status"] == "ok"
        assert all(worker["healthy"] for worker in body["workers"].values())

    def test_trace_id_propagates_router_to_worker(self, live_cluster):
        # One client-pinned trace id must follow the request through the
        # router onto the worker, come back in the response, and be queryable
        # on the router with the worker's span tree grafted under the proxy.
        trace_id = "c1d2e3f4a5b60718"
        status, body, headers = _get(
            live_cluster.port,
            "/keyword?dataset=shard-b&q=traceprobe",
            headers={"X-GVDB-Trace-Id": trace_id},
        )
        assert status == 200, body
        echoed = {key.lower(): value for key, value in headers.items()}
        assert echoed.get("x-gvdb-trace-id") == trace_id

        status, tree, _ = _get(live_cluster.port, f"/debug/trace/{trace_id}")
        assert status == 200
        assert tree["trace_id"] == trace_id
        assert tree["root"]["name"] == "router GET /keyword"
        proxy_spans = [
            span for span in tree["root"]["children"] if span["name"] == "proxy"
        ]
        assert proxy_spans, tree["root"]["children"]
        proxy = proxy_spans[0]
        assert proxy["annotations"]["dataset"] == "shard-b"
        # The worker's own span tree is grafted under the proxy hop — same id
        # on both tiers, so the router view shows where the time really went.
        worker_roots = [
            child for child in proxy["children"]
            if child["name"].startswith("worker GET")
        ]
        assert worker_roots, proxy["children"]
        worker_phases = {span["name"] for span in worker_roots[0]["children"]}
        assert "keyword" in worker_phases

    def test_router_minted_trace_and_slow_log_shape(self, live_cluster):
        status, _, headers = _get(live_cluster.port, "/datasets")
        assert status == 200
        minted = {key.lower(): value for key, value in headers.items()}.get(
            "x-gvdb-trace-id"
        )
        assert minted and len(minted) == 16
        status, slow, _ = _get(live_cluster.port, "/debug/slow?n=5")
        assert status == 200
        assert set(slow) == {"threshold_seconds", "traces"}
        assert len(slow["traces"]) <= 5


class TestClusterFailure:
    def test_worker_crash_failover_and_restart(self, shard_paths):
        with ClusterRuntime(shard_paths, config=_cluster_config()) as runtime:
            port = runtime.port
            for name in shard_paths:
                status, _, _ = _get(port, f"/window?dataset={name}")
                assert status == 200
            assignment = runtime.health_summary()["assignment"]
            victim = assignment["shard-b"]
            survivor = next(w for w in ("w0", "w1") if w != victim)
            victim_generation = runtime.router._handles[victim].generation
            status, body, _ = _get(port, "/session/new?dataset=shard-b")
            assert status == 200
            doomed_session = body["session_id"]
            runtime.router._handles[victim].process.kill()

            # The victim's datasets fail over to the survivor on the very
            # next request (a keyword probe no one issued before, so the
            # result cache can't answer it — the miss must hit a worker).
            recovered_at = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status, _, _ = _get(port, "/keyword?dataset=shard-b&q=patent")
                if status == 200:
                    recovered_at = time.monotonic()
                    break
                time.sleep(0.02)
            assert recovered_at is not None, "dataset never recovered"
            assert runtime.router.worker_for("shard-b") == survivor
            assert runtime.router.metrics.proxy_retries >= 1

            # The supervisor replaces the dead process; once its replacement
            # reports healthy, the dataset moves home again.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                runtime.probe_workers()
                handle = runtime.router._handles[victim]
                if handle.healthy and handle.generation > victim_generation:
                    break
                time.sleep(0.05)
            handle = runtime.router._handles[victim]
            assert handle.healthy and handle.generation == victim_generation + 1
            assert runtime.router.metrics.worker_restarts >= 1
            assert runtime.router.worker_for("shard-b") == victim
            status, _, _ = _get(port, "/keyword?dataset=shard-b&q=patent")
            assert status == 200
            # Health state (edit counters) replayed from the new process.
            runtime.probe_workers()
            assert set(handle.edit_counters) == set(shard_paths)
            # Session failover: the crashed worker's session is transparently
            # reopened (same public id) on the dataset's current owner from
            # the router-side cursor replica — no client-visible reset.
            status, body, _ = _get(port, f"/session/{doomed_session}/refresh")
            assert status == 200, body
            assert runtime.router.metrics.session_failovers >= 1
            assert runtime.router.sessions.get(doomed_session) is not None

    def test_overload_propagates_503_with_retry_after(self, shard_paths):
        config = GraphVizDBConfig(
            service=ServiceConfig(
                max_workers=1, max_queue_depth=1, coalesce_max_batch=1
            ),
            cluster=ClusterConfig(
                num_workers=1, worker_threads=1, cache_capacity=0,
                health_interval_seconds=0.5,
            ),
        )
        with ClusterRuntime(shard_paths, config=config) as runtime:
            port = runtime.port
            statuses: list[int] = []
            lock = threading.Lock()

            def client(index: int) -> None:
                # Distinct layers dodge every dedup layer; payload builds
                # keep the single worker thread busy.
                status, _, headers = _get(
                    port, f"/window?dataset=shard-a&payload=1&_client={index}"
                )
                with lock:
                    statuses.append(status)
                    if status == 503:
                        # Jittered to decorrelate client retry waves.
                        assert headers.get("Retry-After") in {"1", "2", "3"}

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1, statuses

    def test_bind_failure_terminates_spawned_fleet(self, shard_paths):
        import multiprocessing
        import socket

        before = {process.pid for process in multiprocessing.active_children()}
        squatter = socket.socket()
        try:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            with pytest.raises(OSError):
                ClusterRuntime(
                    shard_paths, config=_cluster_config(),
                    port=squatter.getsockname()[1],
                )
        finally:
            squatter.close()
        # The workers spawned before the failed bind must not survive it
        # (other tests' clusters may be alive: only *new* children count).
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = [
                process for process in multiprocessing.active_children()
                if process.name.startswith("graphvizdb-")
                and process.pid not in before
            ]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_drain_rejects_new_requests_and_terminates_fleet(self, shard_paths):
        runtime = ClusterRuntime(shard_paths, config=_cluster_config())
        port = runtime.port
        status, _, _ = _get(port, "/window?dataset=shard-a")
        assert status == 200
        processes = [
            handle.process for handle in runtime.router._handles.values()
        ]
        runtime.close()
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(OSError):
            _get(port, "/window?dataset=shard-a", timeout=2.0)


class TestSessionDirectory:
    def test_record_update_and_reopen_target(self):
        from urllib.parse import parse_qs, urlsplit

        from repro.cluster.sessions import SessionDirectory

        directory = SessionDirectory()
        cursor = directory.record("s1", "ds")
        cursor.update({"layer": 2, "x": 1.5, "y": -2.5, "zoom": 0.5})
        target = cursor.reopen_target()
        params = {
            key: values[-1]
            for key, values in parse_qs(urlsplit(target).query).items()
        }
        assert params["dataset"] == "ds" and params["session_id"] == "s1"
        assert params["layer"] == "2"
        assert float(params["x"]) == 1.5 and float(params["y"]) == -2.5
        assert float(params["zoom"]) == 0.5
        # A malformed cursor report keeps the previous replica.
        cursor.update({"layer": "not-a-number"})
        assert cursor.layer == 2
        # Re-recording the same id keeps the cursor; a dataset change resets.
        assert directory.record("s1", "ds") is cursor
        assert directory.record("s1", "other") is not cursor

    def test_expire_idle(self):
        from repro.cluster.sessions import SessionDirectory

        directory = SessionDirectory()
        directory.record("old", "ds").last_used -= 100.0
        directory.record("fresh", "ds")
        assert directory.expire_idle(50.0) == ["old"]
        assert directory.get("old") is None and directory.get("fresh") is not None
        assert directory.expire_idle(0) == []  # 0 disables


class TestAdaptiveCacheSizing:
    def test_cache_budget_derives_from_pool_budget(self, shard_paths):
        from repro.cluster.router import ClusterRouter

        config = GraphVizDBConfig(
            service=ServiceConfig(pool_max_resident_bytes=100 * 1024 * 1024),
            cluster=ClusterConfig(num_workers=1, cache_memory_fraction=0.25),
        )
        router = ClusterRouter(shard_paths, config=config)
        assert router.cache.max_bytes == 25 * 1024 * 1024

    def test_static_budget_without_pool_budget(self, shard_paths):
        from repro.cluster.router import ClusterRouter

        config = GraphVizDBConfig(cluster=ClusterConfig(
            num_workers=1, cache_max_bytes=7 * 1024 * 1024
        ))
        router = ClusterRouter(shard_paths, config=config)
        assert router.cache.max_bytes == 7 * 1024 * 1024

    def test_fraction_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ClusterConfig(cache_memory_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(cache_memory_fraction=1.5)


def _post(port: int, path: str, body: dict, timeout: float = 30.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("POST", path, body=json.dumps(body).encode())
        response = connection.getresponse()
        return response.status, json.loads(response.read()), dict(
            response.getheaders()
        )
    finally:
        connection.close()


class TestClusterWrites:
    """Live write path: POST through the router, durability across SIGKILL."""

    @pytest.fixture
    def write_shards(self, patent_result, tmp_path):
        """Fresh shards per test — writes must not leak across tests."""
        paths = {}
        for name in ("edit-a", "edit-b"):
            path = tmp_path / f"{name}.db"
            save_to_sqlite(patent_result.database, path)
            paths[name] = str(path)
        return paths

    def test_write_visible_and_cache_invalidated_eagerly(self, write_shards):
        # A long health interval guarantees that only the eager write-path
        # invalidation (not a health probe) can drop the cached window.
        config = _cluster_config(num_workers=2, health_interval_seconds=30.0)
        with ClusterRuntime(write_shards, config=config) as runtime:
            port = runtime.port
            window = (
                "/window?dataset=edit-a"
                "&min_x=100&min_y=100&max_x=110&max_y=110"
            )
            status, body, _ = _get(port, window)
            assert status == 200
            rows_before = body["num_rows"]
            status, cached, _ = _get(port, window)
            assert cached == body
            assert runtime.router.metrics.window_cache_hits >= 1

            status, ack, _ = _post(port, "/edit/add_node?dataset=edit-a", {
                "node_id": 880001, "label": "cluster-edit-probe",
                "x": 105.0, "y": 105.0,
            })
            assert status == 200, ack
            assert ack["seq"] == 1 and ack["edit_counter"] >= 1

            # Read-after-write through the router: the cached pre-edit window
            # must be gone *immediately* (no health-probe staleness window).
            status, after, _ = _get(port, window)
            assert status == 200 and after["num_rows"] == rows_before + 1
            status, keyword, _ = _get(
                port, "/keyword?dataset=edit-a&q=cluster-edit-probe"
            )
            assert status == 200 and keyword["num_matches"] == 1
            # The untouched shard's cache entries were not collateral damage.
            assert runtime.router.metrics.window_cache_invalidations >= 1

    def test_sigkill_after_ack_loses_nothing_and_session_resumes(self, write_shards):
        with ClusterRuntime(write_shards, config=_cluster_config()) as runtime:
            port = runtime.port
            status, body, _ = _get(port, "/session/new?dataset=edit-a")
            assert status == 200
            session_id = body["session_id"]
            status, panned, _ = _get(port, f"/session/{session_id}/pan?dx=50&dy=0")
            assert status == 200
            cursor_before = runtime.router.sessions.get(session_id)
            assert cursor_before is not None and cursor_before.x is not None

            status, ack, _ = _post(port, "/edit/add_node?dataset=edit-a", {
                "node_id": 880002, "label": "post-kill-probe",
                "x": 7.0, "y": 7.0,
            })
            assert status == 200, ack  # acknowledged => journalled on disk

            victim = runtime.health_summary()["assignment"]["edit-a"]
            runtime.router._handles[victim].process.kill()

            # Zero acknowledged-edit loss: the new owner cold-opens the shard
            # and replays the journal tail before serving.
            found = None
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                status, keyword, _ = _get(
                    port, "/keyword?dataset=edit-a&q=post-kill-probe"
                )
                if status == 200:
                    found = keyword
                    break
                time.sleep(0.02)
            assert found is not None and found["num_matches"] == 1

            # The session survives its worker: transparently reopened on the
            # new owner with the replicated cursor (same pan offset).
            status, refreshed, _ = _get(port, f"/session/{session_id}/refresh")
            assert status == 200, refreshed
            assert runtime.router.metrics.session_failovers >= 1
            cursor_after = runtime.router.sessions.get(session_id)
            assert cursor_after is not None
            assert cursor_after.x == pytest.approx(cursor_before.x)

    def test_keyword_and_nearest_cached_and_invalidated_on_write(
        self, write_shards
    ):
        """PR 9 satellite: keyword/kNN responses cache and invalidate
        exactly like windows — read-after-write must see the new node."""
        config = _cluster_config(num_workers=2, health_interval_seconds=30.0)
        with ClusterRuntime(write_shards, config=config) as runtime:
            port = runtime.port
            metrics = runtime.router.metrics
            keyword = "/keyword?dataset=edit-b&q=kw-invalidation-probe"
            status, first, _ = _get(port, keyword)
            assert status == 200 and first["num_matches"] == 0
            status, cached, _ = _get(port, keyword)
            assert cached == first
            assert metrics.keyword_cache_hits >= 1

            status, nn_first, _ = _get(port, "/nearest?dataset=edit-b&x=42&y=42&k=3")
            assert status == 200
            # Canonical keys: parameter order must not split the cache.
            status, nn_cached, _ = _get(port, "/nearest?k=3&y=42&x=42&dataset=edit-b")
            assert nn_cached == nn_first
            assert metrics.nearest_cache_hits >= 1

            status, ack, _ = _post(port, "/edit/add_node?dataset=edit-b", {
                "node_id": 880010, "label": "kw-invalidation-probe",
                "x": 42.0, "y": 42.0,
            })
            assert status == 200, ack

            # Read-after-write through the router (health probes are 30 s
            # away, so only the eager write-path invalidation can explain
            # a fresh result): the pre-edit cached keyword answer is gone.
            keyword_hits = metrics.keyword_cache_hits
            status, after, _ = _get(port, keyword)
            assert status == 200 and after["num_matches"] == 1
            assert metrics.keyword_cache_hits == keyword_hits

    def test_write_to_unknown_dataset_is_404(self, write_shards):
        with ClusterRuntime(write_shards, config=_cluster_config()) as runtime:
            status, _, _ = _post(runtime.port, "/edit/add_node?dataset=nope", {
                "node_id": 1, "x": 0.0, "y": 0.0,
            })
            assert status == 404


class TestReadRepeatMeasurement:
    """Measured keyword/kNN repeat rates (PR 5); the rates justified caching
    them (PR 9), and the counters keep working with the cache in front —
    repeats are recorded before the cache lookup."""

    def test_repeat_rates_recorded_in_metrics(self, live_cluster):
        port = live_cluster.port
        metrics = live_cluster.router.metrics
        keyword_target = "/keyword?dataset=shard-b&q=repeat-rate-probe"
        nearest_target = "/nearest?dataset=shard-b&x=123&y=456"
        kw_requests = metrics.keyword_requests
        kw_repeats = metrics.keyword_repeats
        nn_requests = metrics.nearest_requests
        nn_repeats = metrics.nearest_repeats

        for _ in range(3):
            status, _, _ = _get(port, keyword_target)
            assert status == 200
        status, _, _ = _get(port, nearest_target)
        assert status == 200
        status, _, _ = _get(port, nearest_target)
        assert status == 200
        # Parameter order must not split the repeat window (canonical keys).
        status, _, _ = _get(port, "/nearest?y=456&x=123&dataset=shard-b")
        assert status == 200

        assert metrics.keyword_requests == kw_requests + 3
        assert metrics.keyword_repeats == kw_repeats + 2
        assert metrics.nearest_requests == nn_requests + 3
        assert metrics.nearest_repeats == nn_repeats + 2
        summary = live_cluster.metrics_summary()["cluster"]
        assert summary["keyword_requests"] >= 3
        assert summary["keyword_repeats"] >= 2
        assert summary["nearest_repeats"] >= 2


class TestSessionCommandLevel404:
    """Regression: a command-level 404 must not tear down a live session."""

    def test_focus_on_unknown_node_keeps_session(self, live_cluster):
        port = live_cluster.port
        status, body, _ = _get(port, "/session/new?dataset=shard-a")
        assert status == 200
        session_id = body["session_id"]
        failovers_before = live_cluster.router.metrics.session_failovers
        # focus_on an id that does not exist: the worker's QueryError maps
        # to 404 — a *command* failure on a perfectly alive session.
        status, _, _ = _get(
            port, f"/session/{session_id}/focus_on?node_id=999999999"
        )
        assert status == 404
        # Not a failover, and the session (directory entry included) lives.
        assert live_cluster.router.metrics.session_failovers == failovers_before
        assert live_cluster.router.sessions.get(session_id) is not None
        status, body, _ = _get(port, f"/session/{session_id}/refresh")
        assert status == 200 and body["num_objects"] > 0
        status, body, _ = _get(port, f"/session/{session_id}/close")
        assert status == 200 and body["closed"] is True
        assert live_cluster.router.sessions.get(session_id) is None


class TestSessionCursorMirror:
    """The router mirrors the cursor of every session answer, whatever its size."""

    CURSOR = {"dataset": "d", "layer": 1, "x": 12.5, "y": -3.0, "zoom": 2.0}

    def test_meta_prefixed_payload_body(self):
        meta = {"layer": 1, "num_objects": 2, "cursor": self.CURSOR}
        body = (
            b'{"meta": ' + json.dumps(meta).encode()
            + b', "payload": {"nodes":[{"id":1,"label":"x","x":0,"y":0}],'
            b'"edges":[]}}'
        )
        assert _extract_cursor(body) == self.CURSOR

    def test_payload_is_never_parsed(self):
        # Everything after ``meta`` is garbage: only the prefix is decoded.
        meta = {"layer": 1, "cursor": self.CURSOR}
        body = b'{"meta": ' + json.dumps(meta).encode() + b', "payload": [[[' * 1000
        assert _extract_cursor(body) == self.CURSOR

    def test_payload_free_session_body(self):
        body = json.dumps({"layer": 1, "num_objects": 0, "cursor": self.CURSOR})
        assert _extract_cursor(body.encode()) == self.CURSOR

    def test_keyword_session_body(self):
        body = json.dumps({
            "keyword": "patent", "layer": 0, "num_matches": 1,
            "matches": [{"id": 3, "label": "patent 3"}], "search_seconds": 0.001,
            "cursor": self.CURSOR,
        })
        assert _extract_cursor(body.encode()) == self.CURSOR

    @pytest.mark.parametrize("body", [
        b"",
        b"not json",
        b"[1, 2]",
        b'{"meta": {"layer": 1, "cursor": {"x": 1',  # truncated meta
        b'{"meta": [1, 2], "payload": {}}',
        b'{"layer": 1, "cursor": [1, 2]}',
        b'{"result": true, "cursor": null}',
        b'{"layer": 1, "num_objects": 3',  # truncated payload-free body
    ])
    def test_malformed_or_truncated_body(self, body):
        assert _extract_cursor(body) is None

    def test_pan_answer_above_256_kib_updates_the_cursor(
        self, patent_result, tmp_path
    ):
        path = tmp_path / "big-a.db"
        save_to_sqlite(patent_result.database, path)
        config = _cluster_config(num_workers=1)
        with ClusterRuntime({"big-a": str(path)}, config=config) as runtime:
            port = runtime.port
            # One node with a 300 KB label makes any answer showing it big.
            status, ack, _ = _post(port, "/edit/add_node?dataset=big-a", {
                "node_id": 880101, "label": "L" * 300_000,
                "x": 105.0, "y": 105.0,
            })
            assert status == 200, ack
            status, body, _ = _get(port, "/session/new?dataset=big-a&x=105&y=105")
            assert status == 200
            session_id = body["session_id"]

            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                connection.request(
                    "GET", f"/session/{session_id}/pan?dx=5&dy=0&payload=1"
                )
                response = connection.getresponse()
                status, raw = response.status, response.read()
            finally:
                connection.close()
            assert status == 200 and len(raw) > 256 * 1024
            cursor = json.loads(raw)["meta"]["cursor"]
            assert cursor["x"] != 105.0  # the pan moved the viewport

            mirrored = runtime.router.sessions.get(session_id)
            assert (mirrored.layer, mirrored.x, mirrored.y, mirrored.zoom) == (
                cursor["layer"], cursor["x"], cursor["y"], cursor["zoom"]
            )


class TestStaleArchive:
    """Unit: last-known-good responses retained for degraded-mode serving."""

    def test_eviction_and_invalidation_feed_the_archive(self):
        cache = WindowResultCache(capacity=1, stale_capacity=4)
        cache.put("a", "ds", 200, b"A")
        cache.put("b", "ds", 200, b"B")  # LRU-evicts "a" into the archive
        assert cache.get_stale("a").body == b"A"
        cache.invalidate_dataset("ds")  # archives "b" on the way out
        assert cache.get_stale("b").body == b"B"
        assert len(cache) == 0
        assert cache.summary()["stale_entries"] == 2

    def test_fresh_response_supersedes_the_archive(self):
        cache = WindowResultCache(capacity=1, stale_capacity=4)
        cache.put("a", "ds", 200, b"old")
        cache.invalidate_dataset("ds")
        assert cache.get_stale("a") is not None
        cache.put("a", "ds", 200, b"new")
        # A live response exists again: the stale copy must never shadow it.
        assert cache.get_stale("a") is None
        assert cache.get("a").body == b"new"

    def test_non_200_and_disabled_archive_are_not_kept(self):
        cache = WindowResultCache(capacity=1, stale_capacity=4)
        cache.put("err", "ds", 404, b"nope")
        cache.invalidate_dataset("ds")
        assert cache.get_stale("err") is None  # only good responses archived
        disabled = WindowResultCache(capacity=1, stale_capacity=0)
        disabled.put("a", "ds", 200, b"A")
        disabled.invalidate_dataset("ds")
        assert disabled.get_stale("a") is None

    def test_archive_is_lru_bounded(self):
        cache = WindowResultCache(capacity=1, stale_capacity=2)
        for index in range(4):  # each put evicts (and archives) its predecessor
            cache.put(f"k{index}", "ds", 200, str(index).encode())
        assert cache.get_stale("k0") is None  # pushed out by k1, k2
        assert cache.get_stale("k1") is not None
        assert cache.get_stale("k2") is not None

    def test_clear_drops_the_archive_too(self):
        cache = WindowResultCache(capacity=1, stale_capacity=4)
        cache.put("a", "ds", 200, b"A")
        cache.invalidate_dataset("ds")
        cache.clear()
        assert cache.get_stale("a") is None
        assert cache.summary()["stale_entries"] == 0


class TestCircuitBreaker:
    def test_opens_on_threshold_edge_exactly_once(self):
        breaker = CircuitBreaker(3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # the opening edge
        assert breaker.is_open and breaker.state == "open"
        assert breaker.record_failure() is False  # already open: no new edge

    def test_success_closes_and_resets_the_count(self):
        breaker = CircuitBreaker(2)
        breaker.record_failure()
        assert breaker.record_failure() is True
        assert breaker.record_success() is True  # closed an open circuit
        assert not breaker.is_open and breaker.consecutive_failures == 0
        assert breaker.record_success() is False  # already closed
        # The failure count restarted from zero.
        assert breaker.record_failure() is False

    def test_nonpositive_threshold_never_opens(self):
        breaker = CircuitBreaker(0)
        for _ in range(10):
            assert breaker.record_failure() is False
        assert not breaker.is_open and breaker.state == "closed"


class TestJitteredBackoff:
    def test_zero_base_disables_backoff(self):
        assert jittered_backoff(3, 0.0, 1.0, 0.5) == 0.0

    def test_exponential_growth_capped_at_max(self):
        delays = [jittered_backoff(a, 0.1, 0.5, 0.0) for a in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_extends_within_the_fraction(self):
        rng = random.Random(7)
        for attempt in range(1, 8):
            delay = jittered_backoff(attempt, 0.1, 10.0, 0.5, rng)
            base = 0.1 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.5


class TestClusterRobustness:
    """Fault-plan driven live coverage: write retries with exactly-once
    semantics across an owner kill, degraded stale window serving with no
    healthy owner, and client deadline admission."""

    @pytest.fixture
    def write_shards(self, patent_result, tmp_path):
        """Fresh shards per test — writes must not leak across tests."""
        paths = {}
        for name in ("edit-a", "edit-b"):
            path = tmp_path / f"{name}.db"
            save_to_sqlite(patent_result.database, path)
            paths[name] = str(path)
        return paths

    def test_edit_retried_across_owner_kill_without_double_apply(
        self, write_shards
    ):
        # SIGKILL the owner after it applied + journalled the edit but
        # before the acknowledgement leaves — the ambiguous failure that
        # makes naive write retries double-apply.
        victim = rendezvous_owner("edit-a", ["w0", "w1"])
        plan = FaultPlan(
            [FaultRule(
                point="worker.response", action="kill", worker=victim,
                match="/edit/", times=1, name="kill-owner-post-apply",
            )],
            seed=11, name="edit-retry",
        )
        config = _cluster_config(fault_plan=plan.to_json())
        try:
            with ClusterRuntime(write_shards, config=config) as runtime:
                port = runtime.port
                status, ack, _ = _post(
                    port,
                    "/edit/add_node?dataset=edit-a"
                    "&idempotency_key=robustness-probe",
                    {
                        "node_id": 990001, "label": "retry-across-kill",
                        "x": 3.0, "y": 4.0,
                    },
                )
                # The router retried on the survivor, whose journal replay
                # already carried the key: deduplicated, not re-applied.
                assert status == 200, ack
                assert ack.get("deduplicated") is True
                assert runtime.router.metrics.edit_retries >= 1
                status, keyword, _ = _get(
                    port, "/keyword?dataset=edit-a&q=retry-across-kill"
                )
                assert status == 200
                assert keyword["num_matches"] == 1  # exactly once
        finally:
            # ClusterRouter.start() installs the plan in this (the router's)
            # process too; the worker-scoped rule can never fire here, but it
            # must not leak into later tests.
            faults.clear()

    def test_degraded_stale_window_read_when_no_owner(self, write_shards):
        # One worker, slow restart, no health probes inside the test window:
        # after the kill the dataset genuinely has no healthy owner.
        config = _cluster_config(
            num_workers=1,
            restart_backoff_seconds=5.0,
            health_interval_seconds=30.0,
        )
        with ClusterRuntime(write_shards, config=config) as runtime:
            port = runtime.port
            window = (
                "/window?dataset=edit-a"
                "&min_x=100&min_y=100&max_x=110&max_y=110"
            )
            status, before, _ = _get(port, window)
            assert status == 200
            # The edit invalidates the cached window into the stale archive.
            status, ack, _ = _post(port, "/edit/add_node?dataset=edit-a", {
                "node_id": 990002, "label": "degraded-probe",
                "x": 105.0, "y": 105.0,
            })
            assert status == 200, ack
            handle = runtime.router._handles["w0"]
            handle.process.kill()
            deadline = time.monotonic() + 10.0
            while handle.process.is_alive() and time.monotonic() < deadline:
                time.sleep(0.02)
            status, body, headers = _get(port, window)
            lowered = {key.lower(): value for key, value in headers.items()}
            assert status == 200
            assert lowered.get("x-gvdb-stale") == "1"
            assert lowered.get("x-gvdb-degraded") == "no-healthy-owner"
            assert body == before  # the pre-edit last-known-good window
            assert runtime.router.metrics.degraded_reads >= 1

    def test_expired_client_deadline_rejected_with_504(self, live_cluster):
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_cluster.port, timeout=30.0
        )
        try:
            connection.request(
                "GET", "/window?dataset=shard-a",
                headers={"X-GVDB-Deadline-Ms": "0"},
            )
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 504
        assert "deadline" in body["error"]
        assert live_cluster.router.metrics.deadline_rejections >= 1


class TestRendezvousReplicas:
    WORKERS = ["w0", "w1", "w2", "w3"]

    def test_replicas_are_the_next_ranks_after_the_owner(self):
        ranked = rendezvous_ranking("ds-7", self.WORKERS)
        assert rendezvous_replicas("ds-7", self.WORKERS, 2) == ranked[1:3]
        assert rendezvous_owner("ds-7", self.WORKERS) not in rendezvous_replicas(
            "ds-7", self.WORKERS, 2
        )

    def test_first_replica_is_the_failover_owner(self):
        # The property promotion leans on: the rank-1 replica is exactly the
        # worker rendezvous failover would pick once the owner dies.
        for dataset in (f"ds-{i}" for i in range(16)):
            owner = rendezvous_owner(dataset, self.WORKERS)
            survivors = [w for w in self.WORKERS if w != owner]
            assert rendezvous_owner(dataset, survivors) == rendezvous_replicas(
                dataset, self.WORKERS, 1
            )[0]

    def test_degenerate_inputs(self):
        assert rendezvous_replicas("ds", self.WORKERS, 0) == []
        assert rendezvous_replicas("ds", [], 2) == []
        assert rendezvous_replicas("ds", ["solo"], 2) == []  # nobody left to be one
        # Asking for more replicas than workers caps at the fleet size.
        assert len(rendezvous_replicas("ds", self.WORKERS, 99)) == 3


class TestReplicaJournalCopy:
    def test_verified_append_round_trips_as_a_real_journal(self, tmp_path):
        copy = ReplicaJournalCopy(tmp_path / "ds.db.journal.w1")
        copy.reset()
        for seq in (1, 2):
            frame = encode_journal_frame(seq, "repack", {"n": seq})
            copy.append(seq, "repack", {"n": seq}, frame[4:20].hex())
        assert copy.last_seq == 2
        records = copy.records()
        assert [(r.seq, r.args["n"]) for r in records] == [(1, 1), (2, 2)]
        # Byte-compatible with the canonical journal format: the operator
        # tooling can verify a replica's copy unchanged.
        report = verify_journal(copy.path)
        assert report["records"] == 2 and not report["corrupt"]

    def test_digest_mismatch_rejected_before_the_write(self, tmp_path):
        copy = ReplicaJournalCopy(tmp_path / "ds.db.journal.w1")
        copy.reset()
        with pytest.raises(JournalError):
            copy.append(1, "repack", {"n": 1}, "00" * 16)
        assert copy.records() == []  # nothing reached the file

    def test_reset_starts_a_fresh_epoch(self, tmp_path):
        copy = ReplicaJournalCopy(tmp_path / "ds.db.journal.w1")
        copy.reset()
        frame = encode_journal_frame(5, "repack", {})
        copy.append(5, "repack", {}, frame[4:20].hex())
        copy.reset()
        assert copy.last_seq == 0 and copy.records() == []

    def test_replica_journal_path_is_worker_scoped(self, tmp_path):
        path = replica_journal_path(tmp_path / "ds.db", "w1")
        assert path.name == "ds.db.journal.w1"
        assert path.parent == tmp_path


class _StubReplicaClient:
    """Minimal WorkerClient stand-in for the replica-read selection tests."""

    def __init__(self, status: int = 200, body: bytes = b'{"num_rows": 1}'):
        self.status = status
        self.body = body
        self.calls: list[str] = []

    async def request(self, method, target, body=b"", **kwargs):
        self.calls.append(target)
        return self.status, {}, self.body


class TestReplicaReadSelection:
    """Unit: ``_proxy_replica`` staleness bounds and candidate ranking."""

    def _router(self, shard_paths, monkeypatch, **cluster_kwargs):
        router = ClusterRouter(shard_paths, config=_cluster_config(**cluster_kwargs))
        monkeypatch.setattr(router, "alive_workers", lambda: ["w0", "w1", "w2"])
        monkeypatch.setattr(router, "worker_for", lambda dataset: "w0")
        return router

    def test_replica_within_bound_served_with_provenance(
        self, shard_paths, monkeypatch
    ):
        router = self._router(shard_paths, monkeypatch)
        router._replica_sets["shard-a"] = ("w1",)
        router._replica_status["w1"] = {"shard-a": {"applied_seq": 7, "lag": 2}}
        stub = _StubReplicaClient()
        router._clients["w1"] = stub
        result = asyncio.run(
            router._proxy_replica("/window?dataset=shard-a", "shard-a")
        )
        assert result is not None
        status, body, headers = result
        assert status == 200 and body == stub.body
        assert headers["X-GVDB-Replica"] == "w1"
        assert headers["X-GVDB-Replica-Lag"] == "2"
        assert headers["X-GVDB-Stale"] == "1"  # lag > 0 declared honestly
        assert router.metrics.replica_reads == 1

    def test_zero_lag_replica_is_not_marked_stale(self, shard_paths, monkeypatch):
        router = self._router(shard_paths, monkeypatch)
        router._replica_sets["shard-a"] = ("w1",)
        router._replica_status["w1"] = {"shard-a": {"applied_seq": 7, "lag": 0}}
        router._clients["w1"] = _StubReplicaClient()
        _, _, headers = asyncio.run(
            router._proxy_replica("/window?dataset=shard-a", "shard-a")
        )
        assert "X-GVDB-Stale" not in headers

    def test_lag_past_bound_falls_through(self, shard_paths, monkeypatch):
        router = self._router(
            shard_paths, monkeypatch, replica_max_lag_records=4
        )
        router._replica_sets["shard-a"] = ("w1",)
        router._replica_status["w1"] = {"shard-a": {"applied_seq": 7, "lag": 5}}
        stub = _StubReplicaClient()
        router._clients["w1"] = stub
        result = asyncio.run(
            router._proxy_replica("/window?dataset=shard-a", "shard-a")
        )
        assert result is None  # caller falls through to owner error / archive
        assert stub.calls == []  # the lagging replica was never contacted

    def test_request_header_tightens_the_bound(self, shard_paths, monkeypatch):
        from repro.cluster import router as router_module

        router = self._router(shard_paths, monkeypatch)
        router._replica_sets["shard-a"] = ("w1",)
        router._replica_status["w1"] = {"shard-a": {"applied_seq": 7, "lag": 2}}
        router._clients["w1"] = _StubReplicaClient()
        token = router_module._request_max_staleness.set(1)
        try:
            result = asyncio.run(
                router._proxy_replica("/window?dataset=shard-a", "shard-a")
            )
        finally:
            router_module._request_max_staleness.reset(token)
        assert result is None  # lag 2 > client bound 1

    def test_unknown_watermark_is_never_served(self, shard_paths, monkeypatch):
        router = self._router(shard_paths, monkeypatch)
        router._replica_sets["shard-a"] = ("w1",)
        router._replica_status["w1"] = {"shard-a": {"polls": 3}}  # no applied_seq
        stub = _StubReplicaClient()
        router._clients["w1"] = stub
        assert asyncio.run(
            router._proxy_replica("/window?dataset=shard-a", "shard-a")
        ) is None
        assert stub.calls == []

    def test_most_caught_up_replica_wins(self, shard_paths, monkeypatch):
        router = self._router(shard_paths, monkeypatch)
        router._replica_sets["shard-a"] = ("w1", "w2")
        router._replica_status["w1"] = {"shard-a": {"applied_seq": 5, "lag": 2}}
        router._replica_status["w2"] = {"shard-a": {"applied_seq": 7, "lag": 0}}
        first = _StubReplicaClient()
        second = _StubReplicaClient()
        router._clients["w1"] = first
        router._clients["w2"] = second
        _, _, headers = asyncio.run(
            router._proxy_replica("/window?dataset=shard-a", "shard-a")
        )
        assert headers["X-GVDB-Replica"] == "w2"
        assert first.calls == []  # lower-lag candidate tried first and sufficed


class TestStaleArchiveByteBound:
    """Unit: the archive is bounded by bytes, not just entries (PR 7)."""

    def test_byte_budget_evicts_oldest_archived(self):
        cache = WindowResultCache(
            capacity=1, stale_capacity=10, stale_max_bytes=8
        )
        for key, body in (("a", b"AAAA"), ("b", b"BBBB"), ("c", b"CCCC"),
                          ("d", b"DDDD")):
            cache.put(key, "ds", 200, body)
        # Archiving "c" (via "d"'s eviction) pushed the archive to 12 bytes;
        # the oldest entry ("a") was dropped to get back under 8.
        assert cache.get_stale("a") is None
        assert cache.get_stale("b") is not None
        assert cache.get_stale("c") is not None
        assert cache.summary()["stale_bytes"] == 8

    def test_sole_over_budget_entry_is_kept(self):
        cache = WindowResultCache(
            capacity=1, stale_capacity=10, stale_max_bytes=2
        )
        cache.put("a", "ds", 200, b"AAAA")
        cache.invalidate_dataset("ds")
        # One over-budget megawindow still beats an empty archive mid-incident.
        assert cache.get_stale("a") is not None

    def test_superseded_entry_releases_its_bytes(self):
        cache = WindowResultCache(
            capacity=1, stale_capacity=10, stale_max_bytes=100
        )
        cache.put("a", "ds", 200, b"AAAA")
        cache.invalidate_dataset("ds")
        assert cache.summary()["stale_bytes"] == 4
        cache.put("a", "ds", 200, b"BB")  # fresh response supersedes archive
        assert cache.summary()["stale_bytes"] == 0


class TestReplicationLive:
    """Live fleet: the journal-tail feed, replica catch-up, and promotion."""

    @pytest.fixture
    def repl_shards(self, patent_result, tmp_path):
        """Fresh shards per test — replication state must not leak across."""
        paths = {}
        for name in ("repl-a", "repl-b"):
            path = tmp_path / f"{name}.db"
            save_to_sqlite(patent_result.database, path)
            paths[name] = str(path)
        return paths

    def _wait_for_watermark(self, runtime, replica, dataset, seq, seconds=15.0):
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            marks = runtime.health_summary()["replication"]["watermarks"]
            status = (marks.get(replica) or {}).get(dataset)
            if status and int(status.get("applied_seq", 0)) >= seq:
                return status
            time.sleep(0.05)
        return None

    def _wait_for_subscription(self, runtime, replica, dataset, seconds=15.0):
        """Block until the reconcile pass has subscribed ``replica``.

        Writes made before the subscription exists reach the replica through
        its pool replay of the (shared-filesystem) journal, not the feed —
        tests that assert on *streamed* records must order writes after this.
        """
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            marks = runtime.health_summary()["replication"]["watermarks"]
            status = (marks.get(replica) or {}).get(dataset)
            if isinstance(status, dict) and "applied_seq" in status:
                return status
            time.sleep(0.05)
        return None

    def test_feed_serves_verbatim_records_and_replica_catches_up(
        self, repl_shards
    ):
        config = _cluster_config(restart_backoff_seconds=10.0)
        with ClusterRuntime(repl_shards, config=config) as runtime:
            port = runtime.port
            owner = runtime.health_summary()["assignment"]["repl-a"]
            replica = "w1" if owner == "w0" else "w0"
            # Subscribe first, write after: only records appended while the
            # feed is live are *streamed* (earlier ones arrive via replay).
            assert self._wait_for_subscription(runtime, replica, "repl-a")
            for n in range(3):
                status, ack, _ = _post(port, "/edit/add_node?dataset=repl-a", {
                    "node_id": 770000 + n, "label": f"feed-{n}",
                    "x": 105.0 + n, "y": 105.0,
                })
                assert status == 200, ack

            # The owner's feed endpoint serves the records verbatim, each
            # digest matching the canonical re-encoding byte for byte.
            owner_port = runtime.router._handles[owner].port
            status, frame, _ = _get(
                owner_port, "/journal/tail?dataset=repl-a&from_seq=0"
            )
            assert status == 200
            assert [r["seq"] for r in frame["records"]] == [1, 2, 3]
            assert frame["last_seq"] == 3
            for entry in frame["records"]:
                encoded = encode_journal_frame(
                    entry["seq"], entry["op"], entry["args"]
                )
                assert encoded[4:20].hex() == entry["digest"]
            # Cursor semantics: an up-to-date subscriber gets an empty frame.
            status, drained, _ = _get(
                owner_port, "/journal/tail?dataset=repl-a&from_seq=3"
            )
            assert status == 200
            assert drained["records"] == [] and drained["last_seq"] == 3

            # The rendezvous replica converges to the journal head and says so.
            status = self._wait_for_watermark(runtime, replica, "repl-a", 3)
            assert status is not None, "replica never caught up"
            assert status["lag"] == 0 and status["owner"] == owner

            # Its local journal copy is a verifiable, byte-compatible journal.
            report = verify_journal(
                replica_journal_path(repl_shards["repl-a"], replica)
            )
            assert report["records"] >= 1 and not report["corrupt"]

            # Worker-side replication counters aggregate into /metrics.
            summary = runtime.metrics_summary()
            assert summary["replication"]["polls"] >= 1
            assert summary["replication"]["records_applied"] >= 3

    def test_promotion_after_owner_kill_serves_reads_and_writes_exactly_once(
        self, repl_shards
    ):
        config = _cluster_config(restart_backoff_seconds=10.0)
        with ClusterRuntime(repl_shards, config=config) as runtime:
            port = runtime.port
            labels = [f"promo-{n}" for n in range(5)]
            for n, label in enumerate(labels):
                status, ack, _ = _post(
                    port,
                    "/edit/add_node?dataset=repl-a"
                    f"&idempotency_key=promo-key-{n}",
                    {"node_id": 770100 + n, "label": label,
                     "x": 105.0, "y": 105.0 + n},
                )
                assert status == 200, ack
            owner = runtime.health_summary()["assignment"]["repl-a"]
            replica = "w1" if owner == "w0" else "w0"
            # Let the replica fully catch up so promotion has a warm copy.
            assert self._wait_for_watermark(runtime, replica, "repl-a", 5)

            runtime.router._handles[owner].process.kill()
            killed_at = time.monotonic()

            # The replica is promoted and serving reads within the failure
            # detection + promotion window.
            served = None
            deadline = killed_at + 15.0
            while time.monotonic() < deadline:
                status, keyword, _ = _get(
                    port, "/keyword?dataset=repl-a&q=promo-0"
                )
                if status == 200:
                    served = keyword
                    break
                time.sleep(0.02)
            assert served is not None, "nobody served the dataset after the kill"
            assert runtime.router.metrics.promotions >= 1
            assert runtime.router.metrics.last_promotion_ms > 0.0

            # A client retry of the in-flight write deduplicates across the
            # promotion instead of double-applying (PR 6 contract, new owner).
            status, ack, _ = _post(
                port,
                "/edit/add_node?dataset=repl-a&idempotency_key=promo-key-4",
                {"node_id": 770104, "label": labels[4],
                 "x": 105.0, "y": 109.0},
            )
            assert status == 200, ack
            assert ack.get("deduplicated") is True

            # Zero lost, zero double-applied: every acked write exactly once.
            for label in labels:
                status, keyword, _ = _get(
                    port, f"/keyword?dataset=repl-a&q={label}"
                )
                assert status == 200
                assert keyword["num_matches"] == 1, label

            # The promoted owner accepts brand-new writes too.
            status, ack, _ = _post(port, "/edit/add_node?dataset=repl-a", {
                "node_id": 770200, "label": "post-promotion",
                "x": 106.0, "y": 106.0,
            })
            assert status == 200, ack
            status, keyword, _ = _get(
                port, "/keyword?dataset=repl-a&q=post-promotion"
            )
            assert status == 200 and keyword["num_matches"] == 1

    def test_dropped_feed_stalls_replica_but_promotion_loses_nothing(
        self, repl_shards
    ):
        # Every feed poll on the replica misfires: it can never stream a
        # record.  Promotion must still produce a complete owner, because the
        # drain catches up from the authoritative journal.
        owner = rendezvous_owner("repl-a", ["w0", "w1"])
        replica = "w1" if owner == "w0" else "w0"
        plan = FaultPlan(
            [FaultRule(point="replication.feed", action="error",
                       worker=replica, every=1, name="feed-down")],
            seed=7, name="feed-chaos",
        )
        config = _cluster_config(
            fault_plan=plan.to_json(), restart_backoff_seconds=10.0
        )
        try:
            with ClusterRuntime(repl_shards, config=config) as runtime:
                port = runtime.port
                # Subscribe before writing: the replica's initial pool open
                # must see an empty journal, so everything below can only
                # reach it through the (faulted) feed.
                assert self._wait_for_subscription(runtime, replica, "repl-a")
                labels = [f"lagged-{n}" for n in range(3)]
                for n, label in enumerate(labels):
                    status, ack, _ = _post(
                        port, "/edit/add_node?dataset=repl-a",
                        {"node_id": 770300 + n, "label": label,
                         "x": 105.0, "y": 105.0 + n},
                    )
                    assert status == 200, ack
                # The replica reports the stall honestly instead of serving
                # silently stale answers.
                stalled = None
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    marks = runtime.health_summary()["replication"]["watermarks"]
                    status = (marks.get(replica) or {}).get("repl-a")
                    if status and status.get("last_error"):
                        stalled = status
                        break
                    time.sleep(0.05)
                assert stalled is not None, "replica never reported the fault"
                assert int(stalled["applied_seq"]) == 0

                runtime.router._handles[owner].process.kill()
                found = {}
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline and len(found) < len(labels):
                    for label in labels:
                        if label in found:
                            continue
                        status, keyword, _ = _get(
                            port, f"/keyword?dataset=repl-a&q={label}"
                        )
                        if status == 200:
                            found[label] = keyword["num_matches"]
                    time.sleep(0.02)
                # Every acked record survived, exactly once, despite the
                # replica never having streamed a single one.
                assert found == {label: 1 for label in labels}
        finally:
            faults.clear()

    def test_max_staleness_header_is_tolerated_on_the_wire(self, live_cluster):
        connection = http.client.HTTPConnection(
            "127.0.0.1", live_cluster.port, timeout=30.0
        )
        try:
            connection.request(
                "GET", "/window?dataset=shard-a",
                headers={"X-GVDB-Max-Staleness": "not-a-number"},
            )
            response = connection.getresponse()
            status, _ = response.status, response.read()
        finally:
            connection.close()
        assert status == 200  # a malformed bound is ignored, not an error
