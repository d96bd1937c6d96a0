"""Unit tests for the concurrent serving subsystem (``repro.service``)."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.config import GraphVizDBConfig, ServiceConfig
from repro.core.editing import GraphEditor
from repro.core.monitoring import ServiceMetrics
from repro.core.query_manager import QueryManager
from repro.core.server import GraphVizDBServer
from repro.core.streaming import stream_payload
from repro.core.viewport import Viewport
from repro.errors import ConfigurationError, QueryError, ServiceOverloadedError
from repro.graph.generators import community_graph
from repro.service.frontend import GraphVizDBService, ServiceRuntime
from repro.service.http import serve_http
from repro.service.maintenance import MaintenanceScheduler
from repro.service.pool import DatasetPool
from repro.spatial.geometry import Point, Rect
from repro.storage.sqlite_backend import save_to_sqlite


@pytest.fixture(scope="module")
def sqlite_paths(request, tmp_path_factory):
    """Three preprocessed SQLite files (one real dataset saved under 3 names)."""
    patent_result = request.getfixturevalue("patent_result")
    base = tmp_path_factory.mktemp("pool")
    paths = []
    for index in range(3):
        path = base / f"dataset-{index}.db"
        save_to_sqlite(patent_result.database, path)
        paths.append(path)
    return paths


@pytest.fixture
def runtime(patent_result):
    """A running service over the in-memory patent dataset."""
    service = GraphVizDBService(GraphVizDBConfig.small())
    service.register_dataset("patent", patent_result.database)
    with ServiceRuntime(service) as runtime:
        yield runtime


class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.max_workers > 0

    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0},
        {"max_queue_depth": 0},
        {"coalesce_window_seconds": -0.1},
        {"coalesce_max_batch": 0},
        {"pool_capacity": 0},
        {"pool_idle_seconds": -1},
        {"repack_edit_threshold": 0},
        {"repack_quiescence_seconds": -1},
        {"maintenance_interval_seconds": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)


class TestDatasetPool:
    def test_miss_then_hit(self, sqlite_paths):
        metrics = ServiceMetrics()
        pool = DatasetPool(capacity=2, metrics=metrics)
        first = pool.get(sqlite_paths[0])
        again = pool.get(sqlite_paths[0])
        assert first is again
        assert metrics.pool_misses == 1
        assert metrics.pool_hits == 1
        assert first.uses == 2

    def test_lru_eviction_at_capacity(self, sqlite_paths):
        metrics = ServiceMetrics()
        pool = DatasetPool(capacity=2, metrics=metrics)
        pool.get(sqlite_paths[0])
        pool.get(sqlite_paths[1])
        pool.get(sqlite_paths[0])  # refresh 0 so 1 is now LRU
        pool.get(sqlite_paths[2])  # evicts 1
        keys = pool.open_paths()
        assert str(sqlite_paths[1].resolve()) not in keys
        assert str(sqlite_paths[0].resolve()) in keys
        assert metrics.pool_evictions == 1

    def test_open_once_under_concurrency(self, sqlite_paths):
        metrics = ServiceMetrics()
        pool = DatasetPool(capacity=2, metrics=metrics)
        entries = []
        barrier = threading.Barrier(6)

        def open_it():
            barrier.wait()
            entries.append(pool.get(sqlite_paths[0]))

        threads = [threading.Thread(target=open_it) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry.database) for entry in entries}) == 1
        assert metrics.pool_misses == 1

    def test_evict_idle(self, sqlite_paths):
        pool = DatasetPool(capacity=2, idle_seconds=0.01)
        pool.get(sqlite_paths[0])
        time.sleep(0.02)
        evicted = pool.evict_idle()
        assert evicted == [str(sqlite_paths[0].resolve())]
        assert len(pool) == 0

    def test_explicit_evict(self, sqlite_paths):
        pool = DatasetPool(capacity=2)
        pool.get(sqlite_paths[0])
        assert pool.evict(sqlite_paths[0]) is True
        assert pool.evict(sqlite_paths[0]) is False


class TestFrontend:
    def test_window_query_matches_direct(self, runtime, patent_result):
        direct = QueryManager(patent_result.database)
        window = direct.default_viewport().window()
        served = runtime.window_query("patent", window)
        expected = direct.window_query(window)
        assert served.rows == expected.rows
        assert served.payload.num_objects == expected.payload.num_objects

    def test_concurrent_identical_windows_coalesce_and_agree(self, patent_result):
        direct = QueryManager(patent_result.database)
        window = direct.default_viewport().window()
        expected = direct.window_query(window)
        # A generous coalescing window so all 8 threads land in one batch even
        # on a loaded CI machine.
        service = GraphVizDBService(GraphVizDBConfig(
            service=ServiceConfig(coalesce_window_seconds=0.1)
        ))
        service.register_dataset("patent", patent_result.database)
        results = []
        barrier = threading.Barrier(8)
        with ServiceRuntime(service) as runtime:
            def client():
                barrier.wait()
                results.append(runtime.window_query("patent", window))

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            summary = runtime.metrics_summary()
        assert len(results) == 8
        assert all(result.rows == expected.rows for result in results)
        assert summary["coalescer"]["requests"] >= 8
        assert summary["coalescer"]["batches"] < summary["coalescer"]["requests"]
        assert summary["coalescer"]["duplicate_window_hits"] > 0

    def test_distinct_windows_in_one_batch_agree(self, runtime, patent_result):
        direct = QueryManager(patent_result.database)
        base = direct.default_viewport().window()
        windows = [base.translated(i * base.width / 3, 0) for i in range(4)]
        expected = [direct.window_query(w).rows for w in windows]
        results = {}
        barrier = threading.Barrier(4)

        def client(index):
            barrier.wait()
            results[index] = runtime.window_query("patent", windows[index])

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(4):
            assert results[index].rows == expected[index]

    def test_keyword_nearest_and_unknown_dataset(self, runtime, patent_result):
        search = runtime.keyword_search("patent", "patent", limit=3)
        assert search.num_matches <= 3
        rows = runtime.nearest("patent", Point(0.0, 0.0), k=5)
        assert 0 < len(rows) <= 5
        with pytest.raises(QueryError):
            runtime.window_query("nope")

    def test_session_lifecycle(self, runtime):
        session_id = runtime.create_session("patent")
        refreshed = runtime.session_command(session_id, "refresh")
        panned = runtime.session_command(session_id, "pan", dx_px=120, dy_px=40)
        assert panned.window != refreshed.window
        with pytest.raises(QueryError):
            runtime.session_command(session_id, "teleport")
        with pytest.raises(QueryError):
            runtime.session_command("missing", "refresh")
        assert runtime.close_session(session_id) is True
        assert runtime.close_session(session_id) is False

    def test_overload_rejects_with_explicit_error(self, patent_result):
        config = GraphVizDBConfig(
            service=ServiceConfig(
                max_workers=1,
                max_queue_depth=1,
                # keep batches open long enough that a second request finds
                # the first still admitted
                coalesce_window_seconds=0.2,
            )
        )
        service = GraphVizDBService(config)
        service.register_dataset("patent", patent_result.database)
        with ServiceRuntime(service) as runtime:
            window = QueryManager(patent_result.database).default_viewport().window()
            first = asyncio.run_coroutine_threadsafe(
                service.window_query("patent", window), runtime._loop
            )
            deadline = time.monotonic() + 2.0
            while (
                service.queue_depth("patent") == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                runtime.window_query("patent", window)
            assert excinfo.value.dataset == "patent"
            assert first.result(timeout=5).rows is not None
            assert service.metrics.requests_rejected == 1

    def test_server_facade_start_service(self, small_config):
        server = GraphVizDBServer(small_config)
        graph = community_graph(num_communities=2, community_size=15, seed=9)
        graph.name = "communities"
        server.load_dataset(graph)
        with server.start_service() as runtime:
            result = runtime.window_query("communities")
            assert result.num_objects > 0

    def test_sqlite_datasets_via_pool(self, sqlite_paths):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.attach_sqlite("a", sqlite_paths[0])
        service.attach_sqlite("b", sqlite_paths[1])
        with ServiceRuntime(service) as runtime:
            first = runtime.window_query("a")
            second = runtime.window_query("b")
            assert first.rows == second.rows  # same saved dataset
            summary = runtime.metrics_summary()
            assert summary["pool"]["misses"] == 2


class TestMaintenance:
    def test_run_once_repacks_after_quiescence(self, patent_result, tmp_path):
        from repro.storage.sqlite_backend import load_from_sqlite

        path = tmp_path / "maint.db"
        save_to_sqlite(patent_result.database, path)
        database = load_from_sqlite(path)
        editor = GraphEditor(database, layer=0)
        row = next(iter(database.table(0).scan()))
        editor.rename_node(row.node1_id, "Renamed")
        assert database.table(0).rtree.supports_updates  # demoted by the edit

        metrics = ServiceMetrics()
        scheduler = MaintenanceScheduler(
            config=ServiceConfig(
                repack_edit_threshold=1, repack_quiescence_seconds=10.0
            ),
            metrics=metrics,
        )
        scheduler.watch("maint", database)
        # Not quiesced yet: the edit just happened, threshold met but too fresh.
        assert scheduler.run_once()["repacked"] == {}
        scheduler.config = ServiceConfig(
            repack_edit_threshold=1, repack_quiescence_seconds=0.0
        )
        outcome = scheduler.run_once()
        assert outcome["repacked"] == {"maint": [0]}
        assert not database.table(0).rtree.supports_updates
        assert database.table(0).edits_since_repack == 0
        assert metrics.repack_runs == 1
        # A second cycle finds nothing to do.
        assert scheduler.run_once()["repacked"] == {}

    def test_background_thread_lifecycle(self):
        scheduler = MaintenanceScheduler(
            config=ServiceConfig(maintenance_interval_seconds=0.01)
        )
        scheduler.start()
        assert scheduler.running
        scheduler.start()  # idempotent
        scheduler.stop()
        assert not scheduler.running

    def test_watch_unwatch(self, patent_result):
        scheduler = MaintenanceScheduler()
        scheduler.watch("one", patent_result.database)
        assert scheduler.watched() == ["one"]
        scheduler.unwatch("one")
        assert scheduler.watched() == []

    def test_cycle_survives_failing_hook_and_database(self, patent_result):
        class ExplodingDatabase:
            def layers_due_for_repack(self, **kwargs):
                raise RuntimeError("boom")

        scheduler = MaintenanceScheduler(
            config=ServiceConfig(repack_edit_threshold=1,
                                 repack_quiescence_seconds=0.0)
        )
        scheduler.watch("bad", ExplodingDatabase())
        scheduler.watch("good", patent_result.database)
        hook_calls = []

        def bad_hook():
            hook_calls.append(True)
            raise ValueError("hook boom")

        scheduler.add_hook(bad_hook)
        outcome = scheduler.run_once()  # must not raise
        assert hook_calls == [True]
        assert isinstance(scheduler.last_error, ValueError)
        assert outcome["repacked"] == {}  # the good database had nothing due

    def test_idle_sessions_expire(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig(
            service=ServiceConfig(session_idle_seconds=0.01)
        ))
        service.register_dataset("patent", patent_result.database)
        with ServiceRuntime(service) as runtime:
            session_id = runtime.create_session("patent")
            time.sleep(0.03)
            expired = service._expire_idle_sessions()
            assert session_id in expired
            with pytest.raises(QueryError):
                runtime.session_command(session_id, "refresh")


class TestHttp:
    @pytest.fixture
    def http_server(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)
        started = threading.Event()
        stop = {}

        def run_loop():
            async def main():
                async with service:
                    server = await serve_http(service, port=0)
                    stop["port"] = server.sockets[0].getsockname()[1]
                    stop["loop"] = asyncio.get_running_loop()
                    stop["event"] = asyncio.Event()
                    started.set()
                    await stop["event"].wait()
                    server.close()
                    await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=run_loop, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield stop["port"]
        stop["loop"].call_soon_threadsafe(stop["event"].set)
        thread.join(timeout=10)

    def _get(self, port, path):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    def test_endpoints(self, http_server):
        port = http_server
        status, body = self._get(port, "/datasets")
        assert status == 200 and body["datasets"] == ["patent"]
        status, body = self._get(port, "/window?dataset=patent")
        assert status == 200 and body["num_objects"] > 0
        status, body = self._get(port, "/window?dataset=patent&payload=1")
        assert status == 200 and len(body["payload"]["nodes"]) > 0
        status, body = self._get(port, "/keyword?dataset=patent&q=patent&limit=2")
        assert status == 200 and body["num_matches"] <= 2
        status, body = self._get(port, "/nearest?dataset=patent&x=0&y=0&k=2")
        assert status == 200 and len(body["rows"]) == 2
        status, body = self._get(port, "/metrics")
        assert status == 200 and body["requests"]["admitted"] >= 4

    def _get_raw(self, port, path):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    @staticmethod
    def _reference_window_body(answer_meta, payload, chunk_size, cursor=None):
        """A payload answer rebuilt the way it was defined before sizes were
        counted from fragments: every chunk and the payload re-encoded from
        the node/edge dictionaries; timings copied from the answer."""
        compact = (",", ":")
        chunks = list(stream_payload(payload, chunk_size))
        meta = {
            "layer": answer_meta["layer"],
            "num_objects": payload.num_objects,
            "num_rows": answer_meta["num_rows"],
            "num_chunks": len(chunks),
            "total_bytes": sum(
                len(json.dumps({
                    "chunk": chunk.index, "total": chunk.total_chunks,
                    "nodes": list(chunk.nodes), "edges": list(chunk.edges),
                }, separators=compact).encode("utf-8"))
                for chunk in chunks
            ),
        }
        for key in ("db_query_seconds", "filter_seconds",
                    "json_build_seconds", "server_seconds"):
            meta[key] = answer_meta[key]
        if cursor is not None:
            meta["cursor"] = cursor
        return (
            b'{"meta": ' + json.dumps(meta).encode() + b', "payload": '
            + json.dumps(payload.as_dict(), separators=compact).encode() + b"}"
        )

    def test_payload_answers_are_byte_identical_to_the_reference(
        self, http_server, patent_result
    ):
        port = http_server
        config = GraphVizDBConfig.small()
        manager = QueryManager(patent_result.database, config.client)
        chunk_size = config.client.chunk_size
        for layer in (0, 1):
            bounds = patent_result.database.bounds(layer)
            cx, cy = bounds.center.x, bounds.center.y
            for half in (bounds.width / 4, bounds.width):
                window = Rect(cx - half, cy - half, cx + half, cy + half)
                status, raw = self._get_raw(
                    port,
                    f"/window?dataset=patent&payload=1&layer={layer}"
                    f"&min_x={window.min_x!r}&min_y={window.min_y!r}"
                    f"&max_x={window.max_x!r}&max_y={window.max_y!r}",
                )
                assert status == 200
                meta = json.loads(raw)["meta"]
                assert meta["num_chunks"] > 1  # the chunk framing is counted
                expected = manager.window_query(window, layer=layer).payload
                assert raw == self._reference_window_body(meta, expected, chunk_size)

            status, body = self._get(
                port, f"/session/new?dataset=patent&layer={layer}&x={cx!r}&y={cy!r}"
            )
            assert status == 200
            session_id = body["session_id"]
            status, raw = self._get_raw(
                port, f"/session/{session_id}/pan?dx=40&dy=-25&payload=1"
            )
            assert status == 200
            meta = json.loads(raw)["meta"]
            cursor = meta["cursor"]
            assert cursor["layer"] == layer and meta["num_objects"] > 0
            viewport = Viewport(
                Point(cursor["x"], cursor["y"]), config.client.viewport_width,
                config.client.viewport_height, cursor["zoom"],
            )
            expected = manager.window_query(viewport.window(), layer=layer).payload
            assert raw == self._reference_window_body(
                meta, expected, chunk_size, cursor=cursor
            )

    def test_http_sessions(self, http_server):
        port = http_server
        status, body = self._get(port, "/session/new?dataset=patent")
        assert status == 200
        session_id = body["session_id"]
        status, body = self._get(port, f"/session/{session_id}/refresh")
        assert status == 200 and body["num_objects"] > 0
        status, body = self._get(port, f"/session/{session_id}/pan?dx=100&dy=0")
        assert status == 200
        status, body = self._get(port, f"/session/{session_id}/search?q=patent&limit=2")
        assert status == 200 and body["num_matches"] <= 2
        status, body = self._get(port, f"/session/{session_id}/close")
        assert status == 200 and body["closed"] is True
        status, _ = self._get(port, f"/session/{session_id}/refresh")
        assert status == 404  # closed sessions are gone

    def test_http_errors(self, http_server):
        port = http_server
        status, _ = self._get(port, "/window?dataset=missing")
        assert status == 404
        status, _ = self._get(port, "/window")
        assert status == 400  # dataset parameter missing
        status, _ = self._get(port, "/nope")
        assert status == 404

    def test_health_endpoint_reports_edit_counters(self, http_server, patent_result):
        port = http_server
        status, body = self._get(port, "/health")
        assert status == 200 and body["status"] == "ok"
        assert body["datasets"]["patent"] == patent_result.database.edit_counter()

    def test_keepalive_serves_sequential_requests_on_one_connection(
        self, http_server
    ):
        connection = http.client.HTTPConnection("127.0.0.1", http_server, timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/datasets")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                assert json.loads(response.read())["datasets"] == ["patent"]
        finally:
            connection.close()

    def test_connection_close_header_is_honoured(self, http_server):
        connection = http.client.HTTPConnection("127.0.0.1", http_server, timeout=10)
        try:
            connection.request("GET", "/datasets", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()


class TestHttpHardening:
    def _serve(self, service, **kwargs):
        """Run ``serve_http`` on a background loop; yields the bound port."""
        started = threading.Event()
        stop: dict = {}

        def run_loop():
            async def main():
                async with service:
                    server = await serve_http(service, port=0, **kwargs)
                    stop["port"] = server.sockets[0].getsockname()[1]
                    stop["loop"] = asyncio.get_running_loop()
                    stop["event"] = asyncio.Event()
                    started.set()
                    await stop["event"].wait()
                    server.close()
                    await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=run_loop, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        stop["thread"] = thread
        return stop

    def _stop(self, stop):
        stop["loop"].call_soon_threadsafe(stop["event"].set)
        stop["thread"].join(timeout=10)

    def test_request_timeout_returns_504(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)

        async def slow_window(*args, **kwargs):
            await asyncio.sleep(0.5)

        service.window_query = slow_window  # type: ignore[method-assign]
        stop = self._serve(service, request_timeout_seconds=0.05)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", stop["port"], timeout=10
            )
            connection.request("GET", "/window?dataset=patent")
            response = connection.getresponse()
            assert response.status == 504
            assert b"budget" in response.read()
            # The connection survives a timed-out request.
            connection.request("GET", "/datasets")
            assert connection.getresponse().status == 200
            connection.close()
        finally:
            self._stop(stop)

    def test_keepalive_idle_expiry_closes_connection(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)
        stop = self._serve(service, keepalive_seconds=0.1)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", stop["port"], timeout=10
            )
            connection.request("GET", "/datasets")
            assert connection.getresponse().status == 200
            time.sleep(0.4)  # idle past the keep-alive window
            with pytest.raises((http.client.HTTPException, OSError)):
                connection.request("GET", "/datasets")
                response = connection.getresponse()
                response.read()
            connection.close()
        finally:
            self._stop(stop)

    def test_keepalive_zero_restores_connection_per_request(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)
        stop = self._serve(service, keepalive_seconds=0)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", stop["port"], timeout=10
            )
            connection.request("GET", "/datasets")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
            connection.close()
        finally:
            self._stop(stop)


class TestHttpEdits:
    """The POST /edit/* write API on the worker endpoint."""

    @pytest.fixture
    def edit_server(self, patent_result, tmp_path):
        """An HTTP service over a private SQLite copy (writes stay local)."""
        path = tmp_path / "editable.db"
        save_to_sqlite(patent_result.database, path)
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.attach_sqlite("patent", str(path))
        started = threading.Event()
        stop = {}

        def run_loop():
            async def main():
                async with service:
                    server = await serve_http(service, port=0)
                    stop["port"] = server.sockets[0].getsockname()[1]
                    stop["loop"] = asyncio.get_running_loop()
                    stop["event"] = asyncio.Event()
                    started.set()
                    await stop["event"].wait()
                    server.close()
                    await server.wait_closed()

            asyncio.run(main())

        thread = threading.Thread(target=run_loop, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        yield stop["port"], path
        stop["loop"].call_soon_threadsafe(stop["event"].set)
        thread.join(timeout=10)

    def _request(self, port, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request(
                method, path,
                body=json.dumps(body).encode() if body is not None else None,
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_edit_round_trip_over_http(self, edit_server):
        port, path = edit_server
        status, ack = self._request(port, "POST", "/edit/add_node?dataset=patent", {
            "node_id": 777001, "label": "http-edit-probe", "x": 4.5, "y": 4.5,
        })
        assert status == 200, ack
        assert ack["seq"] == 1 and ack["edit_counter"] >= 1
        # Read-after-write on the same worker: keyword search finds it.
        status, body = self._request(
            port, "GET", "/keyword?dataset=patent&q=http-edit-probe"
        )
        assert status == 200 and body["num_matches"] == 1
        # The window around the new node contains it.
        status, body = self._request(
            port, "GET",
            "/window?dataset=patent&min_x=4&min_y=4&max_x=5&max_y=5",
        )
        assert status == 200 and body["num_rows"] >= 1
        # And the journal holds the acknowledged record.
        from repro.writes.journal import journal_path_for, read_journal_records

        assert len(read_journal_records(journal_path_for(path))) == 1

    def test_edit_error_mapping(self, edit_server):
        port, _ = edit_server
        status, body = self._request(port, "POST", "/edit/frobnicate?dataset=patent", {})
        assert status == 400 and "unknown edit operation" in body["error"]
        status, _ = self._request(
            port, "POST", "/edit/delete_node?dataset=patent", {"node_id": 999999999}
        )
        assert status == 404
        status, _ = self._request(port, "POST", "/edit/add_node?dataset=patent", {})
        assert status == 400  # missing required arguments
        status, _ = self._request(port, "GET", "/edit/add_node?dataset=patent")
        assert status == 405  # edits require POST
        status, _ = self._request(port, "POST", "/window?dataset=patent", {})
        assert status == 405  # reads require GET
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request(
                "POST", "/edit/add_node?dataset=patent", body=b"not json {"
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_health_counter_moves_with_edits(self, edit_server):
        port, _ = edit_server
        _, before = self._request(port, "GET", "/health")
        status, _ = self._request(port, "POST", "/edit/add_node?dataset=patent", {
            "node_id": 777002, "label": "counter-probe", "x": 0.0, "y": 0.0,
        })
        assert status == 200
        _, after = self._request(port, "GET", "/health")
        assert after["datasets"]["patent"] > before["datasets"]["patent"]

    def test_repack_over_http(self, edit_server):
        port, _ = edit_server
        status, _ = self._request(port, "POST", "/edit/add_node?dataset=patent", {
            "node_id": 777003, "label": "demoter", "x": 1.0, "y": 1.0,
        })
        assert status == 200
        status, ack = self._request(port, "POST", "/edit/repack?dataset=patent", {})
        assert status == 200 and ack["changed"] is True


class TestSessionCursor:
    def test_session_responses_carry_cursor(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)
        with ServiceRuntime(service) as runtime:
            session_id = runtime.create_session("patent")
            cursor = service.session_cursor(session_id)
            assert cursor["dataset"] == "patent" and cursor["layer"] == 0
            runtime.session_command(session_id, "pan", dx_px=120.0, dy_px=0.0)
            moved = service.session_cursor(session_id)
            assert moved["x"] != cursor["x"]
            assert service.session_cursor("missing") is None

    def test_create_session_with_replicated_cursor(self, patent_result):
        service = GraphVizDBService(GraphVizDBConfig.small())
        service.register_dataset("patent", patent_result.database)
        with ServiceRuntime(service) as runtime:
            session_id = runtime._call(service.create_session(
                "patent", start_layer=1, session_id="replica-1",
                center=Point(42.0, 24.0), zoom=2.0,
            ))
            assert session_id == "replica-1"
            cursor = service.session_cursor("replica-1")
            assert cursor["layer"] == 1
            assert cursor["x"] == 42.0 and cursor["y"] == 24.0
            assert cursor["zoom"] == 2.0
            # Reopening an id that is already live keeps the session.
            again = runtime._call(service.create_session(
                "patent", session_id="replica-1"
            ))
            assert again == "replica-1"
            assert service.session_cursor("replica-1")["x"] == 42.0

    def test_inflight_session_survives_idle_expiry(self, patent_result):
        """Satellite fix: the idle sweep must not reap a mid-request session."""
        service = GraphVizDBService(GraphVizDBConfig(
            service=ServiceConfig(session_idle_seconds=0.01)
        ))
        service.register_dataset("patent", patent_result.database)
        with ServiceRuntime(service) as runtime:
            session_id = runtime.create_session("patent")
            serving = service._sessions[session_id]
            # Simulate a command parked behind a long predecessor: admitted
            # (inflight), but its last_used timestamp already stale.
            serving.inflight = 1
            serving.last_used -= 10.0
            assert session_id not in service._expire_idle_sessions()
            assert session_id in service._sessions
            # Once the command completes, the ordinary expiry applies again.
            serving.inflight = 0
            assert session_id in service._expire_idle_sessions()
