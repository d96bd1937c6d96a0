"""Set-up of one benchmark fleet: fresh datasets, server processes, teardown.

Every :class:`Fleet` owns a fresh directory: it preprocesses both benchmark
datasets into it (two ``prep.py`` processes in parallel), copies the SQLite
files for the answer reference, then starts ``python -m repro serve
--workers N --port 0`` (or ``traced_serve.py serve ...`` for the traced run)
in its own process group and waits for the first successful answer of every
dataset.  :meth:`Fleet.stop` drains the server with SIGTERM and makes sure no
worker survives it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .tracing import SPANS_ENV

__all__ = ["DATASETS", "Fleet", "SetupResult", "read_status_kib"]

#: ``build_benchmark_datasets(scale=1.0)``: 4,000-node / 17,050-edge
#: patent-like and 4,850-node / 5,111-edge wikidata-like graphs.
DATASETS = ("patent-like", "wikidata-like")

_clock = time.perf_counter
_START_TIMEOUT = 120.0
_STOP_TIMEOUT = 30.0
_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")


@dataclass
class SetupResult:
    """What one set-up cost, end to end and per step."""

    setup_s: float
    prep_s: float
    start_s: float
    steps: dict[str, float] = field(default_factory=dict)  # summed over datasets
    save_s: float = 0.0


def read_status_kib(pid: int, key: str) -> int:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status`` in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


class Fleet:
    """Fresh datasets plus one running router/worker server."""

    def __init__(self, root: Path, directory: Path, workers: int,
                 serve_flags: tuple[str, ...], spans_dir: Path | None = None) -> None:
        self.root = root
        self.directory = directory
        self.workers = workers
        self.serve_flags = serve_flags
        self.spans_dir = spans_dir
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.sqlite = {name: directory / f"{name}.sqlite" for name in DATASETS}
        self.reference = {name: directory / "reference" / f"{name}.sqlite"
                          for name in DATASETS}
        self.positions = {name: directory / f"{name}.positions.json"
                          for name in DATASETS}
        self.baseline_rss_kib: dict[int, int] = {}
        self._output: queue.Queue[bytes] = queue.Queue()
        self._reader: threading.Thread | None = None

    # ------------------------------------------------------------------ set-up

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        env.pop(SPANS_ENV, None)
        return env

    def setup(self) -> SetupResult:
        """Generate, preprocess, save, start the fleet, await first answers."""
        self.directory.mkdir(parents=True)
        (self.directory / "reference").mkdir()
        env = self._env()
        prep = str(self.root / "perfbench" / "prep.py")
        started = _clock()
        procs = [
            subprocess.Popen(
                [sys.executable, prep, name, str(self.sqlite[name]),
                 str(self.positions[name])],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                cwd=self.directory,
            )
            for name in DATASETS
        ]
        reports = []
        try:
            for name, proc in zip(DATASETS, procs):
                out, err = proc.communicate(timeout=900)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"preprocessing {name} failed:\n{err.decode()[-2000:]}")
                reports.append(json.loads(out.decode().strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        prep_s = max(report["ready_at"] for report in reports) - started
        for name in DATASETS:
            shutil.copyfile(self.sqlite[name], self.reference[name])

        started = _clock()
        self._start_server(env)
        self.baseline_rss_kib = {
            pid: read_status_kib(pid, "VmRSS") for pid in self.worker_pids()
        }
        for name in DATASETS:
            self._first_answer(name)
        start_s = _clock() - started

        steps: dict[str, float] = {}
        for report in reports:
            for step, seconds in report["steps"].items():
                steps[step] = steps.get(step, 0.0) + seconds
        return SetupResult(
            setup_s=prep_s + start_s, prep_s=prep_s, start_s=start_s, steps=steps,
            save_s=sum(report["save_s"] for report in reports),
        )

    def _start_server(self, env: dict[str, str]) -> None:
        if self.spans_dir is not None:
            self.spans_dir.mkdir(parents=True)
            env[SPANS_ENV] = str(self.spans_dir)
            entry = [sys.executable, str(self.root / "perfbench" / "traced_serve.py")]
        else:
            entry = [sys.executable, "-m", "repro"]
        command = entry + ["serve", "--workers", str(self.workers), "--port", "0"]
        for name in DATASETS:
            command += ["--database", str(self.sqlite[name])]
        command += list(self.serve_flags)
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            cwd=self.directory, start_new_session=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + _START_TIMEOUT
        log = b""
        while True:
            try:
                line = self._output.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server did not start:\n{log.decode()[-2000:]}")
            if not line:
                raise RuntimeError(f"server exited at start:\n{log.decode()[-2000:]}")
            log += line
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                return

    def _drain(self) -> None:
        for line in iter(self.process.stdout.readline, b""):
            self._output.put(line)
        self._output.put(b"")

    def _first_answer(self, dataset: str) -> None:
        deadline = time.monotonic() + _START_TIMEOUT
        while True:
            try:
                status, _ = self.get(f"/window?dataset={dataset}&payload=1")
            except OSError as exc:
                status = f"unreachable ({exc})"
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(f"no answer for {dataset}: HTTP {status}")
            time.sleep(0.05)

    # --------------------------------------------------------------- requests

    def get(self, target: str, timeout: float = 60.0) -> tuple[int, bytes]:
        """One GET on a fresh connection to the router."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """The fleet-wide ``/metrics`` counters, flattened to dotted names."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered HTTP {status}")
        flat: dict[str, float] = {}

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key, inner in value.items():
                    walk(f"{prefix}{key}.", inner)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[prefix[:-1]] = float(value)

        walk("", json.loads(body))
        return flat

    # ---------------------------------------------------------- process state

    def worker_pids(self) -> list[int]:
        """Spawned worker processes of the router (not the resource tracker)."""
        pids = []
        router = self.process.pid
        try:
            tasks = os.listdir(f"/proc/{router}/task")
        except FileNotFoundError:
            return []
        for task in tasks:
            try:
                with open(f"/proc/{router}/task/{task}/children", encoding="ascii") as f:
                    pids.extend(int(pid) for pid in f.read().split())
            except FileNotFoundError:
                continue
        workers = []
        for pid in sorted(set(pids)):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"spawn_main" in handle.read():
                        workers.append(pid)
            except FileNotFoundError:
                continue
        return workers

    def peak_rss_kib(self) -> tuple[int, dict[int, int]]:
        """``VmHWM`` of the router and of each worker."""
        router = read_status_kib(self.process.pid, "VmHWM")
        return router, {pid: read_status_kib(pid, "VmHWM") for pid in self.worker_pids()}

    def stop(self) -> None:
        """Drain the server (SIGTERM) and make sure its whole group is gone."""
        process = self.process
        if process is None:
            return
        workers = self.worker_pids() if process.poll() is None else []
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        with_group = process.poll() is None or any(_alive(pid) for pid in workers)
        if with_group:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.wait()
        deadline = time.monotonic() + _STOP_TIMEOUT
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        process.stdout.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().split(") ")[-1][:1] != "Z"
    except FileNotFoundError:
        return False
