"""The system under test: one ``repro serve`` process and its workers."""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 15.0


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` from the state field on, or None once gone."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after ")"
    return stat.rsplit(")", 1)[1].split()


def _descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it, read from ``/proc``."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = [pid]
    for member in tree:  # grows while iterating: breadth-first
        tree.extend(c for c, parent in parent_of.items() if parent == member)
    return tree


def _running(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _peak_rss_kb(pid: int) -> int:
    try:
        status = Path("/proc", str(pid), "status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


class Server:
    """Spawns ``python -m repro.cli serve <net> --port 0 ...``."""

    def __init__(self, root: Path, workdir: Path, network_file: Path,
                 engine: str, workers: int) -> None:
        self._cmd = [
            sys.executable, "-m", "repro.cli", "serve", str(network_file),
            "--port", "0", "--engine", engine, "--workers", str(workers),
        ]
        if workers:
            # keep the artifact handoff inside the checkout
            spill = workdir / "spill"
            spill.mkdir(exist_ok=True)
            self._cmd += ["--spill-dir", str(spill)]
        self._env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONUNBUFFERED="1",
            TMPDIR=str(workdir),
        )
        self._log = workdir / "server.log"
        self._process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the server; seconds from spawn to the first 200 on health."""
        t0 = time.perf_counter()
        with open(self._log, "ab") as log:
            self._process = subprocess.Popen(
                self._cmd, env=self._env, stdout=subprocess.PIPE, stderr=log,
            )
        try:
            ready, _, _ = select.select(
                [self._process.stdout], [], [], _START_TIMEOUT_S
            )
            line = self._process.stdout.readline().decode() if ready else ""
            match = re.search(r"http://[^:]+:(\d+)/", line)
            if match is None:
                raise RuntimeError(
                    f"repro serve did not come up (see {self._log})"
                )
            self.port = int(match.group(1))
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(f"/v1/health answered {response.status}")
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """Σ VmHWM over the server's process tree (call before stop)."""
        tree = _descendants(self._process.pid)
        return sum(_peak_rss_kb(pid) for pid in tree) / 1024.0

    def stop(self) -> None:
        """SIGINT the gateway and wait until the whole tree has ended."""
        process, self._process = self._process, None
        if process is None:
            return
        leftover: list[int] = []
        if process.poll() is None:
            leftover = _descendants(process.pid)[1:]
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        # shard workers and the resource tracker are joined by the
        # gateway on its way out; make sure none outlives this call
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while any(_running(pid) for pid in leftover):
            if time.monotonic() > deadline:
                for pid in leftover:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline += _STOP_TIMEOUT_S
            time.sleep(0.01)
