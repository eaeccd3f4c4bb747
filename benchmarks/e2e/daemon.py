"""Boot ``repro serve`` as a subprocess and talk to it over real sockets.

Hygiene rules this module exists to keep:

* the daemon's stderr goes to a log file, never an undrained pipe — a
  large traceback (a ``RecursionError`` on a handler thread) fills a
  pipe buffer and deadlocks the daemon;
* the port is parsed from the daemon's own ``listening on
  http://HOST:PORT`` line (``--port 0`` picks a free one);
* every request has a 10 s client timeout, and a dropped connection is
  replaced before the next request;
* the daemon is always stopped (``with Daemon(...)``), and waited for;
  ``run.main`` turns SIGTERM into an exit so that this holds then too.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import parse_exposition

#: Per-request client timeout, seconds.
CLIENT_TIMEOUT = 10.0
#: Longest a daemon may take to print its listening line.
BOOT_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class DaemonError(RuntimeError):
    """The daemon did not come up, or died under the benchmark."""


class TransportError(Exception):
    """A request got no HTTP response: dropped connection or timeout."""


class Daemon:
    """One ``python -m repro serve --port 0 <flags>`` process.

    ``src`` is the directory holding the ``repro`` package; ``log`` is
    the file the daemon's stdout and stderr go to.
    """

    def __init__(self, flags: Sequence[str], src: Path, log: Path) -> None:
        self.flags = list(flags)
        self.src = src
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the daemon; return seconds from spawn to the first
        200 from ``/healthz`` (the benchmark's ``setup_s``)."""
        # Bytecode is cached as for any installed program, so only the
        # first boot in a fresh checkout compiles the sources.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = str(self.src)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"] + self.flags
        self.log.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=subprocess.STDOUT, env=env
            )
        self.host, self.port = self._wait_for_port(started)
        while True:
            try:
                status, _ = self.get("/healthz")
            except (OSError, http.client.HTTPException):
                status = None
            if status == 200:
                return time.perf_counter() - started
            self._check_alive(started)
            time.sleep(0.002)

    def _check_alive(self, started: float) -> None:
        if self.proc.poll() is not None:
            raise DaemonError(
                f"daemon exited with {self.proc.returncode}; see {self.log}"
            )
        if time.perf_counter() - started > BOOT_TIMEOUT:
            raise DaemonError(f"daemon not ready after {BOOT_TIMEOUT}s")

    def _wait_for_port(self, started: float) -> Tuple[str, int]:
        while True:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            self._check_alive(started)
            time.sleep(0.002)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=CLIENT_TIMEOUT
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Dict[str, Any]:
        status, data = self.get(path)
        if status != 200:
            raise DaemonError(f"GET {path} answered {status}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise DaemonError("no VmHWM line in /proc/<pid>/status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """Terminate the daemon, kill it if it lingers, and wait for it.

        SIGTERM, not SIGINT: a process started in the background by a
        shell without job control inherits an ignored SIGINT.  Nothing
        is lost — the daemon writes a request's trace line before it
        sends the response, so once every reply is in, so is the log."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class Client:
    """One keep-alive connection to a daemon, reopened after a drop."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, payload: Dict[str, Any]) -> Tuple[int, Any]:
        """POST ``payload`` to ``/eval``: ``(http_status, parsed_body)``.
        Raises :class:`TransportError` when no response arrives."""
        data = json.dumps(payload).encode("utf-8")
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=CLIENT_TIMEOUT
            )
        try:
            self._conn.request(
                "POST",
                "/eval",
                body=data,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as err:
            self.close()
            raise TransportError(f"{type(err).__name__}: {err}") from err
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, raw.decode("utf-8", errors="replace")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def scrape(daemon: Daemon) -> Dict[str, Dict[str, Any]]:
    """``GET /metrics``, parsed with the exposition reader the repo
    ships for ``repro top``."""
    status, data = daemon.get("/metrics")
    if status != 200:
        raise DaemonError(f"GET /metrics answered {status}")
    return parse_exposition(data.decode("utf-8"))


def boot_times(
    flags: Sequence[str], src: Path, logs: List[Path], gap: float
) -> Tuple[List[float], Daemon]:
    """Boot one daemon per log path, ``gap`` seconds apart, stopping all
    but the last; return every boot's set-up time and the last
    (running) daemon."""
    times = []
    daemon = None
    for i, log in enumerate(logs):
        if i:
            time.sleep(gap)
        daemon = Daemon(flags, src, log)
        try:
            times.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
        if i < len(logs) - 1:
            daemon.stop()
    return times, daemon
