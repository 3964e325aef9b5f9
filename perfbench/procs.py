"""Server process lifecycle and ``/proc`` readings (Linux only).

``ServerProcess`` spawns ``server.py``, times spawn → first healthy
``GET /v1/health``, and on ``stop()`` sends SIGTERM and then *asserts*
that the server and every process it started are gone; nothing after it
is timed until they are.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

from client import get_health

HERE = os.path.dirname(os.path.abspath(__file__))
_TICKS = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0


class ProcessLeak(RuntimeError):
    """A server or pool worker outlived its shutdown."""


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """Every live process below *pid*, by a scan of ``/proc``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    out, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [p for p, pp in parents.items() if pp == parent]
        out.extend(children)
        frontier.extend(children)
    return out


def _identity(pid: int) -> tuple[int, str] | None:
    """(pid, start time): survives pid reuse, unlike the pid alone."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] == "Z":
        return None
    return pid, fields[19]


def alive(identity: tuple[int, str]) -> bool:
    return _identity(identity[0]) == identity


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime of *pids* (not of their children)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of *pid* in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ServerProcess:
    """One ``server.py`` subprocess serving *workload*."""

    def __init__(self, workload: str, *, root: str) -> None:
        self.workload = workload
        self._root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._tracked: list[tuple[int, str]] = []

    def start(self) -> float:
        """Spawn, wait for the first healthy health check; return seconds."""
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--workload", self.workload]
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=self._root, env=env, stdout=subprocess.PIPE,
        )
        try:
            self.port = self._read_port()
            while not get_health(self.port):
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        seconds = time.perf_counter() - started
        self._tracked = [i for i in map(_identity, self.pids()) if i is not None]
        return seconds

    def _read_port(self) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + _START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError(f"{self.workload} server not ready in time")
            byte = os.read(self.proc.stdout.fileno(), 1)
            if not byte:
                raise RuntimeError(f"{self.workload} server exited before READY")
            line += byte
        word, _, port = line.decode().partition(" ")
        if word != "READY":
            raise RuntimeError(f"unexpected server output {line!r}")
        return int(port)

    def pids(self) -> list[int]:
        """The server and its live descendants (the pool workers)."""
        assert self.proc is not None
        return [self.proc.pid, *descendants(self.proc.pid)]

    def worker_pids(self) -> list[int]:
        return self.pids()[1:]

    def stop(self) -> None:
        """SIGTERM, wait, and check nothing the server started survived."""
        proc = self.proc
        if proc is None:
            return
        self._tracked += [i for i in map(_identity, self.pids()) if i is not None]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None
        deadline = time.monotonic() + _STOP_TIMEOUT
        while True:
            left = [i for i in self._tracked if alive(i)]
            if not left:
                break
            if time.monotonic() > deadline:
                for pid, _ in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                raise ProcessLeak(
                    f"{self.workload}: processes {[p for p, _ in left]} "
                    "outlived the server's shutdown"
                )
            time.sleep(0.01)
        self._tracked = []
        if proc.returncode != 0:
            raise RuntimeError(
                f"{self.workload} server exited with code {proc.returncode}"
            )
