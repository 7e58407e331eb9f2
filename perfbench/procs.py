"""Start, watch and stop the program's processes.

A :class:`Layout` is the set of processes one serving workload talks
to: one ``repro serve`` daemon, or two daemons behind a ``repro route``
router.  Every process is started from the checkout's own sources
(``PYTHONPATH=src``), with Unix sockets under the run directory, and is
stopped by SIGTERM (the program's graceful drain), then SIGKILL of
whatever is left of its process tree.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path


#: ``repro serve`` flags of every daemon.  Defaults, except the quick
#: slice: a cold or re-solve CDCL run takes 1-15 ms here, but a host
#: stall can stretch one past the default 50 ms, which starts the worker
#: pool and makes the run incomparable (the path guard then fails it).
#: Half a second keeps the in-process path unless CDCL itself slows 30x.
SERVE_FLAGS = ("--quick-slice", "0.5")


#: Environment every program process runs with.  OpenBLAS otherwise
#: starts a spinning worker thread per vCPU; on two vCPUs shared with the
#: client, runs of one ilp-ec seed then spread by a third in throughput.
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PROGRAM_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_AUTH_TOKEN", None)
    env.pop("REPRO_CHAOS", None)
    return env


def tree(pids) -> set:
    """*pids* and all their live descendants."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    seen: set = set()
    todo = list(pids)
    while todo:
        pid = todo.pop()
        if pid not in seen:
            seen.add(pid)
            todo += children.get(pid, [])
    return seen


def peak_rss_mb(pids) -> float:
    """Summed VmHWM (peak resident set) of *pids* and all their
    descendants, in MB."""
    total_kb = 0
    for pid in tree(pids):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def wait_socket(path: str, proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """Block until *path* accepts a connection (or the process died)."""
    deadline = time.monotonic() + timeout
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"process exited with {proc.returncode} before "
                               f"listening on {path}")
        with socket.socket(socket.AF_UNIX) as probe:
            try:
                probe.connect(path)
                return
            except OSError:
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"nothing listening on {path} after {timeout} s")
        time.sleep(0.002)


class Layout:
    """The program's processes for one serving workload.

    Args:
        root: the checkout root (holds ``src/`` and ``perfbench/``).
        rundir: a directory under *root* for sockets, logs and spans;
            socket paths are kept relative to *root* so they stay under
            the Unix socket length limit wherever the checkout lives.
        nodes: number of ``repro serve`` daemons.
        routed: front the daemons with ``repro route``.
        traced: start each process through ``perfbench/launch.py``, which
            installs the timed wrappers and writes spans at exit.
    """

    def __init__(self, root: Path, rundir: Path, *, nodes: int = 1,
                 routed: bool = False, traced: bool = False, tag: str = "a"):
        self.root = root
        self.rel = rundir.relative_to(root)
        self.nodes = nodes
        self.routed = routed
        self.traced = traced
        self.tag = tag
        self.procs: list[subprocess.Popen] = []
        self.span_files: list[Path] = []
        self._logs: list = []

    def _sock(self, name: str) -> str:
        return str(self.rel / f"{self.tag}-{name}.sock")

    @property
    def node_addresses(self) -> list[str]:
        return [self._sock(f"n{i}") for i in range(self.nodes)]

    @property
    def address(self) -> str:
        """Where the client connects."""
        return self._sock("router") if self.routed else self.node_addresses[0]

    def _spawn(self, proc_label: str, role: str, argv: list[str]) -> subprocess.Popen:
        if self.traced:
            spans = self.root / self.rel / f"{self.tag}-{proc_label.replace(':', '')}.spans"
            self.span_files.append(spans)
            cmd = [sys.executable, "perfbench/launch.py", "--role", role,
                   "--proc", proc_label, "--spans", str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        log = open(self.root / self.rel / f"{self.tag}-{proc_label.replace(':', '')}.log",
                   "w")
        self._logs.append(log)
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=child_env(self.root), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        self.procs.append(proc)
        return proc

    def start(self) -> None:
        """Spawn every process and wait until each one listens.  The
        router starts after its nodes listen: its first health probe
        must find them up, or it routes around them until the next one."""
        daemons = [
            (addr, self._spawn(f"daemon:{i}", "daemon",
                               ["serve", "--socket", addr, *SERVE_FLAGS]))
            for i, addr in enumerate(self.node_addresses)
        ]
        for addr, proc in daemons:
            wait_socket(str(self.root / addr), proc)
        if self.routed:
            argv = ["route", "--listen", self._sock("router")]
            for addr in self.node_addresses:
                argv += ["--node", addr]
            router = self._spawn("router", "router", argv)
            wait_socket(str(self.root / self._sock("router")), router)

    def rss_mb(self) -> float:
        return peak_rss_mb([p.pid for p in self.procs])

    def stop(self) -> None:
        """SIGTERM every process (the program's graceful drain), then
        SIGKILL whatever of their process trees is still alive."""
        left = tree([p.pid for p in self.procs if p.poll() is None])
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        for pid in tree(left) | left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for proc in self.procs:
            proc.wait()
        for log in self._logs:
            log.close()
        self._logs = []
