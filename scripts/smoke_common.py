"""Boot and teardown shared by the ``scripts/*_smoke.py`` CI lanes.

Importing this module puts the checkout's ``src/`` first on ``sys.path``,
so a lane runs against the checkout with or without ``PYTHONPATH=src``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(REPO_SRC))

#: Seconds a server gets to report listening, and to exit once signalled.
START_TIMEOUT, STOP_TIMEOUT = 60.0, 15.0


def repro_env(**extra: str) -> dict:
    """The environment every spawned ``repro`` process runs with: the
    checkout's sources first on ``PYTHONPATH``, no inherited chaos plan
    or auth token, then *extra*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_AUTH_TOKEN", None)
    env.update(extra)
    return env


def spawn(command: str, *args: str,
          env: dict | None = None) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` or ``repro route`` (*command*) and wait for
    the ``listening on ADDR`` line both print once bound.

    Returns the process and the first address it listens on; a process
    not listening within :data:`START_TIMEOUT` seconds is killed.
    """
    # Unbuffered: readline() then takes no more than the line, and
    # stop() finds the rest of the output still in the pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", command, *args],
        env=env if env is not None else repro_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, bufsize=0,
    )
    timer = threading.Timer(START_TIMEOUT, proc.kill)  # ends readline()
    timer.start()
    lines = []
    try:
        while line := proc.stdout.readline().decode(errors="replace"):
            lines.append(line)
            match = re.search(r"listening on (\S+)", line)
            if match:
                return proc, match.group(1)
    finally:
        timer.cancel()
    proc.wait()
    proc.stdout.close()
    raise SystemExit(
        f"repro {command} exited {proc.returncode} before listening "
        f"(startup budget {START_TIMEOUT:.0f}s):\n{''.join(lines)}"
    )


def stop(proc: subprocess.Popen | None, *, hard: bool = False,
         check: bool = False) -> None:
    """Stop *proc*: SIGTERM (its graceful drain; SIGKILL when *hard*),
    then SIGKILL if it is still alive :data:`STOP_TIMEOUT` seconds later.

    With *check*, a nonzero exit code fails the lane with whatever the
    process printed.  A process that already exited is just reaped.
    """
    if proc is None or proc.stdout.closed:     # never started, or stopped
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL if hard else signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if check and proc.returncode != 0:
        raise SystemExit(
            f"repro {proc.args[3]} exited {proc.returncode}\n{_unread(proc)}"
        )
    proc.stdout.close()


def _unread(proc: subprocess.Popen) -> str:
    """What *proc* printed after its ``listening`` line, read without
    waiting for EOF: pool workers orphaned by a killed server hold the
    pipe open for as long as they live."""
    os.set_blocking(proc.stdout.fileno(), False)
    out = b""
    while chunk := proc.stdout.read(65536):    # None once the pipe is dry
        out += chunk
    return out.decode(errors="replace")


def outcome_keys(result) -> list[tuple] | None:
    """What must reproduce for one event (None = skip the comparison).

    Status and fingerprint are deterministic facts about the formula; the
    model's literals are not (a different racer or the solo fallback can
    win under chaos), so they are deliberately NOT compared.  A retried
    ``close_session`` may legitimately report ``existed=False`` — the
    documented idempotency caveat — so it only has to succeed.
    """
    if result.kind == "close_session":
        return None
    return [(r.status, r.fingerprint) for r in result.responses]
