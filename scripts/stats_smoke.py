#!/usr/bin/env python
"""CI observability lane: boot ``repro serve``, load it, read live stats.

The acceptance loop of the observability layer:

1. start the daemon on a temp socket (with its per-second monitor);
2. drive a short ``repro loadgen --connect`` burst through it;
3. ``repro stats --json --connect`` must return a well-formed frame
   whose windowed rps is nonzero (the monitor's ring buffer remembers
   the burst even though it already ended) with a populated
   log-bucketed latency histogram;
4. ``repro stats --watch --json --frames 2`` must stream two frames
   over the subscribe op and exit cleanly;
5. shut the daemon down and assert exit code 0.

Run locally with::

    PYTHONPATH=src python scripts/stats_smoke.py [WORKDIR]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from smoke_common import repro_env, spawn, stop


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=repro_env(), capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc.stdout


#: Keys every frame must carry (build_frame's wire contract).
FRAME_KEYS = {
    "ts", "uptime", "interval", "rps", "hit_rate",
    "requests", "solves", "cache_hits", "races", "errors",
    "inflight", "queued", "sessions", "latency",
}


def check_frame(frame: dict, context: str) -> None:
    missing = FRAME_KEYS - set(frame)
    assert not missing, f"{context}: frame missing keys {sorted(missing)}"
    assert frame["interval"] > 0, f"{context}: nonpositive interval"
    assert frame["uptime"] >= 0, f"{context}: negative uptime"
    latency = frame["latency"]
    assert latency["p50"] <= latency["p99"] <= latency["max"] or (
        latency["count"] == 0
    ), f"{context}: non-monotone latency summary {latency}"


def main() -> int:
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "stats-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    sock = workdir / "serve.sock"
    log = workdir / "daemon.log"

    proc, _ = spawn(
        "serve", "--socket", str(sock), "--jobs", "2", "--log-file", str(log)
    )
    phases_ok = False
    try:
        run_cli(
            "loadgen", "sat-mixed", "--tenants", "2", "--changes", "4",
            "--concurrency", "2", "--connect", str(sock),
        )
        print("loadgen burst: ok")

        out = run_cli("stats", "--json", "--connect", str(sock))
        frame = json.loads(out)
        check_frame(frame, "one-shot")
        assert frame["rps"] > 0, f"expected nonzero windowed rps: {frame}"
        assert frame["requests"] > 0, f"no requests in the window: {frame}"
        hist = frame["latency_histogram"]
        assert hist["count"] > 0 and hist["buckets"], hist
        assert hist["count"] == sum(n for _, n in hist["buckets"]), hist
        print(
            f"one-shot frame: ok ({frame['rps']:.1f} rps over "
            f"{frame['window']:.0f}s, {hist['count']} latency samples)"
        )

        out = run_cli(
            "stats", "--watch", "--json", "--frames", "2",
            "--interval", "0.2", "--connect", str(sock),
        )
        frames = [json.loads(line) for line in out.splitlines() if line]
        assert len(frames) == 2, f"expected 2 watch frames, got {len(frames)}"
        for i, watched in enumerate(frames):
            check_frame(watched, f"watch[{i}]")
        print("watch stream: ok (2 frames)")

        phases_ok = True
    finally:
        stop(proc, check=phases_ok)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert any(r["event"] == "op" for r in records), "no op records logged"
    print("clean shutdown + structured log: ok")
    print("stats smoke: all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
