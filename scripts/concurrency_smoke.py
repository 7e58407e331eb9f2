#!/usr/bin/env python
"""CI concurrency lane: two loadgen clients must overlap on one daemon.

The acceptance loop of the concurrent-engine work (single-flight table +
shared pool): distinct-fingerprint traffic from independent clients must
actually run concurrently end to end — daemon accept loop, service,
engine, worker pool — not serialize on any layer's big lock.

1. start ``repro serve`` pool-bound (``--quick-slice 0``, ``--jobs 2``)
   on a temp socket, and warm its worker pool with a small burst;
2. run two race-heavy scenario streams *back to back* through it
   (``tenant-churn`` and ``coloring-churn`` — disjoint session
   namespaces, so they can later share the daemon) and sum their walls;
3. run fresh same-shape streams (new seeds, so nothing is answered from
   the verdict cache) through the same daemon *simultaneously* from two
   client processes;
4. aggregate concurrent throughput must beat the serial baseline by
   1.3x — i.e. the two clients' pool round trips genuinely overlapped.

A scheduler hiccup on a loaded CI box can sink one trial, so the
concurrent phase gets up to three attempts (fresh seeds each) and
passes on the first that clears the bar.

Run locally with::

    PYTHONPATH=src python scripts/concurrency_smoke.py [WORKDIR]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from smoke_common import repro_env, spawn, stop

#: Two race-heavy streams with disjoint session namespaces
#: (``churn-*`` vs ``color-*``): concurrent clients never fight over a
#: session name, and distinct seeds keep every fingerprint cold.
SCENARIOS = ("tenant-churn", "coloring-churn")
TENANTS, CHANGES = 6, 8
SPEEDUP_BAR = 1.3
ATTEMPTS = 3


def loadgen(scenario: str, seed: int, sock: Path, out: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "loadgen", scenario,
            "--tenants", str(TENANTS), "--changes", str(CHANGES),
            "--seed", str(seed), "--connect", str(sock), "--out", str(out),
        ],
        env=repro_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def finish(proc: subprocess.Popen, out: Path, context: str) -> dict:
    stdout, stderr = proc.communicate(timeout=300)
    if proc.returncode != 0:
        raise SystemExit(
            f"{context} exited {proc.returncode}\n"
            f"stdout:\n{stdout}\nstderr:\n{stderr}"
        )
    report = json.loads(out.read_text())
    if report["errors"]:
        raise SystemExit(f"{context}: {report['errors']} errored events")
    return report


def main() -> int:
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "concurrency-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    sock = workdir / "serve.sock"

    proc, _ = spawn(
        "serve", "--socket", str(sock), "--jobs", "2", "--quick-slice", "0"
    )
    phases_ok = False
    try:
        # Warm the worker pool (fork + first-task costs land here, not in
        # either measured phase).
        warm = loadgen(SCENARIOS[0], 900, sock, workdir / "warm.json")
        finish(warm, workdir / "warm.json", "warm-up loadgen")

        # Serial baseline: each stream alone, summed walls.
        serial_events = 0
        serial_wall = 0.0
        for i, scenario in enumerate(SCENARIOS):
            out = workdir / f"serial-{scenario}.json"
            report = finish(
                loadgen(scenario, 11 + i, sock, out), out,
                f"serial {scenario}",
            )
            serial_events += report["events"]
            serial_wall += report["wall_time"]
        serial_rps = serial_events / serial_wall
        print(
            f"serial baseline: {serial_events} events in {serial_wall:.2f}s "
            f"= {serial_rps:.0f} rps"
        )

        for attempt in range(ATTEMPTS):
            base_seed = 100 * (attempt + 2)
            outs = [
                workdir / f"concurrent-{attempt}-{scenario}.json"
                for scenario in SCENARIOS
            ]
            procs = [
                loadgen(scenario, base_seed + i, sock, outs[i])
                for i, scenario in enumerate(SCENARIOS)
            ]
            reports = [
                finish(p, out, f"concurrent {scenario}")
                for p, out, scenario in zip(procs, outs, SCENARIOS)
            ]
            events = sum(r["events"] for r in reports)
            wall = max(r["wall_time"] for r in reports)
            aggregate_rps = events / wall
            speedup = aggregate_rps / serial_rps
            print(
                f"concurrent attempt {attempt}: {events} events in "
                f"{wall:.2f}s = {aggregate_rps:.0f} rps "
                f"({speedup:.2f}x serial)"
            )
            if speedup > SPEEDUP_BAR:
                print(
                    f"concurrency smoke: all green "
                    f"({speedup:.2f}x > {SPEEDUP_BAR}x)"
                )
                break
        else:
            raise SystemExit(
                f"two concurrent clients never beat the serial baseline "
                f"by {SPEEDUP_BAR}x in {ATTEMPTS} attempts — "
                f"distinct-fingerprint queries are serializing somewhere"
            )

        phases_ok = True
    finally:
        # Never let teardown mask a phase failure: the daemon's exit
        # status only counts when every phase passed.
        stop(proc, check=phases_ok)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
