#!/usr/bin/env python
"""CI chaos lane: a daemon under an aggressive fault plan must stay correct.

The acceptance loop of the fault-injection work: with workers being
SIGKILLed, cache writes failing and tearing, and the wire dropping,
truncating, and stalling frames, a tenant-churn workload driven through
``repro serve --chaos`` must still finish with every verdict matching a
clean in-process baseline — chaos may cost latency and retries, never
answers.

1. prove the plan itself is deterministic (two injectors over the same
   spec make identical decisions — a failing run's seed replays);
2. compute the expected outcome of every event with a clean in-process
   service (no chaos anywhere);
3. start ``repro serve`` with the fault plan (pool-bound via
   ``--quick-slice 0`` so solves actually cross the chaos surfaces, disk
   cache so the cache points fire) and drive the same events through it
   from concurrent retrying clients;
4. assert: the run completes, zero verdict/fingerprint mismatches
   against the baseline, the error rate stays inside the lane's budget
   (0 for the default lane), the daemon's gauges are balanced, and the
   plan actually fired (a chaos lane that injected nothing is a broken
   lane, not a green one).

The plan spec is written to ``WORKDIR/fault-plan.txt`` before anything
runs, so a CI failure can be replayed verbatim.  ``--aggressive`` (the
nightly lane) scales up the workload and the fault budgets and tolerates
a small residual error rate — budgets are counts, so a burst can exhaust
one request's retries.

Run locally with::

    PYTHONPATH=src python scripts/chaos_smoke.py [WORKDIR] [--aggressive]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from smoke_common import outcome_keys, spawn, stop

from repro.engine.config import EngineConfig
from repro.faults import FaultInjector, FaultPlan
from repro.service.client import ServiceClient
from repro.service.service import SolverService
from repro.workload import (
    build_scenario,
    client_factory,
    inprocess_factory,
    run_events,
)

SCENARIO = "tenant-churn"

#: Fast lane: a taste of every fault point, budgets small enough that
#: the client's default 3 retries always win (so zero errors expected).
FAST = dict(
    tenants=4,
    changes=4,
    concurrency=3,
    allowed_error_rate=0.0,
    spec=(
        "seed={seed};"
        "worker.kill:p=0.05,count=1;"
        "worker.hang:p=0.05,count=1,delay=0.1;"
        "cache.put.io:p=0.3,count=3;"
        "cache.put.torn:p=0.2,count=2;"
        "wire.drop:p=0.08,count=3;"
        "wire.truncate:p=0.06,count=2;"
        "wire.slow:p=0.1,count=6,delay=0.02"
    ),
)

#: Nightly lane: bigger stream, bigger budgets, and a small tolerated
#: residual error rate (fault bursts can outlast one request's retries).
AGGRESSIVE = dict(
    tenants=8,
    changes=10,
    concurrency=4,
    allowed_error_rate=0.02,
    spec=(
        "seed={seed};"
        "worker.kill:p=0.08,count=2;"
        "worker.hang:p=0.08,count=2,delay=0.2;"
        "cache.put.io:p=0.4,count=10;"
        "cache.put.torn:p=0.3,count=6;"
        "wire.drop:p=0.12,count=10;"
        "wire.truncate:p=0.08,count=6;"
        "wire.slow:p=0.15,count=20,delay=0.03"
    ),
)


def check_plan_determinism(spec: str) -> None:
    """Two injectors over one plan must make identical decisions."""
    plan = FaultPlan.from_spec(spec)
    if FaultPlan.from_spec(plan.spec()).spec() != plan.spec():
        raise SystemExit("fault plan spec does not round-trip")
    one, two = FaultInjector(plan), FaultInjector(plan)
    for point in plan.points:
        seq1 = [one.fire(point.name) is not None for _ in range(256)]
        seq2 = [two.fire(point.name) is not None for _ in range(256)]
        if seq1 != seq2:
            raise SystemExit(
                f"fault point {point.name} is not deterministic"
            )
    print(f"plan determinism: ok ({len(plan.points)} points x 256 decisions)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", nargs="?", default="chaos-smoke")
    parser.add_argument("--aggressive", action="store_true",
                        help="nightly lane: bigger stream, bigger fault budgets")
    parser.add_argument("--seed", type=int, default=42,
                        help="plan + scenario seed (reprints on failure)")
    args = parser.parse_args()
    lane = AGGRESSIVE if args.aggressive else FAST

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = lane["spec"].format(seed=args.seed)
    # First thing on disk: the exact plan, so any failure is replayable.
    (workdir / "fault-plan.txt").write_text(spec + "\n")
    print(f"fault plan: {spec}")

    check_plan_determinism(spec)

    events = build_scenario(
        SCENARIO, seed=args.seed,
        tenants=lane["tenants"], changes=lane["changes"],
    )
    print(f"scenario: {SCENARIO}, {len(events)} events")

    # Clean in-process baseline: the ground truth for every verdict.
    with SolverService(EngineConfig(jobs=2)) as service:
        baseline, wall = run_events(events, inprocess_factory(service))
    failed = [r for r in baseline if not r.ok]
    if failed:
        raise SystemExit(
            f"baseline run failed {len(failed)} events "
            f"(first: {failed[0].error})"
        )
    expected = [outcome_keys(r) for r in baseline]
    print(f"baseline: {len(events)} events in {wall:.2f}s, all ok")

    sock = workdir / "serve.sock"
    proc, _ = spawn(
        "serve", "--socket", str(sock),
        "--jobs", "2", "--quick-slice", "0",
        "--cache", "disk", "--cache-dir", str(workdir / "cache"),
        "--log-file", str(workdir / "daemon.log"),
        "--chaos", spec,
    )
    phases_ok = False
    try:
        results, wall = run_events(
            events, client_factory(str(sock)),
            concurrency=lane["concurrency"],
        )
        errors = [r for r in results if not r.ok]
        mismatches = []
        for r, want in zip(results, expected):
            if not r.ok or want is None:
                continue
            got = outcome_keys(r)
            if got != want:
                mismatches.append(
                    f"event {r.index} ({r.kind}): {got!r} != {want!r}"
                )
        print(
            f"chaos run: {len(events)} events in {wall:.2f}s, "
            f"{len(errors)} errors, {len(mismatches)} mismatches"
        )
        for line in mismatches[:10]:
            print(f"  mismatch: {line}")
        if mismatches:
            raise SystemExit(
                f"{len(mismatches)} wrong verdicts under chaos "
                f"(plan: {spec})"
            )
        allowed = int(lane["allowed_error_rate"] * len(events))
        if len(errors) > allowed:
            detail = "; ".join(
                f"event {r.index} ({r.kind}): {r.error}" for r in errors[:5]
            )
            raise SystemExit(
                f"{len(errors)} errored events exceeds the lane budget "
                f"({allowed}) — {detail}"
            )

        with ServiceClient(str(sock)) as client:
            health = client.health()
            frame = client.stats_frame()
        fired = {
            name: point["fired"]
            for name, point in health["faults"]["points"].items()
        }
        print(f"daemon-side faults fired: {fired}")
        if not any(fired[n] for n in fired if n.startswith(("wire.", "cache."))):
            raise SystemExit(
                "the plan never fired a wire/cache fault — the chaos lane "
                "is not exercising anything (budgets too small for this "
                "workload?)"
            )
        pool = health["engine"]["pool"]
        print(
            f"pool: generation {pool['generation']}, "
            f"{pool['solo_fallbacks']} solo fallbacks; "
            f"cache: degraded={health['engine']['cache']['degraded']}, "
            f"errors={health['engine']['cache']['errors']}"
        )
        for gauge in ("queued", "inflight"):
            if frame.get(gauge, 0) != 0:
                raise SystemExit(
                    f"gauge {gauge!r} = {frame[gauge]} after the run — "
                    f"a failure path leaked a slot"
                )
        print("chaos smoke: all green")
        phases_ok = True
    finally:
        # Never let teardown mask a phase failure: the daemon's exit
        # status only counts when every phase passed.
        stop(proc, check=phases_ok)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
