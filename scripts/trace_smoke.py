#!/usr/bin/env python
"""CI trace lane: one trace id must survive client → router → node → solver.

The acceptance loop of the tracing tier: a sampled solve burst driven
through ``repro route`` over two ``repro serve --trace-log`` nodes must
leave JSONL span logs that reassemble into at least one *complete*
cross-node trace tree — the client root span, the router's
``router.forward`` hop, the owning node's ``daemon.solve`` /
``engine.solve`` stages, and the race's ``pool.wait`` + ``solve``
spans, all under a single trace id with a consistent parent chain.
Then a chaos phase drops the wire twice under an open client span and
the retries must surface as ``retry`` child spans of the same trace.
Finally the ``repro trace`` CLI itself must reconstruct the waterfall
from the same logs.

Node and router tracers run with ``--trace-sample 0``: every span they
emit is *continued* from the driving client's wire context, so a broken
propagation hop shows up as a missing stage, not as a lucky self-rooted
span.

Every process writes its spans under WORKDIR (``node-a-trace.jsonl``,
``node-b-trace.jsonl``, ``router-trace.jsonl``, ``client-trace.jsonl``);
the CI step uploads them on failure.

Run locally with::

    PYTHONPATH=src python scripts/trace_smoke.py [WORKDIR]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from smoke_common import repro_env, spawn, stop

from repro.cnf.generators import random_planted_ksat
from repro.obs.tracing import Tracer, group_traces, load_spans, trace_tree
from repro.service.client import ServiceClient
from repro.service.requests import SolveRequest

BURST = 8

#: The stages a complete cross-node tree must contain, in parent order.
REQUIRED_CHAIN = ("client.solve", "router.forward", "daemon.solve",
                  "engine.solve")
#: The race-level spans that must hang off ``engine.solve``.
REQUIRED_LEAVES = ("pool.wait", "solve")


def spawn_node(workdir: Path, name: str):
    """Boot a traced node; jobs=2 + zero quick slice force the fan-out
    race so every solve produces pool.wait / solve spans."""
    proc, address = spawn(
        "serve",
        "--tcp", "127.0.0.1:0",
        "--jobs", "2", "--quick-slice", "0",
        "--cache", "disk", "--cache-dir", str(workdir / f"cache-{name}"),
        "--log-file", str(workdir / f"node-{name}.log"),
        "--trace-log", str(workdir / f"node-{name}-trace.jsonl"),
        "--trace-sample", "0",
    )
    print(f"node {name}: {address}")
    return proc, address


def spawn_router(workdir: Path, nodes: list[str]):
    proc, address = spawn(
        "route",
        "--listen", "tcp://127.0.0.1:0",
        *[arg for node in nodes for arg in ("--node", node)],
        "--health-interval", "0.3",
        "--log-file", str(workdir / "router.log"),
        "--trace-log", str(workdir / "router-trace.jsonl"),
        "--trace-sample", "0",
    )
    print(f"router: {address}")
    return proc, address


def trace_logs(workdir: Path) -> list[str]:
    return [
        str(workdir / name)
        for name in ("client-trace.jsonl", "router-trace.jsonl",
                     "node-a-trace.jsonl", "node-b-trace.jsonl")
    ]


def _chain_of(bucket: list[dict]) -> dict[str, dict] | None:
    """The required stage chain of one trace, or None if incomplete."""
    by_name: dict[str, dict] = {}
    for span in bucket:
        by_name.setdefault(span["name"], span)
    if any(name not in by_name for name in REQUIRED_CHAIN + REQUIRED_LEAVES):
        return None
    parent = None
    for name in REQUIRED_CHAIN:
        span = by_name[name]
        if parent is not None and span["parent"] != parent["span"]:
            return None
        parent = span
    engine = by_name["engine.solve"]
    for name in REQUIRED_LEAVES:
        if by_name[name]["parent"] != engine["span"]:
            return None
    return by_name


def check_complete_tree(workdir: Path, client_tracer: Tracer) -> None:
    """≥1 burst trace must reassemble into the full cross-node chain."""
    want = {
        s["trace"] for s in client_tracer.spans()
        if s["name"] == "client.solve"
    }
    traces = group_traces(load_spans(trace_logs(workdir)))
    complete = []
    for tid in want:
        chain = _chain_of(traces.get(tid, []))
        if chain is None:
            continue
        if any(chain[name]["dur"] <= 0 for name in REQUIRED_CHAIN):
            continue
        roots, _children = trace_tree(traces[tid])
        if [r["name"] for r in roots] != ["client.solve"]:
            continue
        complete.append(tid)
    print(
        f"trace trees: {len(complete)}/{len(want)} complete "
        f"(chain: {' -> '.join(REQUIRED_CHAIN)} + {REQUIRED_LEAVES})"
    )
    if not complete:
        seen = {
            tid: sorted({s['name'] for s in traces.get(tid, [])})
            for tid in sorted(want)
        }
        raise SystemExit(f"no complete cross-node trace tree — saw {seen!r}")


def check_chaos_retries(workdir: Path) -> None:
    """Two dropped frames under one open trace → two retry child spans.

    ``wire.drop`` fires daemon-side (pre-dispatch), so the phase boots
    its own chaos node: the drops must not poison the burst cluster.
    """
    proc, address = spawn(
        "serve",
        "--tcp", "127.0.0.1:0", "--jobs", "1",
        "--log-file", str(workdir / "node-chaos.log"),
        "--chaos", "seed=7;wire.drop:p=1,count=2",
    )
    try:
        tracer = Tracer(
            service="client", sample=1.0,
            log_path=str(workdir / "client-trace.jsonl"),
        )
        f, _ = random_planted_ksat(12, 36, rng=777)
        with ServiceClient(address, tracer=tracer) as client:
            response = client.solve(SolveRequest(formula=f, seed=0))
            retried = client.retried
    finally:
        stop(proc)
    if response.status not in ("sat", "unsat"):
        raise SystemExit(f"chaos solve returned {response.status!r}")
    if retried != 2:
        raise SystemExit(f"expected 2 wire.drop retries, saw {retried}")
    spans = tracer.spans()
    root = next(s for s in spans if s["name"] == "client.solve")
    retries = [s for s in spans if s["name"] == "retry"]
    bad = [
        s for s in retries
        if s["trace"] != root["trace"] or s["parent"] != root["span"]
    ]
    if len(retries) != 2 or bad:
        raise SystemExit(
            f"retries did not land as child spans of the request trace: "
            f"{retries!r}"
        )
    print(f"chaos retries: ok (2 retry spans under trace {root['trace'][:8]})")


def check_trace_cli(workdir: Path) -> None:
    """``repro trace`` must rebuild the waterfall from the same logs."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "trace", *trace_logs(workdir),
         "--limit", "3"],
        env=repro_env(), capture_output=True, text=True, timeout=60,
    )
    if result.returncode != 0:
        raise SystemExit(f"repro trace failed:\n{result.stdout}{result.stderr}")
    for needle in ("trace ", "client.solve", "daemon.solve"):
        if needle not in result.stdout:
            raise SystemExit(
                f"repro trace output missing {needle!r}:\n{result.stdout}"
            )
    print("repro trace CLI: ok — sample waterfall:")
    for line in result.stdout.splitlines()[:8]:
        print(f"  {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", nargs="?", default="trace-smoke")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    node_a = node_b = router = None
    try:
        node_a, addr_a = spawn_node(workdir, "a")
        node_b, addr_b = spawn_node(workdir, "b")
        router, router_addr = spawn_router(workdir, [addr_a, addr_b])

        # Sampled burst: distinct instances (no cache hits) so every
        # trace reaches the solver race on whichever node owns its key.
        client_tracer = Tracer(
            service="client", sample=1.0,
            log_path=str(workdir / "client-trace.jsonl"),
        )
        with ServiceClient(router_addr, tracer=client_tracer) as client:
            for i in range(BURST):
                f, _ = random_planted_ksat(12, 36, rng=100 + i)
                r = client.solve(SolveRequest(formula=f, seed=0))
                if r.status not in ("sat", "unsat"):
                    raise SystemExit(f"burst solve returned {r.status!r}")
        print(f"burst: {BURST} traced solves through the router")

        # Nodes flush spans as they finish; give stragglers a moment.
        time.sleep(0.5)
        check_complete_tree(workdir, client_tracer)
        check_chaos_retries(workdir)
        check_trace_cli(workdir)
        print("trace smoke: ok")
        return 0
    except BaseException:
        print(
            f"\nFAILED — span logs: {' '.join(trace_logs(workdir))}",
            file=sys.stderr,
        )
        raise
    finally:
        stop(router)
        stop(node_b)
        stop(node_a)


if __name__ == "__main__":
    raise SystemExit(main())
