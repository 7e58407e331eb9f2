#!/usr/bin/env python
"""CI service lane: boot ``repro serve``, run a client round trip, shut down.

The round trip is the acceptance loop of the service layer:

1. start the daemon on a temp socket with the persistent disk cache;
2. open a named session (solve), apply a loosening change (re-solved by
   revalidation — no solver), apply a tightening change (a real
   re-solve);
3. shut the daemon down cleanly and assert exit code 0;
4. start a *second* daemon over the same cache directory and assert the
   original instance comes back as a cross-process cache hit.

The daemon log lands in ``service-smoke/daemon.log`` (uploaded as a CI
artifact on failure).  Run locally with::

    PYTHONPATH=src python scripts/service_smoke.py [WORKDIR]
"""

from __future__ import annotations

import sys
from pathlib import Path

from smoke_common import spawn, stop

from repro.cnf.clause import Clause
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.service.client import ServiceClient
from repro.service.requests import ChangeRequest, SolveRequest


def serve(socket_path: Path, cache_dir: Path, log_path: Path):
    proc, _address = spawn(
        "serve", "--socket", str(socket_path),
        "--cache", "disk", "--cache-dir", str(cache_dir),
        "--jobs", "2", "--log-file", str(log_path),
    )
    return proc


def main() -> int:
    workdir = Path(sys.argv[1] if len(sys.argv) > 1 else "service-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    sock = workdir / "serve.sock"
    cache_dir = workdir / "cache"
    log = workdir / "daemon.log"

    formula, _witness = random_planted_ksat(24, 80, rng=11)

    proc = serve(sock, cache_dir, log)
    with ServiceClient(str(sock)) as client:
        opened = client.solve(SolveRequest(formula=formula, session="ci", seed=0))
        assert opened.status == "sat", opened
        print(f"solve: {opened.status} via {opened.source}")

        loosened = client.change(ChangeRequest(
            "ci",
            ChangeSet([RemoveClause(formula.clauses[0]), AddVariable()]),
            seed=0,
        ))
        assert loosened.source == "revalidation", loosened
        print(f"loosening change: re-solved via {loosened.source}")

        model = opened.assignment
        breaking = Clause([
            -v if model.get(v, False) else v
            for v in sorted(formula.variables)[:3]
        ])
        tightened = client.change(ChangeRequest(
            "ci", ChangeSet([AddClause(breaking)]), seed=0,
        ))
        assert tightened.status in ("sat", "unsat"), tightened
        print(f"tightening change: {tightened.status} via {tightened.source}")
        client.shutdown()
    stop(proc, check=True)
    print("clean shutdown: ok")

    # Restart over the same cache directory: the cross-process hit.
    proc = serve(sock, cache_dir, log)
    with ServiceClient(str(sock)) as client:
        warm = client.solve(SolveRequest(formula=formula, seed=0))
        assert warm.status == "sat", warm
        assert warm.from_cache, "expected a cross-process disk-cache hit"
        stats = client.stats()
        assert stats["engine"]["solver_calls"] == 0, stats
        print(f"cross-process cache hit: ok ({stats['cache']['hits']} hits)")
        client.shutdown()
    stop(proc, check=True)
    print("service smoke: all green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
