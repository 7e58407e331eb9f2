"""The SolverService facade: typed requests, tenants, a daemon round trip.

Run:  python examples/solver_service.py

Demonstrates the serving path of the reproduction: one
:class:`~repro.service.SolverService` hosting several named incremental
sessions over a single shared engine, an async submission, and the same
service exposed through an in-process ``repro serve`` daemon + client
pair speaking packed wire bytes over a Unix socket.
"""

import tempfile
from pathlib import Path

from repro import (
    ChangeRequest,
    EngineConfig,
    ServiceClient,
    SolveRequest,
    SolverService,
)
from repro.cnf.clause import Clause
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.service.daemon import ServiceDaemon


def main() -> None:
    print("== Multi-tenant service ==")
    with SolverService(EngineConfig(jobs=1)) as service:
        # Two tenants, one engine, one cache.
        for tenant, rng in (("cpu-team", 3), ("dsp-team", 4)):
            formula, _ = random_planted_ksat(30, 100, rng=rng)
            response = service.solve(
                SolveRequest(formula=formula, session=tenant, seed=0)
            )
            print(f"{tenant}: {response.status} via {response.source}")

        # An EC stream against one tenant: loosen (revalidated), tighten.
        session = service.session("cpu-team")
        loosened = service.change(ChangeRequest(
            "cpu-team",
            ChangeSet([RemoveClause(session.formula.clauses[0]), AddVariable()]),
            seed=0,
        ))
        print(f"cpu-team loosening: via {loosened.source} "
              f"(regime: {loosened.regime})")
        model = session.assignment
        breaking = Clause([
            -v if model.get(v, False) else v
            for v in sorted(session.formula.variables)[:3]
        ])
        tightened = service.change(ChangeRequest(
            "cpu-team", ChangeSet([AddClause(breaking)]), seed=0,
        ))
        print(f"cpu-team tightening: {tightened.status} via {tightened.source}")

        # Async submission: enqueue, then collect.
        extra, _ = random_planted_ksat(20, 66, rng=9)
        pending = service.submit(SolveRequest(formula=extra, seed=0))
        print(f"submitted query: {pending.result().status} "
              f"(engine races so far: {service.engine.counters()['races']})")

    print("\n== Daemon round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        socket_path = str(Path(tmp) / "svc.sock")
        daemon = ServiceDaemon(
            socket_path, SolverService(EngineConfig(jobs=1))
        )
        daemon.start()
        formula, _ = random_planted_ksat(24, 80, rng=7)
        with ServiceClient(socket_path) as client:
            first = client.solve(SolveRequest(formula=formula, seed=0))
            again = client.solve(SolveRequest(formula=formula, seed=0))
            print(f"first: {first.status} via {first.source}")
            print(f"again: {again.status} via {again.source} "
                  f"(from_cache: {again.from_cache})")
            client.shutdown()

    print("\nOK: solver service end to end.")


if __name__ == "__main__":
    main()
