"""The portfolio engine on a stream of engineering changes.

Run:  python examples/portfolio_engine.py

Demonstrates the production path of the reproduction: one
:class:`~repro.engine.session.IncrementalSession` absorbing a stream of
specification changes, answering loosening changes by revalidation (no
solver at all), tightening changes by the cached parallel portfolio, and
repeated queries straight from the fingerprint cache.
"""

from repro import IncrementalSession, PortfolioEngine
from repro.cnf.clause import Clause
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause


def main() -> None:
    formula, _witness = random_planted_ksat(40, 140, rng=7)

    # The session is one tenant of the shared engine and will not close
    # it on exit; the engine's own context manager releases the pool.
    with PortfolioEngine(jobs=2) as engine, \
            IncrementalSession(formula, engine=engine) as session:
        model = session.solve(seed=0)
        print("== Original specification ==")
        print(f"solved by: {session.history[-1].source}  "
              f"({formula.num_vars} vars, {formula.num_clauses} clauses)")

        # Change stream: loosen, loosen, tighten.
        session.apply_changes(ChangeSet([RemoveClause(session.formula.clauses[0])]))
        session.resolve(seed=0)
        session.apply_changes(ChangeSet([AddVariable()]))
        session.resolve(seed=0)
        print("\n== Two loosening changes ==")
        print(f"solver runs launched so far: {session.solver_calls} "
              f"(revalidations: {session.revalidations})")

        broken = Clause(
            [-v if model.get(v, False) else v
             for v in sorted(session.formula.variables)[:3]]
        )
        session.apply_changes(ChangeSet([AddClause(broken)]))
        new_model = session.resolve(seed=0)
        print("\n== One tightening change ==")
        print(f"re-solved by: {session.history[-1].source}, "
              f"model valid: {session.formula.is_satisfied(new_model)}")

        # The same instance again, as its packed kernel (what the engine
        # reads): served from the fingerprint cache.
        result = engine.solve(session.formula.packed())
        print("\n== Repeated query ==")
        print(f"source: {result.source} (cache hits: {engine.cache.stats.hits})")

    print("\nOK: portfolio engine end to end.")


if __name__ == "__main__":
    main()
