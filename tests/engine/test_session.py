"""IncrementalSession: the acceptance-criterion tests for incremental EC.

The headline assertion: a loosening-only ChangeSet is answered from
revalidation without invoking any solver, verified by counting solver
launches.
"""

import pytest

from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat, unsat_parity_pair
from repro.core.change import (
    AddClause,
    AddVariable,
    ChangeSet,
    RemoveClause,
    RemoveVariable,
)
from repro.engine.config import SolverConfig
from repro.engine.engine import PortfolioEngine
from repro.engine.session import IncrementalSession
from repro.errors import ECError


def _breaking_clause(formula, model, width=2):
    """A clause every literal of which is false under *model*."""
    lits = []
    for var in formula.variables:
        if model.is_assigned(var):
            lits.append(-var if model[var] else var)
        if len(lits) == width:
            break
    return Clause(lits)


@pytest.fixture
def session():
    f, _ = random_planted_ksat(20, 70, rng=8)
    with IncrementalSession(f, jobs=1) as s:
        yield s


class TestLooseningFastPath:
    def test_loosening_changeset_answered_without_any_solver(self, session):
        session.solve(seed=0)
        removed = session.formula.clauses[0]
        regime = session.apply_changes(
            ChangeSet([RemoveClause(removed), AddVariable()])
        )
        assert regime == "loosening"
        calls_before = session.solver_calls
        model = session.resolve(seed=0)
        assert session.solver_calls == calls_before          # zero launches
        assert session.history[-1].source == "revalidation"
        assert session.formula.is_satisfied(model)

    def test_chain_of_loosening_changes_never_solves(self, session):
        session.solve(seed=0)
        calls_before = session.solver_calls
        for _ in range(5):
            victim = session.formula.clauses[0]
            session.apply_changes(ChangeSet([RemoveClause(victim)]))
            session.resolve(seed=0)
        assert session.solver_calls == calls_before
        assert session.revalidations == 5


class TestTightening:
    def test_breaking_clause_triggers_resolve(self):
        with IncrementalSession(CNFFormula([[1, 2], [3, 4]]), jobs=1) as s:
            model = s.solve(seed=0)
            # Demand that v1 or v3 differ from the current model: breaks
            # the model, but the instance stays satisfiable by flipping v1.
            breaking = Clause(
                [-1 if model.get(1, False) else 1, -3 if model.get(3, False) else 3]
            )
            regime = s.apply_changes(ChangeSet([AddClause(breaking)]))
            assert regime == "tightening"
            calls_before = s.solver_calls
            new_model = s.resolve(seed=0)
            assert s.solver_calls > calls_before       # a real re-solve ran
            assert s.formula.is_satisfied(new_model)

    def test_harmless_tightening_revalidates_in_o_clauses(self, session):
        model = session.solve(seed=0)
        # A clause the current model already satisfies.
        var = next(iter(session.formula.variables))
        lit = var if model.get(var, False) else -var
        session.apply_changes(ChangeSet([AddClause(Clause([lit]))]))
        calls_before = session.solver_calls
        session.resolve(seed=0)
        assert session.solver_calls == calls_before
        assert session.history[-1].source == "revalidation"

    def test_remove_variable_is_tightening(self, session):
        session.solve(seed=0)
        var = next(iter(session.formula.variables))
        regime = session.apply_changes(ChangeSet([RemoveVariable(var)]))
        assert regime == "tightening"

    def test_unsat_after_tightening_raises(self):
        with IncrementalSession(CNFFormula([[1, 2]]), jobs=1) as s:
            s.solve()
            s.apply_changes(
                ChangeSet([AddClause(Clause([-1])), AddClause(Clause([-2]))])
            )
            with pytest.raises(ECError, match="unsatisfiable"):
                s.resolve()

    def test_failed_resolve_keeps_the_solution_suspect(self):
        # An UNSAT re-solve must not settle the pending tightening: a
        # later resolve has to re-check (and fail again), never serve
        # the stale pre-change model as a valid solution.
        with IncrementalSession(CNFFormula([[1, 2]]), jobs=1) as s:
            s.solve()
            s.apply_changes(
                ChangeSet([AddClause(Clause([-1])), AddClause(Clause([-2]))])
            )
            with pytest.raises(ECError, match="unsatisfiable"):
                s.resolve()
            with pytest.raises(ECError, match="unsatisfiable"):
                s.resolve()               # still unsatisfiable, still raises
            # ... and a loosening change that does NOT fix the conflict
            # must go through a real re-check, not the O(1) fast path.
            s.apply_changes(ChangeSet([AddVariable()]))
            with pytest.raises(ECError, match="unsatisfiable"):
                s.resolve()


class TestTighteningResolvePath:
    """The re-solve path: CDCL leads, DPLL backstops, UNSAT surfaces."""

    def test_tightening_resolve_won_by_cdcl_lead(self, session):
        model = session.solve(seed=0)
        session.apply_changes(
            ChangeSet([AddClause(_breaking_clause(session.formula, model))])
        )
        calls_before = session.solver_calls
        new_model = session.resolve(seed=0)
        assert session.solver_calls > calls_before
        # The session promotes CDCL to the lead slot on tightening races,
        # and the winner's name is surfaced in the history.
        assert session.history[-1].source == "cdcl"
        assert session.formula.is_satisfied(new_model)

    def test_cdcl_budget_exhaustion_falls_back_to_dpll(self):
        # A CDCL configured with a 1-conflict budget cannot refute the
        # parity contradiction; the complete DPLL backstop must still
        # deliver the UNSAT proof (not an "undecided" error).
        f, witness = random_planted_ksat(12, 30, rng=21)
        configs = [
            SolverConfig.make("cdcl", "cdcl", max_conflicts=1),
            SolverConfig.make("dpll", "dpll"),
        ]
        engine = PortfolioEngine(configs=configs, jobs=1)
        with IncrementalSession(f, engine=engine) as s:
            s.solve(seed=0)
            hard = unsat_parity_pair(8, rng=2)
            shift = s.formula.max_var
            for cl in hard.clauses:
                s.apply_changes(
                    ChangeSet([AddClause(Clause([
                        l + shift if l > 0 else l - shift for l in cl.literals
                    ]))])
                )
            with pytest.raises(ECError, match="unsatisfiable"):
                s.resolve(seed=0)

    def test_successive_tightening_chain_resolves_each_step(self, session):
        model = session.solve(seed=0)
        for _ in range(3):
            session.apply_changes(
                ChangeSet([AddClause(_breaking_clause(session.formula, model))])
            )
            model = session.resolve(seed=0)
            assert session.formula.is_satisfied(model)
        regimes = [s.regime for s in session.history if s.kind == "resolve"]
        assert regimes == ["tightening"] * 3

    def test_tightening_verdict_shared_via_engine_cache(self):
        # A second session over the same engine re-deriving the tightened
        # instance is answered by the fingerprint cache, not a new race.
        f, _ = random_planted_ksat(16, 50, rng=9)
        engine = PortfolioEngine(jobs=1)
        with IncrementalSession(f, engine=engine) as a:
            model = a.solve(seed=0)
            a.apply_changes(
                ChangeSet([AddClause(_breaking_clause(a.formula, model))])
            )
            a.resolve(seed=0)
            modified = a.formula.copy()
            calls = engine.counters()["solver_calls"]
            b = IncrementalSession(modified, engine=engine)
            b.solve(seed=0)
            assert engine.counters()["solver_calls"] == calls
            assert b.history[-1].source == "cache"


class TestLifecycle:
    def test_resolve_without_solve_raises(self, session):
        with pytest.raises(ECError, match="starting solution"):
            session.resolve()

    def test_original_formula_not_aliased(self):
        f, _ = random_planted_ksat(10, 30, rng=3)
        clauses_before = f.num_clauses
        with IncrementalSession(f, jobs=1) as s:
            s.solve()
            s.apply_changes(ChangeSet([RemoveClause(s.formula.clauses[0])]))
        assert f.num_clauses == clauses_before

    def test_history_records_regimes(self, session):
        session.solve(seed=0)
        session.apply_changes(ChangeSet([AddVariable()]))
        session.resolve(seed=0)
        kinds = [(step.kind, step.regime) for step in session.history]
        assert kinds == [("solve", ""), ("change", "loosening"),
                         ("resolve", "loosening")]


class TestIdempotentClose:
    """Double shutdown must be safe, and shared pools must survive a
    tenant leaving (the multi-tenant serving contract)."""

    def test_session_close_then_exit_is_safe(self):
        f, _ = random_planted_ksat(10, 30, rng=3)
        with IncrementalSession(f, jobs=1) as s:
            s.solve(seed=0)
            s.close()                     # explicit close inside the with
        s.close()                         # ... and once more for luck

    def test_engine_close_then_exit_is_safe(self):
        with PortfolioEngine(jobs=1) as engine:
            engine.close()
        engine.close()
        assert engine.closed

    def test_pool_double_shutdown_guarded(self):
        # A real pool (jobs=2): close twice, then __exit__ again.
        engine = PortfolioEngine(jobs=2)
        engine.portfolio.warm_up()
        engine.close()
        engine.close()
        engine.__exit__(None, None, None)

    def test_session_over_shared_engine_does_not_close_it(self):
        f, _ = random_planted_ksat(10, 30, rng=3)
        g, _ = random_planted_ksat(10, 30, rng=4)
        engine = PortfolioEngine(jobs=1)
        with IncrementalSession(f, engine=engine) as a:
            a.solve(seed=0)
        # Tenant a left; the shared engine still serves tenant b.
        assert not engine.closed
        with IncrementalSession(g, engine=engine) as b:
            assert engine.solve(g.packed(), seed=0).status == "sat"
            b.solve(seed=0)
        engine.close()
        assert engine.closed

    def test_session_close_releases_private_engine(self):
        f, _ = random_planted_ksat(10, 30, rng=3)
        s = IncrementalSession(f, jobs=1)
        s.solve(seed=0)
        engine = s.engine
        s.close()
        assert engine.closed
