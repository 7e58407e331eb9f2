"""Integration tests for the Figure-1 EC flow."""

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.core.enabling import EnablingOptions
from repro.core.flow import ECFlow
from repro.errors import ECError


class TestSolveOriginal:
    def test_plain_solve(self, planted_small):
        f, _ = planted_small
        flow = ECFlow(f.copy())
        a = flow.solve_original()
        assert f.is_satisfied(a)
        assert flow.history[0].kind == "solve"

    def test_enabled_solve(self, planted_small):
        f, _ = planted_small
        flow = ECFlow(f.copy())
        a = flow.solve_original(
            enable=EnablingOptions(mode="objective", support="chained")
        )
        assert f.is_satisfied(a)
        assert flow.enabled
        assert flow.history[0].kind == "enable"

    def test_unsat_original_raises(self):
        from repro.cnf.formula import CNFFormula

        flow = ECFlow(CNFFormula([[1], [-1]]))
        with pytest.raises(ECError):
            flow.solve_original()

    def test_external_solution(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        assert flow.is_current_solution_valid

    def test_external_solution_must_satisfy(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        bad = Assignment({v: not p[v] for v in p})
        if not f.is_satisfied(bad):
            with pytest.raises(ECError):
                flow.set_solution(bad)


class TestResolve:
    def test_resolve_requires_solution(self, planted_small):
        f, _ = planted_small
        flow = ECFlow(f.copy())
        with pytest.raises(ECError):
            flow.resolve("fast")

    def test_unknown_strategy(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        with pytest.raises(ECError):
            flow.resolve("psychic")

    def test_fast_path(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        flow.apply_changes(ChangeSet([AddClause(Clause([-1, -2, -3]))]))
        a = flow.resolve("fast")
        assert flow.formula.is_satisfied(a)
        assert flow.history[-1].kind == "fast"

    def test_preserving_path(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        flow.apply_changes(ChangeSet([AddClause(Clause([-1, -2, -3]))]))
        a = flow.resolve("preserving")
        assert flow.formula.is_satisfied(a)
        assert "preserved" in flow.history[-1].detail


class TestSuccessiveChanges:
    """The paper claims the technique supports successive EC requests."""

    def test_three_rounds(self, planted_medium):
        f, p = planted_medium
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        for round_no, lits in enumerate([[-1, -2, -3], [-4, -5, -6], [-7, -8, -9]]):
            flow.apply_changes(ChangeSet([AddClause(Clause(lits))]))
            strategy = "fast" if round_no % 2 == 0 else "preserving"
            flow.resolve(strategy, time_limit=60)
            assert flow.is_current_solution_valid
        kinds = [s.kind for s in flow.history]
        assert kinds.count("change") == 3

    def test_loosening_changes_keep_solution_valid(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        first_clause = flow.formula.clause(0)
        flow.apply_changes(
            ChangeSet([AddVariable(), RemoveClause(first_clause)])
        )
        assert flow.is_current_solution_valid  # no resolve needed


class TestPortfolioStrategy:
    """ECFlow.resolve(strategy="portfolio") — the engine wired into Fig. 1."""

    def test_end_to_end_with_solver_call_accounting(self, planted_small):
        f, _ = planted_small
        flow = ECFlow(f.copy())
        flow.solve_original()

        # Loosening-only batch: answered by revalidation, zero launches.
        flow.apply_changes(ChangeSet([RemoveClause(flow.formula.clauses[0]),
                                      AddVariable()]))
        a = flow.resolve(strategy="portfolio", jobs=1)
        assert flow.engine is not None
        assert flow.engine.counters()["solver_calls"] == 0
        assert flow.engine.counters()["revalidations"] == 1
        assert flow.formula.is_satisfied(a)
        assert flow.history[-1].kind == "portfolio"
        assert "revalidation" in flow.history[-1].detail

        # A contradicting clause forces a real portfolio re-solve.
        broken = Clause(
            [-v if a.get(v, False) else v for v in sorted(flow.formula.variables)[:3]]
        )
        flow.apply_changes(ChangeSet([AddClause(broken)]))
        try:
            b = flow.resolve(strategy="portfolio")
        except ECError:
            return  # the contradicting clause happened to make it UNSAT
        assert flow.engine.counters()["solver_calls"] > 0
        assert flow.formula.is_satisfied(b)

    def test_unsat_modified_instance_raises(self):
        from repro.cnf.formula import CNFFormula

        flow = ECFlow(CNFFormula([[1, 2]]))
        flow.solve_original()
        flow.apply_changes(ChangeSet([AddClause(Clause([-1])),
                                      AddClause(Clause([-2]))]))
        with pytest.raises(ECError, match="unsatisfiable"):
            flow.resolve(strategy="portfolio", jobs=1)

    def test_engine_reused_across_resolves(self, planted_small):
        f, _ = planted_small
        flow = ECFlow(f.copy())
        flow.solve_original()
        flow.apply_changes(ChangeSet([AddVariable()]))
        flow.resolve(strategy="portfolio", jobs=1)
        engine = flow.engine
        flow.apply_changes(ChangeSet([AddVariable()]))
        flow.resolve(strategy="portfolio")
        assert flow.engine is engine
        assert engine.counters()["solves"] == 2


    def test_stray_portfolio_option_rejected(self, planted_small):
        f, p = planted_small
        flow = ECFlow(f.copy())
        flow.set_solution(p)
        with pytest.raises(ECError, match="unknown portfolio option"):
            flow.resolve(strategy="portfolio", deadine=1.0)  # typo'd on purpose
