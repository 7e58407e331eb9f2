"""Adapter contract tests: every backend behind one interface."""

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine.adapters import (
    ADAPTERS,
    BruteForceAdapter,
    DPLLAdapter,
    ExactILPAdapter,
    HeuristicILPAdapter,
    WalkSATAdapter,
    build_adapter,
)
from repro.engine.protocol import SAT, UNKNOWN, UNSAT, Solver
from repro.errors import ReproError

ALL = [
    DPLLAdapter(),
    WalkSATAdapter(),
    BruteForceAdapter(),
    ExactILPAdapter(),
    HeuristicILPAdapter(),
]
COMPLETE = [a for a in ALL if a.complete]


@pytest.fixture(scope="module")
def sat_instance():
    f, _w = random_planted_ksat(12, 36, rng=2)
    return f.packed()


@pytest.fixture(scope="module")
def unsat_instance():
    # pigeonhole-flavoured tiny UNSAT core.
    return CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]]).packed()


class TestContract:
    @pytest.mark.parametrize("adapter", ALL, ids=lambda a: a.name)
    def test_implements_protocol(self, adapter):
        assert isinstance(adapter, Solver)

    @pytest.mark.parametrize("adapter", ALL, ids=lambda a: a.name)
    def test_sat_outcome_carries_verified_model(self, adapter, sat_instance):
        out = adapter.solve_packed(sat_instance, seed=0)
        assert out.status == SAT
        assert sat_instance.is_satisfied(out.assignment)
        assert out.solver == adapter.name

    @pytest.mark.parametrize("adapter", COMPLETE, ids=lambda a: a.name)
    def test_complete_adapters_prove_unsat(self, adapter, unsat_instance):
        out = adapter.solve_packed(unsat_instance, seed=0)
        assert out.status == UNSAT and out.assignment is None

    def test_incomplete_walksat_reports_unknown_on_unsat(self, unsat_instance):
        out = WalkSATAdapter(max_flips=200, max_restarts=1).solve_packed(
            unsat_instance, seed=0
        )
        assert out.status == UNKNOWN

    @pytest.mark.parametrize("adapter", ALL, ids=lambda a: a.name)
    def test_hint_accepted(self, adapter, sat_instance):
        hint = adapter.solve_packed(sat_instance, seed=0).assignment
        out = adapter.solve_packed(sat_instance, seed=0, hint=hint)
        assert out.status == SAT


class TestBudgets:
    def test_walksat_deadline_returns_unknown(self, unsat_instance):
        out = WalkSATAdapter(max_flips=10**9, max_restarts=10**6).solve_packed(
            unsat_instance, deadline=0.01, seed=0
        )
        assert out.status == UNKNOWN

    def test_brute_oversize_returns_unknown(self):
        f, _ = random_planted_ksat(20, 40, rng=1)
        out = BruteForceAdapter(max_vars=10).solve_packed(f.packed())
        assert out.status == UNKNOWN and "exceeds" in out.detail

    def test_dpll_decision_budget_returns_unknown(self):
        f, _ = random_planted_ksat(30, 120, rng=5)
        out = DPLLAdapter(max_decisions=1).solve_packed(f.packed(), seed=0)
        assert out.status in (UNKNOWN, SAT)  # 1 decision may suffice


class TestRegistry:
    def test_build_every_kind(self):
        for kind in ADAPTERS:
            adapter = build_adapter(kind)
            assert isinstance(adapter, Solver)

    def test_one_entry_point_per_adapter(self):
        for cls in ADAPTERS.values():
            assert callable(getattr(cls, "solve_packed", None))
            assert not hasattr(cls, "solve")

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError):
            build_adapter("cplex")
