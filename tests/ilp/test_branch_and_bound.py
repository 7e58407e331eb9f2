"""Unit tests for the exact branch-and-bound solver."""

import itertools
import random

import pytest

from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.expr import LinExpr
from repro.ilp.lp_backend import LPResult, ScipyBackend, SimplexBackend
from repro.ilp.model import ILPModel
from repro.ilp.status import SolveStatus


def knapsack_model(weights, values, capacity):
    m = ILPModel("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(weights))]
    m.add_constraint(
        LinExpr.sum(w * x for w, x in zip(weights, xs)) <= capacity
    )
    m.set_objective(LinExpr.sum(v * x for v, x in zip(values, xs)), "max")
    return m


def brute_knapsack(weights, values, capacity):
    best = 0
    for bits in itertools.product([0, 1], repeat=len(weights)):
        if sum(w * b for w, b in zip(weights, bits)) <= capacity:
            best = max(best, sum(v * b for v, b in zip(values, bits)))
    return best


class TestExactness:
    @pytest.mark.parametrize("seed", range(10))
    def test_knapsack_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = 9
        w = [rng.randint(1, 12) for _ in range(n)]
        v = [rng.randint(1, 12) for _ in range(n)]
        cap = rng.randint(6, 50)
        sol = BranchAndBoundSolver().solve(knapsack_model(w, v, cap))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(brute_knapsack(w, v, cap))

    @pytest.mark.parametrize("backend", [SimplexBackend(), ScipyBackend()])
    def test_backends_agree(self, backend):
        m = knapsack_model([3, 5, 7, 4], [4, 6, 9, 5], 11)
        sol = BranchAndBoundSolver(backend=backend).solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # Optimum: items of weight 7 and 4 (values 9 + 5).
        assert sol.objective == pytest.approx(14.0)

    def test_minimization(self):
        m = ILPModel()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y >= 1)
        m.set_objective(3 * x + 2 * y, "min")
        sol = BranchAndBoundSolver().solve(m)
        assert sol.objective == pytest.approx(2.0)
        assert sol.rounded("y") == 1


class TestStatuses:
    def test_infeasible(self):
        m = ILPModel()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y >= 3)
        m.set_objective(x + 0, "max")
        assert BranchAndBoundSolver().solve(m).status is SolveStatus.INFEASIBLE

    def test_integer_infeasible_lp_feasible(self):
        # 2x == 1 has LP solution x=0.5, no integer one.
        m = ILPModel()
        x = m.add_binary("x")
        m.add_constraint((2 * x).__eq__(1.0))
        m.set_objective(x + 0, "max")
        assert BranchAndBoundSolver().solve(m).status is SolveStatus.INFEASIBLE

    def test_empty_model(self):
        m = ILPModel()
        sol = BranchAndBoundSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL and sol.objective == 0.0

    def test_node_limit_respected(self):
        rng = random.Random(5)
        n = 14
        w = [rng.randint(5, 9) for _ in range(n)]
        v = [rng.randint(5, 9) for _ in range(n)]
        m = knapsack_model(w, v, sum(w) // 2)
        sol = BranchAndBoundSolver(node_limit=1, use_presolve=False).solve(m)
        # One node: either a lucky proven optimum or a limit status.
        assert sol.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.NODE_LIMIT,
        )


class RootOnlyBackend(ScipyBackend):
    """HiGHS for the root LP; every later LP ends unfinished (``ERROR``)."""

    def __init__(self):
        self.calls = 0

    def solve(self, *args):
        self.calls += 1
        if self.calls == 1:
            return super().solve(*args)
        return LPResult(SolveStatus.ERROR)


class TestUnfinishedChildren:
    """A child whose LP did not finish is neither pruned nor a proof."""

    def test_incumbent_stays_unproven(self):
        m = knapsack_model([3, 5, 7, 4], [4, 6, 9, 5], 11)
        backend = RootOnlyBackend()
        sol = BranchAndBoundSolver(backend=backend).solve(m)
        assert backend.calls > 1
        assert sol.status is SolveStatus.FEASIBLE
        assert not sol.status.is_proven
        assert sol.objective <= 14.0 + 1e-9
        assert sol.bound >= 14.0 - 1e-9  # still a valid bound on the optimum 14

    def test_no_incumbent_is_not_infeasible(self):
        # 2a + 3b == 7: the LP optimum a = 3.5 rounds to no integer point,
        # so the search has no incumbent when its children fail.
        m = ILPModel()
        a = m.add_integer("a", 0, 5)
        b = m.add_integer("b", 0, 5)
        m.add_constraint((2 * a + 3 * b).__eq__(7.0))
        m.set_objective(a + 0, "max")
        sol = BranchAndBoundSolver(backend=RootOnlyBackend(), use_presolve=False).solve(m)
        assert sol.status is SolveStatus.ERROR
        assert not sol.status.has_solution
        solved = BranchAndBoundSolver(use_presolve=False).solve(m)
        assert solved.status is SolveStatus.OPTIMAL
        assert solved.rounded("a") == 2


class TestWarmStart:
    def test_feasible_warm_start_becomes_incumbent(self):
        m = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        warm = {"x0": 1.0, "x1": 0.0, "x2": 1.0}  # weight 6, value 8: optimal
        sol = BranchAndBoundSolver().solve(m, warm_start=warm)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0)

    def test_infeasible_warm_start_ignored(self):
        m = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        warm = {"x0": 1.0, "x1": 1.0, "x2": 1.0}  # weight 9 > 6
        sol = BranchAndBoundSolver().solve(m, warm_start=warm)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0)


class TestMixedInteger:
    def test_continuous_variables_stay_fractional(self):
        m = ILPModel()
        x = m.add_binary("x")
        z = m.add_continuous("z", 0, 10)
        m.add_constraint(2 * x + z <= 3.5)
        m.set_objective(x + z, "max")
        sol = BranchAndBoundSolver().solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        # x=0, z=3.5 beats x=1, z=1.5.
        assert sol.objective == pytest.approx(3.5)
        assert sol.value("z") == pytest.approx(3.5)

    def test_general_integer(self):
        m = ILPModel()
        k = m.add_integer("k", 0, 10)
        m.add_constraint(3 * k <= 14)
        m.set_objective(k + 0, "max")
        sol = BranchAndBoundSolver().solve(m)
        assert sol.rounded("k") == 4
