"""Unit tests for the LP backend abstraction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cnf.generators import random_planted_ksat
from repro.core.preserving import build_preserving_encoding
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.cuts import strengthen_with_cuts
from repro.ilp.expr import LinExpr
from repro.ilp.lp_backend import ScipyBackend, SimplexBackend
from repro.ilp.model import ILPModel
from repro.ilp.status import SolveStatus


@pytest.fixture(params=[SimplexBackend(), ScipyBackend()], ids=["simplex", "scipy"])
def backend(request):
    return request.param


class TestBackendsUniformly:
    def test_simple_lp(self, backend):
        res = backend.solve(
            np.array([-1.0, -1.0]),
            np.array([[1.0, 2.0], [3.0, 1.0]]),
            np.array([4.0, 6.0]),
            None,
            None,
            [(0, 10), (0, 10)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-2.8)

    def test_sparse_input(self, backend):
        a = sp.csr_matrix(np.array([[1.0, 1.0]]))
        res = backend.solve(
            np.array([1.0, 1.0]), a, np.array([1.0]), None, None, [(0, 1), (0, 1)]
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_infeasible(self, backend):
        res = backend.solve(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([0.0, -2.0]),  # x <= 0 and x >= 2
            None,
            None,
            [(0, 5)],
        )
        assert res.status is SolveStatus.INFEASIBLE

    def test_empty_inequalities(self, backend):
        res = backend.solve(
            np.array([1.0]),
            sp.csr_matrix((0, 1)),
            np.zeros(0),
            None,
            None,
            [(2, 5)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)

    def test_equality_rows(self, backend):
        # min x + y  s.t.  x + y >= 1,  x - y == 0: both at one half.
        res = backend.solve(
            np.array([1.0, 1.0]),
            sp.csr_matrix(np.array([[-1.0, -1.0]])),
            np.array([-1.0]),
            np.array([[1.0, -1.0]]),
            np.array([0.0]),
            [(0, 1), (0, 1)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([0.5, 0.5])

    def test_equality_rows_only(self, backend):
        res = backend.solve(
            np.array([-1.0, 0.0]), None, None,
            np.array([[1.0, 1.0]]), np.array([1.5]),
            [(0, 1), (0, 1)],
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-1.0)


def pairwise_packing(n: int = 4) -> ILPModel:
    """max sum x_i with x_i + x_j <= 1 for every pair: LP 0.5 each, optimum 1."""
    m = ILPModel()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m.add_constraint(xs[i] + xs[j] <= 1)
    m.set_objective(LinExpr.sum(xs), "max")
    return m


def preserving_model(seed: int) -> ILPModel:
    f, p = random_planted_ksat(10, 42, rng=seed)
    g = f.copy()
    g.add_clause([-v if p[v] else v for v in g.variables[:3]])
    return build_preserving_encoding(g, p).model


@pytest.fixture
def counted(monkeypatch):
    """Count HiGHS LP solves; any own-simplex LP solve fails the test."""
    calls = []
    highs_solve = ScipyBackend.solve

    def counting(self, *args):
        calls.append(self)
        return highs_solve(self, *args)

    def forbidden(self, *args):
        raise AssertionError("the own simplex ran without being asked for")

    monkeypatch.setattr(ScipyBackend, "solve", counting)
    monkeypatch.setattr(SimplexBackend, "solve", forbidden)
    return calls


class TestHighsIsTheDefault:
    def test_branch_and_bound_without_backend_uses_highs(self, counted):
        sol = BranchAndBoundSolver(use_presolve=False).solve(pairwise_packing())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0)
        assert len(counted) == sol.stats.lp_solves > 1

    def test_cuts_without_backend_use_highs(self, counted):
        _, added = strengthen_with_cuts(pairwise_packing())
        assert added >= 1
        assert len(counted) >= 2  # one LP per round, until no cut is violated

    @pytest.mark.parametrize("seed", range(3))
    def test_simplex_ablation_runs_the_whole_search(self, monkeypatch, seed):
        model = preserving_model(seed)
        default = BranchAndBoundSolver().solve(model)

        def forbidden(self, *args):
            raise AssertionError("HiGHS ran inside the own-simplex search")

        monkeypatch.setattr(ScipyBackend, "solve", forbidden)
        ablated = BranchAndBoundSolver(backend=SimplexBackend()).solve(model)
        assert default.status is ablated.status is SolveStatus.OPTIMAL
        assert ablated.objective == pytest.approx(default.objective)
        assert ablated.stats.lp_solves >= 1
        assert ablated.stats.simplex_iterations > 0
        assert default.stats.simplex_iterations == 0  # milp reports no pivots
