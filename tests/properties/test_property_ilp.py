"""Property-based tests for the ILP substrate.

The key cross-checks: our simplex agrees with scipy's HiGHS on random
LPs, and branch-and-bound agrees with brute-force enumeration on random
0-1 programs.
"""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.model import ILPModel
from repro.ilp.presolve import presolve
from repro.ilp.lp_backend import ScipyBackend, SimplexBackend
from repro.ilp.simplex import simplex_solve
from repro.ilp.status import SolveStatus


@st.composite
def binary_models(draw, max_vars=6, max_cons=5):
    """A random 0-1 ILP with small integer coefficients."""
    n = draw(st.integers(2, max_vars))
    m = ILPModel("prop")
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    num_cons = draw(st.integers(1, max_cons))
    for _ in range(num_cons):
        coefs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        if all(c == 0 for c in coefs):
            coefs[0] = 1
        sense = draw(st.sampled_from([Sense.LE, Sense.GE]))
        rhs = draw(st.integers(-4, 6))
        m.add_constraint(
            Constraint({f"x{i}": float(c) for i, c in enumerate(coefs) if c}, sense, rhs)
        )
    obj = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    m.set_objective(
        LinExpr({f"x{i}": float(c) for i, c in enumerate(obj)}),
        draw(st.sampled_from(["max", "min"])),
    )
    return m


def brute_optimum(model):
    """(status, best objective) by enumerating all binary points."""
    names = [v.name for v in model.variables]
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=len(names)):
        point = dict(zip(names, bits))
        if model.is_feasible(point):
            val = model.objective_value(point)
            if best is None:
                best = val
            elif model.is_maximization:
                best = max(best, val)
            else:
                best = min(best, val)
    return best


class TestBranchAndBoundAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(binary_models())
    def test_agreement(self, model):
        expected = brute_optimum(model)
        sol = BranchAndBoundSolver().solve(model)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-6)
            assert model.is_feasible(sol.values)

    @settings(max_examples=25, deadline=None)
    @given(binary_models())
    def test_presolve_preserves_optimum(self, model):
        expected = brute_optimum(model)
        with_pre = BranchAndBoundSolver(use_presolve=True).solve(model)
        without = BranchAndBoundSolver(use_presolve=False).solve(model)
        if expected is None:
            assert with_pre.status is SolveStatus.INFEASIBLE
            assert without.status is SolveStatus.INFEASIBLE
        else:
            assert with_pre.objective == pytest.approx(without.objective, abs=1e-6)


class TestSimplexAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_box_lp(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        c = rng.integers(-4, 5, size=n).astype(float)
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-2, 7, size=m).astype(float)
        bounds = [(0.0, 1.0)] * n
        ours = simplex_solve(c, a, b, bounds=bounds)
        highs = ScipyBackend().solve(c, a, b, None, None, bounds)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        if ref.status == 0:
            assert ours.status is highs.status is SolveStatus.OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)
            assert highs.objective == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 2:
            assert ours.status is highs.status is SolveStatus.INFEASIBLE

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_box_lp_with_equalities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(1, 3))
        c = rng.integers(-4, 5, size=n).astype(float)
        a_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
        b_ub = rng.integers(-2, 7, size=m_ub).astype(float)
        a_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
        b_eq = a_eq @ rng.random(n)  # satisfiable inside the box
        bounds = [(0.0, 1.0)] * n
        ours = SimplexBackend().solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
        highs = ScipyBackend().solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert ours.status is highs.status
        if highs.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(highs.objective, abs=1e-6)


class TestPresolveProperties:
    @settings(max_examples=40, deadline=None)
    @given(binary_models())
    def test_fixings_are_consistent(self, model):
        res = presolve(model)
        if res.status is SolveStatus.OPTIMAL:
            assert model.is_feasible(res.fixed)
        elif res.status is SolveStatus.INFEASIBLE:
            assert brute_optimum(model) is None
