"""Exact 0-1 / mixed-integer search: LP-based best-first branch and bound.

This is the reproduction's stand-in for CPLEX's MIP solver.  Design:

* best-first node selection on the LP relaxation bound (falls back to the
  paper's observation that EC instances are "non-trivially smaller", so
  proving optimality on them is cheap);
* most-fractional branching with a deterministic tie-break;
* a rounding + greedy-repair primal heuristic at every node to find
  incumbents early;
* optional warm start: EC always has the previous solution available, and
  feeding it in gives the search an immediate incumbent — this is exactly
  why the paper's fast/preserving EC re-solves are cheap;
* pluggable LP backend: HiGHS by default, the own simplex as the
  ablation variant and test oracle (:mod:`repro.ilp.lp_backend`).
"""

from __future__ import annotations

import heapq
import itertools
import time

import numpy as np

from repro.errors import ModelError
from repro.ilp.lp_backend import LPBackend, ScipyBackend
from repro.ilp.model import ILPModel
from repro.ilp.presolve import presolve
from repro.ilp.solution import Solution, SolveStats
from repro.ilp.status import SolveStatus

_INT_TOL = 1e-6


class BranchAndBoundSolver:
    """Configurable exact solver for bounded (mixed) integer programs.

    Args:
        backend: LP relaxation backend; HiGHS (:class:`ScipyBackend`) if
            None.
        node_limit: maximum number of expanded nodes before giving up.
        gap_tol: absolute optimality gap at which search stops.
        use_presolve: run :func:`repro.ilp.presolve.presolve` first.
        time_limit: wall-clock budget in seconds (None = unlimited).
    """

    def __init__(
        self,
        backend: LPBackend | None = None,
        node_limit: int = 200_000,
        gap_tol: float = 1e-6,
        use_presolve: bool = True,
        time_limit: float | None = None,
    ):
        self.backend = backend
        self.node_limit = node_limit
        self.gap_tol = gap_tol
        self.use_presolve = use_presolve
        self.time_limit = time_limit

    # ------------------------------------------------------------------
    def solve(
        self,
        model: ILPModel,
        warm_start: dict[str, float] | None = None,
    ) -> Solution:
        """Solve *model* to proven optimality (bounds permitting).

        Args:
            warm_start: optional full variable assignment used as the
                initial incumbent if it is feasible (infeasible warm starts
                are silently ignored — EC hands over stale solutions on
                purpose).
        """
        t0 = time.perf_counter()
        stats = SolveStats()
        work_model = model
        fixed: dict[str, float] = {}
        if self.use_presolve:
            pres = presolve(model)
            stats.presolve_fixed = len(pres.fixed)
            if pres.status is SolveStatus.INFEASIBLE:
                stats.wall_time = time.perf_counter() - t0
                return Solution(SolveStatus.INFEASIBLE, stats=stats)
            if pres.status is SolveStatus.OPTIMAL:
                values = pres.fixed
                if not model.is_feasible(values):
                    stats.wall_time = time.perf_counter() - t0
                    return Solution(SolveStatus.INFEASIBLE, stats=stats)
                stats.wall_time = time.perf_counter() - t0
                return Solution(
                    SolveStatus.OPTIMAL,
                    objective=model.objective_value(values),
                    values=values,
                    stats=stats,
                )
            work_model = pres.model
            fixed = pres.fixed

        solution = self._branch_and_bound(work_model, warm_start, stats, t0)
        if solution.status.has_solution and fixed:
            full = dict(fixed)
            full.update(solution.values)
            solution.values = full
            solution.objective = model.objective_value(full)
        stats.wall_time = time.perf_counter() - t0
        return solution

    # ------------------------------------------------------------------
    def _branch_and_bound(
        self,
        model: ILPModel,
        warm_start: dict[str, float] | None,
        stats: SolveStats,
        t0: float,
    ) -> Solution:
        n = model.num_vars
        if n == 0:
            return Solution(SolveStatus.OPTIMAL, objective=0.0, values={})
        names = [v.name for v in model.variables]
        c_orig = model.objective_vector()
        # Internally always minimize.
        sign = -1.0 if model.is_maximization else 1.0
        c = sign * c_orig
        a_ub, b_ub, a_eq, b_eq = model.constraint_matrices()
        base_lb = np.array([v.lb for v in model.variables])
        base_ub = np.array([v.ub for v in model.variables])
        int_mask = model.integer_mask()
        backend = self.backend or ScipyBackend()

        incumbent_x: np.ndarray | None = None
        incumbent_val = np.inf  # minimized objective

        def try_incumbent(x: np.ndarray) -> None:
            nonlocal incumbent_x, incumbent_val
            values = {names[i]: float(x[i]) for i in range(n)}
            if model.is_feasible(values, tol=1e-6):
                val = float(c @ x)
                if val < incumbent_val - 1e-12:
                    incumbent_val = val
                    incumbent_x = x.copy()

        if warm_start is not None:
            try:
                x0 = np.array([float(warm_start[nm]) for nm in names])
            except KeyError:
                x0 = None
            if x0 is not None:
                try_incumbent(x0)

        if incumbent_x is None and bool(np.all(int_mask)) and np.all(
            (base_lb >= -1e-9) & (base_ub <= 1 + 1e-9)
        ):
            # Pure 0-1 model with no usable warm start: kick-start the
            # incumbent with a short iterative-improvement run so a
            # time/node-limited search still returns a feasible point.
            from repro.ilp.heuristic import HeuristicILPSolver

            kick = HeuristicILPSolver(
                max_flips=min(20_000, 200 * n + 500), max_restarts=1, seed=0,
                stop_on_first_feasible=True,
            ).solve(model)
            stats.heuristic_moves += kick.stats.heuristic_moves
            if kick.status.has_solution:
                try_incumbent(np.array([kick.values[nm] for nm in names]))

        def solve_lp(lb: np.ndarray, ub: np.ndarray):
            nonlocal backend
            stats.lp_solves += 1
            res = backend.solve(c, a_ub, b_ub, a_eq, b_eq, list(zip(lb, ub)))
            if res.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.ERROR) and not isinstance(
                backend, ScipyBackend
            ):
                # The lightweight simplex stalled (degenerate relaxation);
                # switch this search permanently to the HiGHS backend.
                backend = ScipyBackend()
                res = backend.solve(c, a_ub, b_ub, a_eq, b_eq, list(zip(lb, ub)))
            stats.simplex_iterations += res.iterations
            return res

        root = solve_lp(base_lb, base_ub)
        if root.status is SolveStatus.INFEASIBLE:
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        if root.status is SolveStatus.UNBOUNDED:
            return Solution(SolveStatus.UNBOUNDED, stats=stats)
        if root.status not in (SolveStatus.OPTIMAL,):
            return Solution(SolveStatus.ERROR, stats=stats)

        counter = itertools.count()
        heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
        heapq.heappush(heap, (root.objective, next(counter), base_lb, base_ub, root.x))
        best_bound = root.objective
        # Lowest bound over subtrees whose LP did not finish: they are
        # neither pruned nor searched, so optimality stays unproven.
        open_bound = np.inf

        while heap:
            if stats.nodes >= self.node_limit:
                break
            if self.time_limit is not None and time.perf_counter() - t0 > self.time_limit:
                break
            bound, _, lb, ub, x = heapq.heappop(heap)
            best_bound = bound
            if bound >= incumbent_val - self.gap_tol:
                break  # best-first: every remaining node is dominated
            stats.nodes += 1

            frac = np.where(int_mask, np.abs(x - np.round(x)), 0.0)
            branch_var = int(np.argmax(frac))
            if frac[branch_var] <= _INT_TOL:
                # Integral LP optimum at this node.
                try_incumbent(np.where(int_mask, np.round(x), x))
                continue

            # Primal heuristic: round-and-check.
            rounded = np.where(int_mask, np.round(x), x)
            rounded = np.clip(rounded, lb, ub)
            try_incumbent(rounded)

            floor_val = np.floor(x[branch_var])
            for lo_add, hi_add in (
                (None, floor_val),            # x_j <= floor
                (floor_val + 1.0, None),      # x_j >= ceil
            ):
                child_lb, child_ub = lb.copy(), ub.copy()
                if lo_add is not None:
                    child_lb[branch_var] = max(child_lb[branch_var], lo_add)
                if hi_add is not None:
                    child_ub[branch_var] = min(child_ub[branch_var], hi_add)
                if child_lb[branch_var] > child_ub[branch_var] + 1e-12:
                    continue
                res = solve_lp(child_lb, child_ub)
                if res.status is SolveStatus.INFEASIBLE:
                    continue  # infeasible child is pruned
                if res.status is not SolveStatus.OPTIMAL:
                    open_bound = min(open_bound, bound)
                    continue
                if res.objective >= incumbent_val - self.gap_tol:
                    continue  # bound-dominated
                heapq.heappush(
                    heap,
                    (res.objective, next(counter), child_lb, child_ub, res.x),
                )

        unfinished = open_bound < incumbent_val - self.gap_tol
        exhausted = not unfinished and (
            not heap
            or (incumbent_x is not None and best_bound >= incumbent_val - self.gap_tol)
        )
        best_bound = min(best_bound, open_bound)
        if incumbent_x is None:
            if exhausted and stats.nodes < self.node_limit:
                return Solution(SolveStatus.INFEASIBLE, stats=stats)
            status = SolveStatus.ERROR if unfinished else SolveStatus.NODE_LIMIT
            return Solution(status, stats=stats, bound=sign * best_bound)
        values = {names[i]: float(incumbent_x[i]) for i in range(n)}
        # Snap integers exactly.
        for i in range(n):
            if int_mask[i]:
                values[names[i]] = float(round(values[names[i]]))
        status = SolveStatus.OPTIMAL if exhausted else SolveStatus.FEASIBLE
        return Solution(
            status,
            objective=model.objective_value(values),
            values=values,
            stats=stats,
            bound=sign * best_bound,
        )
