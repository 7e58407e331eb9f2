"""A dense two-phase primal simplex LP solver.

This is the from-scratch replacement for the LP machinery the paper gets
from CPLEX ("the most widely used is the SIMPLEX approach", §3).  It solves

    min / max  c'x
    s.t.       A_ub x <= b_ub,  A_eq x = b_eq,  l <= x <= u

by shifting out lower bounds, adding upper bounds as explicit rows, and
running the classic two-phase tableau method with Dantzig pricing and a
Bland's-rule fallback for anti-cycling.

The implementation favours clarity and numerical caution over speed.
Branch and bound solves its relaxations with HiGHS by default; this solver
is the ablation variant (``BranchAndBoundSolver(backend=SimplexBackend())``,
see :mod:`repro.ilp.lp_backend`) and the independent oracle the tests
cross-check HiGHS against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ilp.status import SolveStatus

#: Upper bound substituted for +inf so every variable lives in a box.
BIG_BOUND = 1e9

_EPS = 1e-9


@dataclass
class SimplexResult:
    """Outcome of an LP solve."""

    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _as_dense(a) -> np.ndarray:
    if a is None:
        return np.zeros((0, 0))
    if hasattr(a, "toarray"):     # a scipy.sparse matrix
        return a.toarray()
    return np.asarray(a, dtype=float)


def simplex_solve(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = False,
    max_iterations: int = 50_000,
) -> SimplexResult:
    """Solve a bounded LP with the two-phase primal simplex method.

    Args:
        c: objective coefficients, length n.
        a_ub, b_ub: inequality system ``a_ub x <= b_ub`` (may be None/empty).
        a_eq, b_eq: equality system (may be None/empty).
        bounds: list of (lb, ub) per variable; None means ``(0, +inf)``.
            Infinite upper bounds are replaced by :data:`BIG_BOUND`.
        maximize: if True the objective is maximized.
        max_iterations: pivot budget across both phases.

    Returns:
        A :class:`SimplexResult`; ``x`` is in the original variable space.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub_d = _as_dense(a_ub).reshape(-1, n) if a_ub is not None else np.zeros((0, n))
    b_ub_d = np.asarray(b_ub, dtype=float).ravel() if b_ub is not None else np.zeros(0)
    a_eq_d = _as_dense(a_eq).reshape(-1, n) if a_eq is not None else np.zeros((0, n))
    b_eq_d = np.asarray(b_eq, dtype=float).ravel() if b_eq is not None else np.zeros(0)
    if bounds is None:
        bounds = [(0.0, np.inf)] * n
    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array([min(b[1], BIG_BOUND) for b in bounds], dtype=float)
    if np.any(lb > ub + _EPS):
        return SimplexResult(SolveStatus.INFEASIBLE)

    sign = -1.0 if maximize else 1.0
    c_min = sign * c

    # Shift lower bounds to zero: x = lb + y, 0 <= y <= ub - lb.
    shift_ub = b_ub_d - a_ub_d @ lb if a_ub_d.size else b_ub_d
    shift_eq = b_eq_d - a_eq_d @ lb if a_eq_d.size else b_eq_d
    box = ub - lb

    # Rows: ub-ineqs, eqs, and one y_i <= box_i row per finitely-boxed var.
    bound_rows = np.eye(n)
    rows = [a_ub_d, a_eq_d, bound_rows]
    rhs = [shift_ub, shift_eq, box]
    senses = (
        ["<="] * a_ub_d.shape[0] + ["=="] * a_eq_d.shape[0] + ["<="] * n
    )
    a_all = np.vstack([r for r in rows if r.size] or [np.zeros((0, n))])
    b_all = np.concatenate([r for r in rhs if r.size] or [np.zeros(0)])
    m = a_all.shape[0]

    # Normalize to b >= 0 by negating rows (flips <= to >=).
    senses = list(senses)
    for i in range(m):
        if b_all[i] < 0:
            a_all[i] = -a_all[i]
            b_all[i] = -b_all[i]
            if senses[i] == "<=":
                senses[i] = ">="
            elif senses[i] == ">=":
                senses[i] = "<="

    # Column layout: [y (n)] [slack/surplus] [artificials].
    num_slack = sum(1 for s in senses if s in ("<=", ">="))
    num_art = sum(1 for s in senses if s in (">=", "=="))
    total = n + num_slack + num_art
    tableau = np.zeros((m, total + 1))
    tableau[:, :n] = a_all
    tableau[:, -1] = b_all
    basis = np.empty(m, dtype=int)
    s_col, a_col = n, n + num_slack
    art_cols: list[int] = []
    for i, sense in enumerate(senses):
        if sense == "<=":
            tableau[i, s_col] = 1.0
            basis[i] = s_col
            s_col += 1
        elif sense == ">=":
            tableau[i, s_col] = -1.0
            s_col += 1
            tableau[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1
        else:  # ==
            tableau[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1

    iterations = 0

    def run(obj_row: np.ndarray, allowed: int) -> str:
        """Pivot until optimal/unbounded; returns 'optimal'|'unbounded'|'limit'."""
        nonlocal iterations
        while True:
            if iterations >= max_iterations:
                return "limit"
            reduced = obj_row[:allowed]
            # Dantzig pricing; Bland once the iteration count gets large.
            if iterations > max_iterations // 2:
                candidates = np.nonzero(reduced < -_EPS)[0]
                if candidates.size == 0:
                    return "optimal"
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -_EPS:
                    return "optimal"
            col = tableau[:, enter]
            positive = col > _EPS
            if not np.any(positive):
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[positive] = tableau[positive, -1] / col[positive]
            leave = int(np.argmin(ratios))
            # Tie-break by smallest basis index (helps against cycling).
            best = ratios[leave]
            ties = np.nonzero(np.abs(ratios - best) <= _EPS * (1 + abs(best)))[0]
            if ties.size > 1:
                leave = int(ties[np.argmin(basis[ties])])
            pivot = tableau[leave, enter]
            tableau[leave] /= pivot
            for r in range(m):
                if r != leave and abs(tableau[r, enter]) > _EPS:
                    tableau[r] -= tableau[r, enter] * tableau[leave]
            obj_row -= obj_row[enter] * tableau[leave]
            basis[leave] = enter
            iterations += 1

    # ---------------- Phase 1: drive artificials to zero ----------------
    if num_art:
        obj1 = np.zeros(total + 1)
        for col in art_cols:
            obj1[col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                obj1 -= tableau[i]
        outcome = run(obj1, allowed=total)
        if outcome == "limit":
            return SimplexResult(SolveStatus.ITERATION_LIMIT, iterations=iterations)
        if -obj1[-1] > 1e-6:
            return SimplexResult(SolveStatus.INFEASIBLE, iterations=iterations)
        # Drive any remaining basic artificials out or drop redundant rows.
        art_set = set(art_cols)
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] in art_set:
                row = tableau[i, : n + num_slack]
                nz = np.nonzero(np.abs(row) > 1e-7)[0]
                if nz.size:
                    enter = int(nz[0])
                    pivot = tableau[i, enter]
                    tableau[i] /= pivot
                    for r in range(m):
                        if r != i and abs(tableau[r, enter]) > _EPS:
                            tableau[r] -= tableau[r, enter] * tableau[i]
                    basis[i] = enter
                else:
                    keep[i] = False
        if not np.all(keep):
            tableau = tableau[keep]
            basis = basis[keep]
            m = tableau.shape[0]
        # Freeze artificials at zero by truncating their columns.
        tableau = np.hstack([tableau[:, : n + num_slack], tableau[:, -1:]])
        total = n + num_slack

    # ---------------- Phase 2: original objective -----------------------
    obj2 = np.zeros(total + 1)
    obj2[:n] = c_min
    for i in range(m):
        if abs(obj2[basis[i]]) > _EPS:
            obj2 -= obj2[basis[i]] * tableau[i]
    outcome = run(obj2, allowed=total)
    if outcome == "limit":
        return SimplexResult(SolveStatus.ITERATION_LIMIT, iterations=iterations)
    if outcome == "unbounded":
        return SimplexResult(SolveStatus.UNBOUNDED, iterations=iterations)

    y = np.zeros(total)
    for i in range(m):
        y[basis[i]] = tableau[i, -1]
    x = lb + y[:n]
    objective = float(c @ x)
    return SimplexResult(SolveStatus.OPTIMAL, x=x, objective=objective, iterations=iterations)
