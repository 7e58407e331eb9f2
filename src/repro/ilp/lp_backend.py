"""Pluggable LP-relaxation backends.

Two interchangeable backends solve the LP relaxations inside branch and
bound:

* :class:`ScipyBackend` — HiGHS, reached through ``scipy.optimize.milp``
  with no integrality constraints (one LP solve at about half the
  per-call wrapper cost of ``linprog``).  Branch and bound and the root
  cut loop use it whenever no backend is passed;
* :class:`SimplexBackend` — the from-scratch solver in
  :mod:`repro.ilp.simplex`, kept as the ablation variant
  (:mod:`repro.bench.ablations`) and as an independent oracle in the test
  suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.ilp.simplex import simplex_solve
from repro.ilp.status import SolveStatus


@dataclass
class LPResult:
    """Uniform result record for any LP backend."""

    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


class LPBackend(Protocol):
    """Anything that can solve ``min c'x`` over a box + linear system."""

    name: str

    def solve(
        self, c, a_ub, b_ub, a_eq, b_eq, bounds
    ) -> LPResult:  # pragma: no cover - protocol
        ...


class SimplexBackend:
    """The package's own dense two-phase simplex."""

    name = "simplex"

    def __init__(self, max_iterations: int = 50_000):
        self.max_iterations = max_iterations

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> LPResult:
        res = simplex_solve(
            c,
            a_ub,
            b_ub,
            a_eq,
            b_eq,
            bounds,
            maximize=False,
            max_iterations=self.max_iterations,
        )
        return LPResult(res.status, res.x, res.objective, res.iterations)


#: ``scipy.optimize.milp`` status codes.
_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def _has_rows(a, b) -> bool:
    return a is not None and b is not None and np.shape(a)[0] > 0


class ScipyBackend:
    """HiGHS via ``scipy.optimize.milp`` with every variable continuous.

    The inequality rows go in as ``-inf <= A_ub x <= b_ub`` and the
    equality rows as ``b_eq <= A_eq x <= b_eq``.  ``milp`` reports no
    simplex iteration count, so ``iterations`` is always 0.
    """

    name = "scipy-highs"

    def solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds) -> LPResult:
        # Imported on first use: scipy costs every process that imports
        # repro about half a second, and serving never solves an LP.
        from scipy.optimize import milp

        rows = []
        if _has_rows(a_ub, b_ub):
            rows.append((a_ub, -np.inf, b_ub))
        if _has_rows(a_eq, b_eq):
            rows.append((a_eq, b_eq, b_eq))
        box = np.asarray(bounds, dtype=float).reshape(-1, 2)
        res = milp(c, bounds=(box[:, 0], box[:, 1]), constraints=rows)
        status = _MILP_STATUS.get(res.status, SolveStatus.ERROR)
        if status is SolveStatus.OPTIMAL:
            return LPResult(status, res.x, float(res.fun))
        return LPResult(status)
