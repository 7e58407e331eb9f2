"""0-1 / mixed integer linear programming substrate, built from scratch.

The paper solves every EC formulation with CPLEX; this subpackage provides
the equivalent machinery:

* :mod:`repro.ilp.expr`, :mod:`repro.ilp.variable`,
  :mod:`repro.ilp.constraint`, :mod:`repro.ilp.model` -- a small modeling
  layer with operator overloading (``2*x + y <= 3``);
* :mod:`repro.ilp.lp_backend` -- pluggable LP relaxation backends: HiGHS
  (through ``scipy.optimize.milp``) by default, the own simplex as the
  ablation variant and test oracle;
* :mod:`repro.ilp.simplex` -- the own dense two-phase primal simplex;
* :mod:`repro.ilp.presolve` -- 0-1 presolve reductions;
* :mod:`repro.ilp.branch_and_bound` -- exact best-first 0-1/MIP search;
* :mod:`repro.ilp.cuts` -- root-node cutting planes;
* :mod:`repro.ilp.heuristic` -- the iterative-improvement heuristic ILP
  solver the paper cites as reference [6];
* :mod:`repro.ilp.solver` -- the ``solve()`` facade used by the EC layers.
"""

from repro.ilp.expr import LinExpr
from repro.ilp.variable import VarType, Variable
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.model import ILPModel
from repro.ilp.status import SolveStatus
from repro.ilp.solution import Solution, SolveStats
from repro.ilp.solver import solve
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.heuristic import HeuristicILPSolver
from repro.ilp.simplex import SimplexResult, simplex_solve

__all__ = [
    "BranchAndBoundSolver",
    "Constraint",
    "HeuristicILPSolver",
    "ILPModel",
    "LinExpr",
    "Sense",
    "SimplexResult",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "VarType",
    "Variable",
    "simplex_solve",
    "solve",
]
