"""The ILP model container.

An :class:`ILPModel` is the paper's ``max{cx : Ax <= b, x in B^n}`` (eq. 2,
generalized to mixed senses, integer and continuous variables).  It owns
variables and constraints, converts itself to the matrix form the solvers
consume, and can verify candidate solutions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ModelError
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr, Operand
from repro.ilp.variable import VarType, Variable

if TYPE_CHECKING:  # pragma: no cover - scipy is imported on first use
    import scipy.sparse as sp


class ObjectiveSense:
    """String constants for the optimization direction."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


class ILPModel:
    """A (mixed) integer linear program.

    Example::

        m = ILPModel("toy")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y <= 1, name="pack")
        m.set_objective(x + 2 * y, sense="max")
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._variables: list[Variable] = []
        self._by_name: dict[str, Variable] = {}
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense: str = ObjectiveSense.MAXIMIZE

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        vartype: VarType = VarType.BINARY,
        lb: float = 0.0,
        ub: float = 1.0,
    ) -> Variable:
        """Create and register a variable.  Names must be unique."""
        if name in self._by_name:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(name, vartype, lb, ub, index=len(self._variables))
        self._variables.append(var)
        self._by_name[name] = var
        return var

    def add_binary(self, name: str) -> Variable:
        """Add a 0-1 variable."""
        return self.add_var(name, VarType.BINARY, 0.0, 1.0)

    def add_integer(self, name: str, lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Add a general integer variable."""
        return self.add_var(name, VarType.INTEGER, lb, ub)

    def add_continuous(self, name: str, lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Add a continuous variable."""
        return self.add_var(name, VarType.CONTINUOUS, lb, ub)

    def add_binaries(self, names: Iterable[str]) -> list[Variable]:
        """Add a batch of 0-1 variables."""
        return [self.add_binary(n) for n in names]

    def var(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def has_var(self, name: str) -> bool:
        return name in self._by_name

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def num_vars(self) -> int:
        return len(self._variables)

    # ------------------------------------------------------------------
    # constraints and objective
    # ------------------------------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str | None = None) -> Constraint:
        """Register a constraint; unknown variable names are rejected."""
        for var_name in constraint.terms:
            if var_name not in self._by_name:
                raise ModelError(
                    f"constraint references unknown variable {var_name!r}"
                )
        if name is not None:
            constraint.name = name
        elif constraint.name is None:
            constraint.name = f"c{len(self._constraints)}"
        self._constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> list[Constraint]:
        """Register several constraints."""
        return [self.add_constraint(c) for c in constraints]

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def set_objective(self, expr: Operand, sense: str = ObjectiveSense.MAXIMIZE) -> None:
        """Set the objective function and direction ('max' or 'min')."""
        if sense not in (ObjectiveSense.MAXIMIZE, ObjectiveSense.MINIMIZE):
            raise ModelError(f"objective sense must be 'max' or 'min', got {sense!r}")
        expr = LinExpr.coerce(expr)
        for var_name in expr.terms:
            if var_name not in self._by_name:
                raise ModelError(f"objective references unknown variable {var_name!r}")
        self._objective = expr
        self._sense = sense

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def sense(self) -> str:
        return self._sense

    @property
    def is_maximization(self) -> bool:
        return self._sense == ObjectiveSense.MAXIMIZE

    # ------------------------------------------------------------------
    # matrix form
    # ------------------------------------------------------------------
    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficient vector aligned with variable indices."""
        c = np.zeros(self.num_vars)
        for name, coef in self._objective.terms.items():
            c[self._by_name[name].index] = coef
        return c

    def constraint_matrices(
        self,
    ) -> tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix, np.ndarray]:
        """Sparse (A_ub, b_ub, A_eq, b_eq) with GE rows negated into LE."""
        import scipy.sparse as sp

        rows_ub: list[int] = []
        cols_ub: list[int] = []
        data_ub: list[float] = []
        b_ub: list[float] = []
        rows_eq: list[int] = []
        cols_eq: list[int] = []
        data_eq: list[float] = []
        b_eq: list[float] = []
        for con in self._constraints:
            if con.sense is Sense.EQ:
                r = len(b_eq)
                for name, coef in con.terms.items():
                    rows_eq.append(r)
                    cols_eq.append(self._by_name[name].index)
                    data_eq.append(coef)
                b_eq.append(con.rhs)
            else:
                flip = -1.0 if con.sense is Sense.GE else 1.0
                r = len(b_ub)
                for name, coef in con.terms.items():
                    rows_ub.append(r)
                    cols_ub.append(self._by_name[name].index)
                    data_ub.append(flip * coef)
                b_ub.append(flip * con.rhs)
        n = self.num_vars
        a_ub = sp.csr_matrix(
            (data_ub, (rows_ub, cols_ub)), shape=(len(b_ub), n), dtype=float
        )
        a_eq = sp.csr_matrix(
            (data_eq, (rows_eq, cols_eq)), shape=(len(b_eq), n), dtype=float
        )
        return a_ub, np.asarray(b_ub, float), a_eq, np.asarray(b_eq, float)

    def bounds(self) -> list[tuple[float, float]]:
        """Per-variable (lb, ub) list aligned with variable indices."""
        return [(v.lb, v.ub) for v in self._variables]

    def integer_mask(self) -> np.ndarray:
        """Boolean array marking integer (incl. binary) variables."""
        return np.array([v.is_integer for v in self._variables], dtype=bool)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def objective_value(self, values: Mapping[str, float]) -> float:
        """Objective value under a name -> value mapping."""
        return self._objective.evaluate(values)

    def violated_constraints(
        self, values: Mapping[str, float], tol: float = 1e-6
    ) -> list[Constraint]:
        """Constraints not satisfied by *values* (within *tol*)."""
        return [c for c in self._constraints if not c.is_satisfied(values, tol)]

    def is_feasible(self, values: Mapping[str, float], tol: float = 1e-6) -> bool:
        """True if *values* satisfies all constraints and variable bounds."""
        for var in self._variables:
            try:
                x = values[var.name]
            except KeyError:
                return False
            if x < var.lb - tol or x > var.ub + tol:
                return False
            if var.is_integer and abs(x - round(x)) > tol:
                return False
        return not self.violated_constraints(values, tol)

    def copy(self) -> "ILPModel":
        """Structural copy (variables/constraints are rebuilt)."""
        out = ILPModel(self.name)
        for v in self._variables:
            out.add_var(v.name, v.vartype, v.lb, v.ub)
        for c in self._constraints:
            out.add_constraint(Constraint(c.terms, c.sense, c.rhs, c.name))
        out._objective = self._objective.copy()
        out._sense = self._sense
        return out

    def __repr__(self) -> str:
        return (
            f"ILPModel({self.name!r}, vars={self.num_vars}, "
            f"cons={self.num_constraints}, sense={self._sense})"
        )
