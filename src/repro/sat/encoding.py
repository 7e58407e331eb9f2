"""SAT -> set cover -> 0-1 ILP, exactly as in §3 of the paper.

For a formula over variables ``v_1..v_n``:

* binary ``x_i`` (named ``pos::v``) selects the uncomplemented literal of
  ``v_i``; binary ``x_{i+n}`` (named ``neg::v``) the complemented one;
* every clause (set-cover element) yields a coverage row: the sum of the
  selected literals appearing in it must be >= 1 (constraint (5) with ``b``
  the identity vector);
* consistency rows ``x_i + x_{i+n} <= 1`` (constraint (6)) forbid choosing
  both polarities;
* the objective minimizes the number of selected literals (the set-cover
  objective with ``c`` a negative identity vector under ``max``).

A solution decodes to a *partial* assignment: a variable with neither
polarity selected is a don't care, which fast EC later recycles ("we try
and recover as many DC variables from the initial solution as possible").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.errors import ModelError
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.model import ILPModel
from repro.ilp.solution import Solution


def pos_name(var: int) -> str:
    """ILP variable name for the uncomplemented literal of *var*."""
    return f"pos::{var}"


def neg_name(var: int) -> str:
    """ILP variable name for the complemented literal of *var*."""
    return f"neg::{var}"


def literal_name(lit: int) -> str:
    """ILP variable name selecting literal *lit*."""
    return pos_name(lit) if lit > 0 else neg_name(-lit)


def literal_names(variables: Iterable[int]) -> Iterator[str]:
    """``pos::v, neg::v`` for each of *variables*: the encoding's column order."""
    for var in variables:
        yield pos_name(var)
        yield neg_name(var)


class SATEncoding:
    """The ILP encoding of a CNF formula plus decode helpers.

    Attributes:
        formula: the encoded CNF formula (not copied).
        model: the 0-1 ILP; clause rows are named ``clause::<index>``.
    """

    def __init__(self, formula: CNFFormula, model: ILPModel):
        self.formula = formula
        self.model = model

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, formula: CNFFormula, minimize_literals: bool = True) -> "SATEncoding":
        """Encode *formula* per the paper's set-cover route.

        Args:
            minimize_literals: keep the set-cover objective (min selected
                literals).  EC variants replace the objective afterwards.
        """
        model = ILPModel("sat")
        variables = formula.variables
        for name in literal_names(variables):
            model.add_binary(name)
        # Rows and objective are term dicts in the normal form ``LinExpr``
        # algebra would produce (tests/sat/test_encoding_reference.py pins
        # that), built without the algebra's per-row copies.
        for index, clause in enumerate(formula.clauses):
            if clause.is_empty():
                raise ModelError(f"clause {index} is empty; formula is unsatisfiable")
            model.add_constraint(
                Constraint({literal_name(lit): 1.0 for lit in clause}, Sense.GE, 1.0),
                name=f"clause::{index}",
            )
        for var in variables:
            model.add_constraint(
                Constraint({pos_name(var): 1.0, neg_name(var): 1.0}, Sense.LE, 1.0),
                name=f"consistency::{var}",
            )
        if minimize_literals:
            model.set_objective(
                LinExpr(dict.fromkeys(literal_names(variables), 1.0)), sense="min"
            )
        return cls(formula, model)

    # ------------------------------------------------------------------
    def decode(self, solution: Solution, default: bool | None = None) -> Assignment:
        """Decode an ILP solution into a (possibly partial) assignment.

        Args:
            default: value given to don't-care variables; None leaves them
                unassigned.

        Raises:
            ModelError: if both polarities of some variable are selected
                (solver bug — the consistency rows forbid it).
        """
        assignment = Assignment()
        for var in self.formula.variables:
            pos = solution.rounded(pos_name(var))
            neg = solution.rounded(neg_name(var))
            if pos and neg:
                raise ModelError(f"both polarities selected for v{var}")
            if pos:
                assignment[var] = True
            elif neg:
                assignment[var] = False
            elif default is not None:
                assignment[var] = default
        return assignment

    def values_from_assignment(
        self, assignment: Assignment, unassigned_to_zero: bool = True
    ) -> dict[str, float]:
        """Encode a truth assignment as ILP variable values (warm starts)."""
        values: dict[str, float] = {}
        for var in self.formula.variables:
            val = assignment.get(var)
            if val is None:
                if not unassigned_to_zero:
                    raise ModelError(f"variable v{var} unassigned")
                values[pos_name(var)] = 0.0
                values[neg_name(var)] = 0.0
            else:
                values[pos_name(var)] = 1.0 if val else 0.0
                values[neg_name(var)] = 0.0 if val else 1.0
        return values

    def __repr__(self) -> str:
        return (
            f"SATEncoding(vars={self.formula.num_vars} -> {self.model.num_vars}, "
            f"clauses={self.formula.num_clauses}, rows={self.model.num_constraints})"
        )


def encode_sat(formula: CNFFormula, minimize_literals: bool = True) -> SATEncoding:
    """Convenience wrapper for :meth:`SATEncoding.build`."""
    return SATEncoding.build(formula, minimize_literals=minimize_literals)


def decode_values(
    encoding: SATEncoding, solution: Solution, default: bool | None = False
) -> Assignment:
    """Decode with don't-cares defaulted (False unless told otherwise)."""
    return encoding.decode(solution, default=default)
