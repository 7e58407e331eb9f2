"""Preserving EC (§7): re-solve while agreeing with the old solution.

Two modes, matching the paper:

* **maximize** — objective ``max sum_i Z_i`` with ``Z_i = p_i x_i +
  p_{n+i} x_{n+i}``: a variable scores 1 when the new selection matches
  the old polarity.  In the set-cover encoding this is simply *maximize
  the sum of the previously-selected literal variables*.
* **specified** — user-named variables are pinned to their old values with
  hard constraints; the remaining objective may still reward agreement or
  keep the set-cover quality term.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.errors import PreservationError
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.solution import Solution, SolveStats
from repro.sat.encoding import (
    SATEncoding,
    encode_sat,
    literal_names,
    neg_name,
    pos_name,
)


def build_preserving_encoding(
    modified: CNFFormula,
    original: Assignment,
    preserve: Iterable[int] = (),
    agreement_weight: float = 1.0,
    quality_weight: float = 0.0,
) -> SATEncoding:
    """Encode *modified* with the preserving-EC objective.

    Args:
        modified: the changed formula.
        original: the previous assignment ``p`` (variables the change
            eliminated are ignored; fresh variables have no old value and
            thus no agreement term).
        preserve: variables whose old value is a *hard* requirement
            (the paper's "user specified parts of the solutions").
        agreement_weight: weight of the preserved-assignment count.
        quality_weight: weight of the original set-cover quality term
            (minimized); 0 reproduces the paper's pure preserving ILP.

    Raises:
        PreservationError: if a pinned variable is absent from the
            modified formula or has no value in *original*.
    """
    encoding = encode_sat(modified, minimize_literals=False)
    model = encoding.model
    variables = modified.variables
    active = set(variables)

    for var in preserve:
        if var not in active:
            raise PreservationError(
                f"cannot preserve v{var}: not a variable of the modified formula"
            )
        old = original.get(var)
        if old is None:
            raise PreservationError(
                f"cannot preserve v{var}: no value in the original assignment"
            )
        name = pos_name(var) if old else neg_name(var)
        model.add_constraint(
            Constraint({name: 1.0}, Sense.GE, 1.0), name=f"preserve::{var}"
        )

    # The objective as a term dict, in the order (and with the dropped
    # zero coefficients) of ``aw * sum(agreement) - qw * sum(literals)``.
    terms: dict[str, float] = {}
    if agreement_weight:
        for var in variables:
            old = original.get(var)
            if old is not None:
                terms[pos_name(var) if old else neg_name(var)] = float(agreement_weight)
    if quality_weight:
        for name in literal_names(variables):
            coef = terms.get(name, 0.0) - float(quality_weight)
            if coef == 0.0:
                terms.pop(name, None)
            else:
                terms[name] = coef
    model.set_objective(LinExpr(terms), sense="max")
    return encoding


@dataclass
class PreservingECResult:
    """Outcome of a preserving-EC re-solve."""

    assignment: Assignment | None
    solution: Solution | None
    preserved_fraction: float = 0.0
    preserved_count: int = 0
    comparable_variables: int = 0
    stats: SolveStats = field(default_factory=SolveStats)
    wall_time: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.assignment is not None


def _score(
    modified: CNFFormula, original: Assignment, new: Assignment
) -> tuple[int, int]:
    """(agreements, comparable) over surviving originally-assigned vars."""
    comparable = [v for v in modified.variables if v in original]
    agree = sum(1 for v in comparable if new.get(v) is original[v])
    return agree, len(comparable)


def preserving_ec(
    modified: CNFFormula,
    original: Assignment,
    preserve: Iterable[int] = (),
    method: str = "exact",
    quality_weight: float = 0.0,
    **solver_options,
) -> PreservingECResult:
    """Re-solve *modified* maximizing agreement with *original*.

    Don't-care variables in the new ILP solution are decoded to their old
    values when they had one (a free variable may as well agree), and to
    False otherwise.

    Returns:
        A result whose ``preserved_fraction`` is measured over the
        variables that survive in the modified formula and had an original
        value — the paper's "% of original solution preserved".
    """
    from repro.ilp.solver import solve

    t0 = time.perf_counter()
    encoding = build_preserving_encoding(
        modified,
        original,
        preserve=preserve,
        quality_weight=quality_weight,
    )
    warm = encoding.values_from_assignment(
        original.restricted_to(modified.variables)
    )
    solution = solve(encoding.model, method=method, warm_start=warm, **solver_options)
    if not solution.status.has_solution:
        return PreservingECResult(
            None, solution, stats=solution.stats, wall_time=time.perf_counter() - t0
        )
    new = encoding.decode(solution, default=None)
    for var in modified.variables:
        if var not in new:
            old = original.get(var)
            new[var] = old if old is not None else False
    agree, comparable = _score(modified, original, new)
    return PreservingECResult(
        assignment=new,
        solution=solution,
        preserved_fraction=(agree / comparable) if comparable else 1.0,
        preserved_count=agree,
        comparable_variables=comparable,
        stats=solution.stats,
        wall_time=time.perf_counter() - t0,
    )


def resolve_oblivious(
    modified: CNFFormula,
    original: Assignment,
    method: str = "exact",
    **solver_options,
) -> PreservingECResult:
    """Baseline for Table 3: re-solve with *no* preservation goal.

    The instance is solved with the plain set-cover objective, don't-cares
    decoded to False (the solver has no knowledge of the old assignment),
    and agreement is then measured against *original*.
    """
    from repro.ilp.solver import solve

    t0 = time.perf_counter()
    encoding = encode_sat(modified, minimize_literals=True)
    solution = solve(encoding.model, method=method, **solver_options)
    if not solution.status.has_solution:
        return PreservingECResult(
            None, solution, stats=solution.stats, wall_time=time.perf_counter() - t0
        )
    new = encoding.decode(solution, default=False)
    agree, comparable = _score(modified, original, new)
    return PreservingECResult(
        assignment=new,
        solution=solution,
        preserved_fraction=(agree / comparable) if comparable else 1.0,
        preserved_count=agree,
        comparable_variables=comparable,
        stats=solution.stats,
        wall_time=time.perf_counter() - t0,
    )
