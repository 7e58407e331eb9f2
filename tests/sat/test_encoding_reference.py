"""The set-cover encodings match a reference built with ``LinExpr`` algebra.

``SATEncoding.build`` and ``build_preserving_encoding`` write their rows and
objectives straight from term dicts.  The reference builders below spell
the same models out the way the paper's formulas read (``sum(...) >= 1``,
``x + x' <= 1``, ``aw * sum(agreement) - qw * sum(literals)``); every
variable, row and objective term must come out identical, in order.
"""

import random

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.core.preserving import build_preserving_encoding
from repro.ilp.expr import LinExpr
from repro.ilp.model import ILPModel
from repro.sat.encoding import encode_sat, literal_name, neg_name, pos_name


def reference_encoding(formula: CNFFormula, minimize_literals: bool = True) -> ILPModel:
    model = ILPModel("sat")
    for var in formula.variables:
        model.add_binary(pos_name(var))
        model.add_binary(neg_name(var))
    for index, clause in enumerate(formula.clauses):
        row = LinExpr.sum(model.var(literal_name(lit)) for lit in clause)
        model.add_constraint(row >= 1, name=f"clause::{index}")
    for var in formula.variables:
        model.add_constraint(
            model.var(pos_name(var)) + model.var(neg_name(var)) <= 1,
            name=f"consistency::{var}",
        )
    if minimize_literals:
        model.set_objective(
            LinExpr.sum(
                model.var(nm)
                for var in formula.variables
                for nm in (pos_name(var), neg_name(var))
            ),
            sense="min",
        )
    return model


def reference_preserving(
    modified: CNFFormula,
    original: Assignment,
    preserve=(),
    agreement_weight: float = 1.0,
    quality_weight: float = 0.0,
) -> ILPModel:
    model = reference_encoding(modified, minimize_literals=False)
    agreement = [
        model.var(pos_name(var) if original[var] else neg_name(var)).to_expr()
        for var in modified.variables
        if original.get(var) is not None
    ]
    for var in preserve:
        name = pos_name(var) if original[var] else neg_name(var)
        model.add_constraint(model.var(name).to_expr() >= 1, name=f"preserve::{var}")
    objective = LinExpr()
    if agreement_weight:
        objective = objective + agreement_weight * LinExpr.sum(agreement)
    if quality_weight:
        all_lits = LinExpr.sum(
            model.var(nm)
            for var in modified.variables
            for nm in (pos_name(var), neg_name(var))
        )
        objective = objective - quality_weight * all_lits
    model.set_objective(objective, sense="max")
    return model


def layout(model: ILPModel):
    """Everything that defines the model, in order, compared exactly."""
    return (
        [(v.name, v.vartype, v.lb, v.ub, v.index) for v in model.variables],
        [
            (c.name, c.sense, c.rhs, list(c.terms.items()))
            for c in model.constraints
        ],
        list(model.objective.terms.items()),
        model.objective.constant,
        model.sense,
    )


def seeded_formulas():
    """Planted 3-SAT, an extra fresh variable, and reduced-clause shapes."""
    out = []
    for seed in range(8):
        f, p = random_planted_ksat(8 + seed, 20 + 4 * seed, rng=300 + seed)
        out.append((f, p))
    f, p = random_planted_ksat(10, 30, rng=7)
    f.add_variable()                      # in no clause, no old value
    out.append((f, p))
    # Fast EC's reduced clauses may be tautological or short.
    rng = random.Random(11)
    f, p = random_planted_ksat(9, 25, rng=11)
    f.add_clause(Clause([2, -2, 5], allow_tautology=True))
    f.add_clause(Clause([-7], allow_tautology=True))
    for _ in range(3):
        var = rng.choice(f.variables)
        f.add_clause(Clause([var, -var], allow_tautology=True))
    out.append((f, p))
    return out


FORMULAS = seeded_formulas()


class TestEncodeSatMatchesReference:
    @pytest.mark.parametrize("minimize", [True, False])
    @pytest.mark.parametrize("case", range(len(FORMULAS)))
    def test_same_model(self, case, minimize):
        formula, _ = FORMULAS[case]
        built = encode_sat(formula, minimize_literals=minimize).model
        assert layout(built) == layout(reference_encoding(formula, minimize))

    def test_tautological_clause_keeps_both_polarities(self):
        formula = CNFFormula([Clause([3, -3, 4], allow_tautology=True)])
        (row, *_) = encode_sat(formula).model.constraints
        assert list(row.terms) == ["pos::3", "neg::3", "pos::4"]


class TestPreservingMatchesReference:
    @pytest.mark.parametrize(
        "weights",
        [(1.0, 0.0), (1.0, 0.01), (2.0, 0.5), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],
        ids=["paper", "quality", "mixed", "cancelling", "quality-only", "none"],
    )
    @pytest.mark.parametrize("case", range(len(FORMULAS)))
    def test_same_model(self, case, weights):
        formula, original = FORMULAS[case]
        aw, qw = weights
        built = build_preserving_encoding(
            formula, original, agreement_weight=aw, quality_weight=qw
        ).model
        expected = reference_preserving(
            formula, original, agreement_weight=aw, quality_weight=qw
        )
        assert layout(built) == layout(expected)

    @pytest.mark.parametrize("case", range(len(FORMULAS)))
    def test_same_model_with_pins(self, case):
        formula, original = FORMULAS[case]
        pins = [v for v in formula.variables if v in original][::3]
        built = build_preserving_encoding(
            formula, original, preserve=pins, quality_weight=0.25
        ).model
        expected = reference_preserving(
            formula, original, preserve=pins, quality_weight=0.25
        )
        assert layout(built) == layout(expected)
        assert [c.name for c in built.constraints][-len(pins):] == [
            f"preserve::{v}" for v in pins
        ]

    def test_partial_original_leaves_gaps(self):
        formula, original = FORMULAS[0]
        partial = Assignment(
            {v: val for v, val in original.as_dict().items() if v % 2}
        )
        built = build_preserving_encoding(formula, partial, quality_weight=0.5).model
        expected = reference_preserving(formula, partial, quality_weight=0.5)
        assert layout(built) == layout(expected)
