"""fp-v2 invariants: canonical under every representation artifact.

Includes the DIMACS round-trip property the cache relies on:
``fingerprint_v2(parse_dimacs(to_dimacs(f))) == fingerprint_v2(f)``.
"""

import hypothesis.strategies as st
from hypothesis import given

from repro.cnf.clause import Clause
from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.formula import CNFFormula
from repro.engine.fingerprint import fingerprint_v2


@st.composite
def clauses(draw, max_var=8, max_width=4):
    """A non-tautological, non-empty clause."""
    width = draw(st.integers(1, max_width))
    variables = draw(
        st.lists(
            st.integers(1, max_var), min_size=width, max_size=width, unique=True
        )
    )
    signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return Clause([v if s else -v for v, s in zip(variables, signs)])


@st.composite
def formulas(draw, max_var=8, max_clauses=12):
    cls = draw(st.lists(clauses(max_var=max_var), min_size=0, max_size=max_clauses))
    return CNFFormula(cls, num_vars=max_var)


class TestFingerprintProperties:
    @given(formulas())
    def test_dimacs_roundtrip_stable(self, f):
        assert fingerprint_v2(parse_dimacs(to_dimacs(f))) == fingerprint_v2(f)

    @given(formulas(), st.randoms(use_true_random=False))
    def test_clause_order_irrelevant(self, f, rnd):
        shuffled = list(f.clauses)
        rnd.shuffle(shuffled)
        assert fingerprint_v2(CNFFormula(shuffled)) == fingerprint_v2(f)

    @given(formulas(), st.randoms(use_true_random=False))
    def test_literal_order_irrelevant(self, f, rnd):
        reordered = []
        for cl in f.clauses:
            lits = list(cl.literals)
            rnd.shuffle(lits)
            reordered.append(Clause(lits))
        assert fingerprint_v2(CNFFormula(reordered)) == fingerprint_v2(f)

    @given(formulas())
    def test_duplicate_clauses_irrelevant(self, f):
        doubled = CNFFormula(list(f.clauses) + list(f.clauses))
        assert fingerprint_v2(doubled) == fingerprint_v2(f)

    @given(formulas())
    def test_deterministic_across_rebuilds(self, f):
        rebuilt = CNFFormula([Clause(cl.literals) for cl in f.clauses])
        assert fingerprint_v2(rebuilt) == fingerprint_v2(f)


class TestFingerprintDiscrimination:
    def test_added_clause_changes_fingerprint(self):
        f = CNFFormula([[1, 2], [-1, 3]])
        g = f.copy()
        g.add_clause([2, 3])
        assert fingerprint_v2(f) != fingerprint_v2(g)

    def test_polarity_changes_fingerprint(self):
        assert fingerprint_v2(CNFFormula([[1, 2]])) != fingerprint_v2(CNFFormula([[1, -2]]))

    def test_free_variables_do_not_matter(self):
        # Free variables are don't-cares; a cached model transfers.
        narrow = CNFFormula([[1, 3]])
        wide = CNFFormula([[1, 3]], num_vars=9)
        assert fingerprint_v2(narrow) == fingerprint_v2(wide)

    def test_empty_formula(self):
        assert fingerprint_v2(CNFFormula()) == fingerprint_v2(CNFFormula(num_vars=5))
