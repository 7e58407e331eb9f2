"""fp-v2 invariants: canonical under every representation artifact.

Includes the DIMACS round-trip property the cache relies on:
``fingerprint_v2(parse_dimacs(to_dimacs(f))) == fingerprint_v2(f)``,
and golden values that pin fp-v2 itself (the fingerprint memo must never
change a value).
"""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.cnf import packed
from repro.cnf.clause import Clause
from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.engine.fingerprint import fingerprint_v2, fingerprint_v2_scratch


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


class TestFingerprintMemo:
    @given(formulas(), st.booleans(), st.integers(-1, 12))
    def test_repeated_decode_matches_the_oracle(self, f, doubled, empty_at):
        """Decoding the same bytes twice gives the scratch oracle both
        times: the first from digests, the second from the memo."""
        clauses = [list(cl.literals) for cl in f.clauses]
        if doubled:
            clauses += clauses
        if empty_at >= 0:
            clauses.insert(min(empty_at, len(clauses)), [])
        payload = PackedCNF.from_clauses(clauses, f.variables).to_bytes()
        oracle = fingerprint_v2_scratch(PackedCNF.from_bytes(payload).to_formula())
        # A fresh memo per example (hypothesis reuses the test's scope).
        with mock.patch.object(packed, "_FP_MEMO", {}) as memo:
            first = PackedCNF.from_bytes(payload).fingerprint()
            second = PackedCNF.from_bytes(payload)
            assert second.fingerprint() == first == oracle
            assert second._digest_counts is None and len(memo) == 1


class TestGoldenValues:
    """fp-v2 values computed before the memo existed, so a change to the
    key function (or to anything it digests) cannot pass silently."""

    @pytest.mark.parametrize(
        "clauses, expected",
        [
            (
                [[1, -2], [2, 3], [-1, -3]],
                "5a8c6d147b40162bb594e9c056386dd4097ea66944f1b58d6a51f3d840709b3c",
            ),
            ([], "eaec7c0fe1d78b6646d5b7639948aaecb2c698bf676ba1e89ff550e6c0501a69"),
        ],
    )
    def test_golden_value(self, clauses, expected, fresh_fp_memo):
        assert PackedCNF.from_clauses(clauses).fingerprint() == expected  # digests
        assert PackedCNF.from_clauses(clauses).fingerprint() == expected  # memo
        assert fingerprint_v2_scratch(CNFFormula(clauses)) == expected
