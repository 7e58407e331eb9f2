"""Unit tests for preserving EC (§7)."""

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.cnf.mutations import table3_trial
from repro.core.preserving import (
    build_preserving_encoding,
    preserving_ec,
    resolve_oblivious,
)
from repro.errors import PreservationError
from repro.ilp.status import SolveStatus
from repro.sat.brute import max_agreement_model


class TestPaperPreservingExample:
    """§1's preserving example: S2 keeps 4/5 assignments, S1 only 1/5."""

    @pytest.fixture
    def setup(self):
        f = CNFFormula(
            [
                [1, 2, 4],
                [1, 4, -5],
                [-1, -3, 4],
                [2, 3, 5],
                [-2, 4, 5],
                [3, -4, 5],
            ]
        )
        s = Assignment({1: True, 2: True, 3: False, 4: False, 5: True})
        assert f.is_satisfied(s)
        modified = f.copy()
        modified.add_clause([-2, 3, 4])
        modified.add_clause([1, -2, -5])
        return modified, s

    def test_original_now_broken(self, setup):
        modified, s = setup
        assert not modified.is_satisfied(s)

    def test_preserving_finds_high_agreement(self, setup):
        modified, s = setup
        result = preserving_ec(modified, s)
        assert result.succeeded
        assert modified.is_satisfied(result.assignment)
        # The paper's S2 preserves 4/5; the ILP must do at least that well.
        assert result.preserved_count >= 4

    def test_matches_brute_force_optimum(self, setup):
        modified, s = setup
        result = preserving_ec(modified, s)
        _, best = max_agreement_model(modified, s)
        assert result.preserved_count == best


class TestOptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_preserving_is_optimal(self, seed):
        f, p = random_planted_ksat(12, 36, rng=200 + seed)
        modified, _ = table3_trial(
            f, p, rng=seed, num_var_adds=2, num_var_deletes=2,
            num_clause_adds=3, num_clause_deletes=3,
        )
        result = preserving_ec(modified, p)
        _, best = max_agreement_model(
            modified, p.restricted_to(modified.variables)
        )
        assert result.preserved_count == best

    def test_beats_or_ties_oblivious(self, planted_medium):
        f, p = planted_medium
        modified, _ = table3_trial(f, p, rng=77)
        pres = preserving_ec(modified, p, time_limit=60)
        obl = resolve_oblivious(modified, p, time_limit=60)
        # Both answers proven, so the comparison is between two optima.
        assert pres.solution.status is SolveStatus.OPTIMAL
        assert obl.solution.status is SolveStatus.OPTIMAL
        assert pres.preserved_fraction >= obl.preserved_fraction - 1e-9


class TestSpecifiedPreservation:
    def test_pinned_variables_kept(self, planted_small):
        f, p = planted_small
        modified, _ = table3_trial(f, p, rng=5, num_var_deletes=0, num_var_adds=0)
        pins = list(modified.variables)[:3]
        result = preserving_ec(modified, p, preserve=pins)
        if result.succeeded:
            for var in pins:
                assert result.assignment[var] == p[var]

    def test_pin_unknown_variable_raises(self, planted_small):
        f, p = planted_small
        with pytest.raises(PreservationError):
            build_preserving_encoding(f, p, preserve=[999])

    def test_pin_valueless_variable_raises(self):
        f = CNFFormula([[1, 2]])
        with pytest.raises(PreservationError):
            build_preserving_encoding(f, Assignment({1: True}), preserve=[2])


class TestEdgeCases:
    def test_unsatisfiable_modified(self):
        f = CNFFormula([[1], [-1]])
        result = preserving_ec(f, Assignment({1: True}))
        assert not result.succeeded

    def test_fresh_variables_have_no_agreement_term(self, planted_small):
        f, p = planted_small
        g = f.copy()
        new_var = g.add_variable()
        result = preserving_ec(g, p)
        assert result.succeeded
        assert result.comparable_variables == 20  # new var not comparable
        assert new_var in result.assignment  # but it does get a value

    def test_quality_weight_mixes_objectives(self, planted_small):
        f, p = planted_small
        result = preserving_ec(f, p, quality_weight=0.01)
        assert result.succeeded
        assert result.preserved_fraction == pytest.approx(1.0)
