"""PortfolioEngine: cache hits, hint revalidation, race fallback."""

import pytest

from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine.cache import SolutionCache
from repro.engine.engine import PortfolioEngine


@pytest.fixture
def engine():
    # jobs=1 keeps these unit tests in-process; pool racing is covered by
    # test_portfolio.py.
    with PortfolioEngine(jobs=1) as eng:
        yield eng


@pytest.fixture(scope="module")
def sat_instance():
    f, _ = random_planted_ksat(18, 60, rng=6)
    return f


class TestCachePath:
    def test_repeat_query_hits_cache_without_solving(self, engine, sat_instance):
        first = engine.solve(sat_instance.packed())
        assert first.status == "sat" and not first.from_cache
        calls = engine.counters()["solver_calls"]
        second = engine.solve(sat_instance.packed())
        assert second.from_cache and second.source == "cache"
        assert engine.counters()["solver_calls"] == calls
        assert sat_instance.is_satisfied(second.assignment)

    def test_reordered_formula_hits_same_entry(self, engine, sat_instance):
        engine.solve(sat_instance.packed())
        calls = engine.counters()["solver_calls"]
        reordered = CNFFormula(list(reversed(sat_instance.clauses)))
        assert engine.solve(reordered.packed()).from_cache
        assert engine.counters()["solver_calls"] == calls

    def test_dimacs_roundtrip_hits_same_entry(self, engine, sat_instance):
        engine.solve(sat_instance.packed())
        calls = engine.counters()["solver_calls"]
        again = parse_dimacs(to_dimacs(sat_instance))
        assert engine.solve(again.packed()).from_cache
        assert engine.counters()["solver_calls"] == calls

    def test_unsat_verdict_cached(self, engine):
        unsat = CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert engine.solve(unsat.packed()).status == "unsat"
        second = engine.solve(unsat.packed())
        assert second.status == "unsat" and second.from_cache

    def test_use_cache_false_bypasses(self, engine, sat_instance):
        engine.solve(sat_instance.packed())
        result = engine.solve(sat_instance.packed(), use_cache=False)
        assert not result.from_cache

    def test_poisoned_entry_dropped_and_resolved(self, engine, sat_instance):
        from repro.cnf.assignment import Assignment
        from repro.engine.fingerprint import fingerprint_v2

        # The engine keys its cache by fp-v2, so the poison must too.
        fp = fingerprint_v2(sat_instance)
        bogus = Assignment({v: False for v in sat_instance.variables})
        if sat_instance.is_satisfied(bogus):  # pragma: no cover - paranoia
            pytest.skip("bogus assignment accidentally satisfies")
        engine.cache.put(fp, True, bogus, solver="poison")
        result = engine.solve(sat_instance.packed())
        assert result.status == "sat" and not result.from_cache
        assert sat_instance.is_satisfied(result.assignment)


class TestRevalidationPath:
    def test_valid_hint_short_circuits_solvers(self, engine, sat_instance):
        model = engine.solve(sat_instance.packed()).assignment
        loosened = sat_instance.copy()
        loosened.remove_clause_at(0)
        calls = engine.counters()["solver_calls"]
        result = engine.solve(loosened.packed(), hint=model)
        assert result.status == "sat" and result.source == "revalidation"
        assert engine.counters()["solver_calls"] == calls
        # ... and the revalidated model was cached for next time.
        assert engine.solve(loosened.packed()).from_cache

    def test_stale_hint_falls_through_to_race(self, engine):
        f = CNFFormula([[1], [2]])
        from repro.cnf.assignment import Assignment

        stale = Assignment({1: True, 2: False})
        result = engine.solve(f.packed(), hint=stale)
        assert result.status == "sat"
        assert result.source not in ("cache", "revalidation")
        assert f.is_satisfied(result.assignment)


class TestSharedCache:
    def test_two_engines_one_cache(self, sat_instance):
        shared = SolutionCache()
        with PortfolioEngine(jobs=1, cache=shared) as a:
            a.solve(sat_instance.packed())
        with PortfolioEngine(jobs=1, cache=shared) as b:
            result = b.solve(sat_instance.packed())
            assert result.from_cache
            assert b.counters()["solver_calls"] == 0


class TestWinnerMetadata:
    def test_race_surfaces_winner(self, engine, sat_instance):
        result = engine.solve(sat_instance.packed(), use_cache=False)
        assert result.winner == "cdcl"          # the default lead
        assert result.source == result.winner

    def test_cache_hit_has_no_winner(self, engine, sat_instance):
        engine.solve(sat_instance.packed())
        cached = engine.solve(sat_instance.packed())
        assert cached.from_cache and cached.winner is None

    def test_revalidation_has_no_winner(self, engine, sat_instance):
        model = engine.solve(sat_instance.packed()).assignment
        loosened = sat_instance.copy()
        loosened.remove_clause_at(0)
        result = engine.solve(loosened.packed(), hint=model)
        assert result.source == "revalidation" and result.winner is None

    def test_lead_override_forwarded_to_race(self, engine, sat_instance):
        result = engine.solve(sat_instance.packed(), use_cache=False, lead="dpll")
        assert result.winner == "dpll"


class TestHintOutranksCache:
    def test_valid_hint_beats_older_cached_model(self, engine):
        from repro.cnf.assignment import Assignment

        f = CNFFormula([[1, 2], [2, 3]])
        first = engine.solve(f.packed())                      # caches some model M1
        other = Assignment({1: False, 2: True, 3: False})
        assert f.is_satisfied(other)
        assert other.as_dict() != first.assignment.as_dict()
        result = engine.solve(f.packed(), hint=other)
        assert result.source == "revalidation"
        assert result.assignment.as_dict() == other.as_dict()


class TestSolveMany:
    def test_results_in_input_order(self, engine):
        sat = CNFFormula([[1, 2], [2, 3]])
        unsat = CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        results = engine.solve_many([sat.packed(), unsat.packed()])
        assert [r.status for r in results] == ["sat", "unsat"]
        assert sat.is_satisfied(results[0].assignment)

    def test_intra_batch_dedup_skips_repeat_queries(self, engine, sat_instance):
        # Three semantically identical formulas: the original, a clause
        # reordering, and a DIMACS round trip.
        variants = [
            sat_instance,
            CNFFormula(list(reversed(sat_instance.clauses))),
            parse_dimacs(to_dimacs(sat_instance)),
        ]
        results = engine.solve_many([v.packed() for v in variants])
        assert engine.counters()["batch_dedups"] == 2
        assert [r.source for r in results[1:]] == ["batch-dedup", "batch-dedup"]
        assert all(r.status == "sat" for r in results)
        for variant, result in zip(variants, results):
            assert variant.is_satisfied(result.assignment)

    def test_dedup_results_own_their_models(self, engine, sat_instance):
        # Mutating one batch result's assignment must not leak into its
        # dedup siblings (same invariant as SolutionCache's per-hit copy).
        results = engine.solve_many(
            [sat_instance.packed(), sat_instance.copy().packed()]
        )
        first, second = results
        var = sat_instance.variables[0]
        first.assignment[var] = not first.assignment.get(var)
        assert second.assignment.get(var) != first.assignment.get(var)

    def test_dedup_even_with_cache_bypassed(self, engine, sat_instance):
        results = engine.solve_many(
            [sat_instance.packed(), sat_instance.copy().packed()],
            use_cache=False,
        )
        assert engine.counters()["batch_dedups"] == 1
        assert results[1].source == "batch-dedup"

    def test_unique_instances_each_race(self, engine):
        a = CNFFormula([[1, 2]])
        b = CNFFormula([[1, -2]])
        races = engine.counters()["races"]
        engine.solve_many([a.packed(), b.packed()], use_cache=False)
        assert engine.counters()["races"] == races + 2

    def test_empty_batch(self, engine):
        assert engine.solve_many([]) == []


def _tiny_cache(backend, tmp_path):
    """A capacity-1 cache of the requested backend kind."""
    if backend == "disk":
        from repro.engine.diskcache import DiskCache

        return DiskCache(tmp_path / "cache", max_entries=1)
    return SolutionCache(max_entries=1)


@pytest.mark.parametrize("backend", ["memory", "disk"])
class TestEvictionInterleavedWithBatch:
    """Cache eviction racing solve_many's dedup (both cache backends).

    A capacity-1 cache guarantees every distinct instance evicts its
    predecessor *mid-batch*; a repeat whose cache entry is long gone
    must be re-answered (by batch dedup or a re-solve), never KeyError.
    """

    def test_entry_evicted_mid_batch_still_answered(self, backend, tmp_path):
        a, _ = random_planted_ksat(10, 30, rng=31)
        b, _ = random_planted_ksat(10, 30, rng=32)
        c, _ = random_planted_ksat(10, 30, rng=33)
        with PortfolioEngine(jobs=1, cache=_tiny_cache(backend, tmp_path)) as eng:
            # b evicts a's entry, c evicts b's — yet the repeats of a and
            # b later in the batch are still answered correctly.
            results = eng.solve_many(
                [f.packed() for f in (a, b, a.copy(), c, b.copy())]
            )
            assert [r.status for r in results] == ["sat"] * 5
            assert eng.counters()["batch_dedups"] == 2
            assert results[2].source == "batch-dedup"
            assert results[4].source == "batch-dedup"
            assert eng.cache.stats.evictions >= 2
            assert len(eng.cache) == 1
            for formula, result in zip([a, b, a, c, b], results):
                assert formula.is_satisfied(result.assignment)

    def test_next_batch_re_solves_evicted_entries(self, backend, tmp_path):
        a, _ = random_planted_ksat(10, 30, rng=34)
        b, _ = random_planted_ksat(10, 30, rng=35)
        with PortfolioEngine(jobs=1, cache=_tiny_cache(backend, tmp_path)) as eng:
            eng.solve_many([a.packed(), b.packed()])   # b's store evicted a
            races = eng.counters()["races"]
            second = eng.solve_many([a.copy().packed()])
            # A fresh batch cannot dedup against the old one; the evicted
            # entry forces a genuine re-solve (a race, not a cache hit).
            assert second[0].status == "sat" and not second[0].from_cache
            assert eng.counters()["races"] == races + 1
            assert eng.counters()["batch_dedups"] == 0

    def test_eviction_interleaved_with_unsat_entries(self, backend, tmp_path):
        sat, _ = random_planted_ksat(8, 24, rng=36)
        unsat = CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        with PortfolioEngine(jobs=1, cache=_tiny_cache(backend, tmp_path)) as eng:
            results = eng.solve_many(
                [f.packed() for f in (unsat, sat, unsat.copy(), sat.copy())]
            )
            assert [r.status for r in results] == ["unsat", "sat", "unsat", "sat"]
            assert eng.counters()["batch_dedups"] == 2
