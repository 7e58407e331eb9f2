"""PortfolioEngine: cache hits, hint revalidation, race fallback."""

import sys
import threading
import time

import pytest

from repro.cnf.dimacs import parse_dimacs, to_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine import engine as engine_mod
from repro.engine.adapters import ADAPTERS, build_adapter
from repro.engine.cache import SolutionCache
from repro.engine.engine import PortfolioEngine
from repro.obs import tracing
from repro.obs.tracing import Tracer

from test_single_flight import SlowAdapter, slow_engine as make_slow_engine


@pytest.fixture
def engine():
    # jobs=1 keeps these unit tests in-process; pool racing is covered by
    # test_portfolio.py.
    with PortfolioEngine(jobs=1) as eng:
        yield eng


@pytest.fixture
def uncached():
    """An engine whose cache holds nothing: every query races."""
    with PortfolioEngine(jobs=1, cache=SolutionCache(max_entries=0)) as eng:
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


class TestHealth:
    def test_every_cache_backend_answers_health(self, tmp_path):
        from repro.engine.diskcache import DiskCache

        memory = {"backend": "memory", "degraded": False, "errors": 0}
        assert SolutionCache().health() == memory
        with PortfolioEngine(jobs=1) as eng:
            health = eng.health()
        assert set(health) == {"pool", "cache", "inflight_fingerprints"}
        assert health["cache"] == memory
        with PortfolioEngine(jobs=1, cache=DiskCache(tmp_path / "c")) as eng:
            assert set(eng.health()["cache"]) == {
                "backend", "degraded", "errors", "overlay_entries", "sync_cursor",
            }


class TestWinnerMetadata:
    def test_race_surfaces_winner(self, uncached, sat_instance):
        result = uncached.solve(sat_instance.packed())
        assert result.winner == "cdcl"          # first in the default line-up
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


@pytest.fixture
def slow_kind(monkeypatch):
    """The sibling module's sleeping solver: a race on it stays in
    flight long enough for a second query to arrive."""
    monkeypatch.setitem(ADAPTERS, "slow", SlowAdapter)


@pytest.fixture
def slow_engine(slow_kind):
    with make_slow_engine(0.5) as eng:
        yield eng


def _race_in_background(engine, formula, ctx=None):
    """Start a race on *formula* in a thread; return once it is in flight."""
    def lead():
        with tracing.activated(ctx):
            engine.solve(formula.packed(), seed=0)

    thread = threading.Thread(target=lead)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not engine._inflight and time.monotonic() < deadline:
        time.sleep(0.005)
    assert engine._inflight, "the race never went in flight"
    return thread


class _CountingLock:
    """Wraps the engine lock and counts its acquisitions."""

    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestOneQueryPath:
    """Fingerprint, the caller's hint, the cache, and only on a miss the
    in-flight table and the race."""

    def test_a_valid_hint_does_not_wait_for_a_concurrent_race(self, slow_engine):
        f, _ = random_planted_ksat(12, 36, rng=3)
        hint = build_adapter("cdcl").solve_packed(f.packed(), seed=1).assignment
        leader = _race_in_background(slow_engine, f)
        t0 = time.perf_counter()
        answer = slow_engine.solve(CNFFormula(f.clauses).packed(), hint=hint)
        waited = time.perf_counter() - t0
        leader.join(timeout=10)
        counters = slow_engine.counters()
        assert answer.source == "revalidation"
        assert answer.assignment.as_dict() == hint.as_dict()
        assert waited < 0.25                 # the race takes 0.5 s
        assert counters["races"] == 1
        assert counters["revalidations"] == 1
        assert counters["inflight_joins"] == 0

    def test_a_miss_during_a_race_joins_it(self, slow_engine):
        f, _ = random_planted_ksat(12, 36, rng=3)
        leader = _race_in_background(slow_engine, f)
        stale = build_adapter("cdcl").solve_packed(f.packed(), seed=1).assignment
        stale[min(f.variables)] = not stale[min(f.variables)]
        hint = stale if not f.is_satisfied(stale) else None
        answer = slow_engine.solve(CNFFormula(f.clauses).packed(), hint=hint)
        leader.join(timeout=10)
        counters = slow_engine.counters()
        assert answer.source == "inflight-join"
        assert f.is_satisfied(answer.assignment)
        assert counters["races"] == 1 and counters["inflight_joins"] == 1
        assert slow_engine.cache.stats.misses == 2      # both looked first

    def test_cache_hits_build_no_flight(self, engine, sat_instance, monkeypatch):
        engine.solve(sat_instance.packed())
        built = []
        real = engine_mod._InFlight

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(engine_mod, "_InFlight", counting)
        for _ in range(20):
            assert engine.solve(sat_instance.packed()).source == "cache"
        assert built == []
        assert engine._inflight == {}

    def test_a_cache_hit_takes_the_engine_lock_once(self, engine, sat_instance):
        engine.solve(sat_instance.packed())
        engine.lock = counting = _CountingLock(engine.lock)
        for _ in range(20):
            assert engine.solve(sat_instance.packed()).source == "cache"
        assert counting.acquired == 20

    def test_concurrent_misses_race_each_instance_once(self):
        # More threads than cores, a short switch interval: a miss that
        # fell between a leader's store and its flight's retirement
        # would start a second race on the same fingerprint.
        formulas = [random_planted_ksat(10, 30, rng=60 + i)[0] for i in range(8)]
        n = 6
        barrier = threading.Barrier(n)
        errors: list = []

        def work(engine, i):
            try:
                barrier.wait()
                for k in range(3 * len(formulas)):
                    f = formulas[(i + k) % len(formulas)]
                    engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PortfolioEngine(jobs=1) as engine:
                threads = [
                    threading.Thread(target=work, args=(engine, i))
                    for i in range(n)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                counters = engine.counters()
                inflight = dict(engine._inflight)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert counters["races"] == len(formulas)
        assert counters["solves"] == n * 3 * len(formulas) == (
            counters["cache_hits"] + counters["revalidations"]
            + counters["races"] + counters["batch_dedups"]
            + counters["inflight_joins"]
        )
        assert inflight == {}

    def test_stage_tiers_and_parentage(self, slow_kind):
        tracer = Tracer()
        tracing.install(tracer)
        engine = make_slow_engine(0.2)
        try:
            root = tracer.begin("daemon.solve")
            f, _ = random_planted_ksat(12, 36, rng=3)
            unsat = CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
            with tracing.activated(root.context):
                model = engine.solve(f.packed(), seed=0).assignment   # miss
                engine.solve(f.packed())                              # hit-sat
                engine.solve(unsat.packed())                          # miss
                engine.solve(unsat.packed())                          # hit-unsat
                loosened = f.copy()
                loosened.remove_clause_at(0)
                engine.solve(loosened.packed(), hint=model)           # revalidation
                bogus = model.copy()
                for var in f.variables:
                    bogus[var] = not bogus[var]
                assert not loosened.is_satisfied(bogus)
                with engine.lock:
                    engine.cache.put(
                        loosened.packed().fingerprint(), True, bogus
                    )
                engine.solve(loosened.packed())                       # invalidated
                other, _ = random_planted_ksat(12, 36, rng=4)
                leader = _race_in_background(engine, other, root.context)
                engine.solve(other.packed())                          # joins
                leader.join(timeout=10)
        finally:
            tracing.install(None)
            engine.close()
        spans = tracer.spans()
        by_id = {s["span"]: s for s in spans}
        tiers = [s["tags"]["tier"] for s in spans if s["name"] == "cache.lookup"]
        assert sorted(set(tiers)) == [
            "hit-sat", "hit-unsat", "invalidated", "miss", "revalidation",
        ]
        for s in spans:
            parent = by_id.get(s["parent"], {}).get("name")
            if s["name"] in ("fingerprint", "engine.solve", "inflight.join"):
                assert s["parent"] == root.span_id, s["name"]
            elif s["name"] == "cache.lookup":
                assert parent == "engine.solve"
        (join,) = [s for s in spans if s["name"] == "inflight.join"]
        assert by_id[join["tags"]["leader"]]["name"] == "engine.solve"


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

    def test_dedup_even_with_cache_bypassed(self, uncached, sat_instance):
        results = uncached.solve_many(
            [sat_instance.packed(), sat_instance.copy().packed()]
        )
        assert uncached.counters()["batch_dedups"] == 1
        assert results[1].source == "batch-dedup"

    def test_unique_instances_each_race(self, uncached):
        a = CNFFormula([[1, 2]])
        b = CNFFormula([[1, -2]])
        races = uncached.counters()["races"]
        uncached.solve_many([a.packed(), b.packed()])
        assert uncached.counters()["races"] == races + 2

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
