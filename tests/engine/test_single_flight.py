"""PR 7 concurrency semantics: single-flight coalescing + overlapping races.

The engine-level contract under concurrent load:

* identical fingerprints coalesce — one race, N-1 ``inflight_joins``,
  each joiner owning an independent copy of the model;
* distinct fingerprints overlap end-to-end (no engine-wide lock), both
  in-process (quick slice) and over the shared worker pool;
* the stats identity ``solves == cache_hits + revalidations + races +
  batch_dedups + inflight_joins`` holds exactly at any observation point.
"""

import threading
import time

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine.adapters import ADAPTERS, build_adapter
from repro.engine.config import SolverConfig
from repro.engine.engine import PortfolioEngine


class SlowAdapter:
    """A correct solver that takes its time: sleeps (releasing the GIL),
    then delegates to DPLL — so overlap is measurable deterministically."""

    complete = True

    def __init__(self, name="slow", delay=0.15):
        self.name = name
        self.delay = float(delay)

    def solve_packed(self, packed, *, deadline=None, seed=None, hint=None):
        time.sleep(self.delay)
        return build_adapter("dpll", name=self.name).solve_packed(
            packed, deadline=deadline, seed=seed, hint=hint
        )


@pytest.fixture
def slow_kind(monkeypatch):
    monkeypatch.setitem(ADAPTERS, "slow", SlowAdapter)
    return "slow"


def slow_engine(delay, jobs=1):
    return PortfolioEngine(
        configs=[SolverConfig.make("slow", "slow", delay=delay)],
        jobs=jobs,
        quick_slice=10.0,   # the in-process slice always decides
    )


def run_threads(n, fn):
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def work(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    return results


class TestSingleFlight:
    def test_same_fingerprint_one_race_n_minus_one_joins(self, slow_kind):
        f, _ = random_planted_ksat(12, 36, rng=3)
        n = 4
        with slow_engine(delay=0.3) as engine:
            results = run_threads(
                n, lambda i: engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            )
            stats = engine.counters()
        assert all(r.status == "sat" for r in results)
        assert all(f.is_satisfied(r.assignment) for r in results)
        assert stats["solves"] == n
        assert stats["races"] == 1
        assert stats["inflight_joins"] == n - 1
        sources = sorted(r.source for r in results)
        assert sources.count("inflight-join") == n - 1
        # Every caller owns its model: mutating one must not leak into
        # the others (or into the cached copy).
        assert len({id(r.assignment) for r in results}) == n
        victim = next(r for r in results if r.source == "inflight-join")
        var = min(f.variables)
        victim.assignment[var] = not victim.assignment[var]
        for other in results:
            if other is not victim:
                assert f.is_satisfied(other.assignment)

    def test_joiner_after_completion_hits_cache_not_join(self, slow_kind):
        f, _ = random_planted_ksat(10, 30, rng=4)
        with slow_engine(delay=0.01) as engine:
            first = engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            second = engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            stats = engine.counters()
        assert first.source != "inflight-join"
        assert second.source == "cache"
        assert stats["inflight_joins"] == 0
        assert engine._inflight == {}

    def test_leader_error_propagates_to_joiners(self, slow_kind):
        f, _ = random_planted_ksat(10, 30, rng=5)
        boom = RuntimeError("leader exploded")
        engine = slow_engine(delay=0.3)
        original = engine.portfolio.solve

        def exploding(*args, **kwargs):
            time.sleep(0.3)
            raise boom

        engine.portfolio.solve = exploding
        try:
            outcomes = run_threads(3, lambda i: _capture(
                lambda: engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            ))
            # Leader and joiners all observe the failure; the in-flight
            # table is clean so the next query starts a fresh race.
            assert all(isinstance(o, RuntimeError) for o in outcomes)
            assert engine._inflight == {}
            engine.portfolio.solve = original
            recovered = engine.solve(CNFFormula(f.clauses).packed(), seed=0)
            assert recovered.status == "sat"
        finally:
            engine.close()


def _capture(fn):
    try:
        return fn()
    except Exception as exc:
        return exc


class TestDistinctFingerprintOverlap:
    def test_in_process_queries_overlap(self, slow_kind):
        delay, n = 0.2, 3
        instances = [random_planted_ksat(12, 36, rng=i)[0] for i in range(n)]
        with slow_engine(delay=delay) as engine:
            t0 = time.perf_counter()
            results = run_threads(n, lambda i: engine.solve(instances[i].packed(), seed=0))
            wall = time.perf_counter() - t0
            stats = engine.counters()
        assert all(r.status == "sat" for r in results)
        assert stats["races"] == n and stats["inflight_joins"] == 0
        # Serialized execution would take >= n * delay; overlapping
        # sleeps (the GIL is released) must beat that with real margin.
        assert wall < (n - 1) * delay

    def test_pool_races_share_one_executor(self):
        n = 3
        instances = [random_planted_ksat(12, 36, rng=10 + i)[0] for i in range(n)]
        with PortfolioEngine(jobs=2, quick_slice=0.0) as engine:
            engine.warm_up()
            results = run_threads(n, lambda i: engine.solve(instances[i].packed(), seed=0))
            stats = engine.counters()
            portfolio = engine.portfolio
            with portfolio._lock:
                assert portfolio._active == 0
            assert portfolio.health()["workers"] <= portfolio.jobs
        assert all(r.status == "sat" for r in results)
        assert stats["races"] == n
        assert stats["transport_bytes"] > 0


class TestStatsInvariantUnderLoad:
    def test_identity_holds_under_concurrent_mixed_load(self):
        sat_instances = [
            random_planted_ksat(10, 30, rng=20 + i)[0] for i in range(3)
        ]
        with PortfolioEngine(jobs=1) as engine:
            def mixed(i):
                for round_index in range(4):
                    # Same instances from every thread: some solves race,
                    # some coalesce, some hit the cache — all paths live.
                    f = sat_instances[(i + round_index) % len(sat_instances)]
                    engine.solve(CNFFormula(f.clauses).packed(), seed=0)
                engine.solve_many(
                    [CNFFormula(sat_instances[0].clauses).packed(),
                     CNFFormula(sat_instances[0].clauses).packed()],
                    seed=0,
                )

            run_threads(6, mixed)
            stats = engine.counters()
        assert stats["solves"] == 6 * (4 + 2)
        assert stats["solves"] == (
            stats["cache_hits"] + stats["revalidations"] + stats["races"]
            + stats["batch_dedups"] + stats["inflight_joins"]
        )
