"""Portfolio races under worker chaos: SIGKILLed workers, hung racers,
the solo fallback, and one generation step per replaced worker."""

import pytest

from repro import faults
from repro.cnf.generators import random_planted_ksat
from repro.engine.portfolio import Portfolio


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=6)


class TestWorkerKill:
    def test_killed_workers_fall_back_to_an_in_process_solo_solve(
        self, planted
    ):
        formula, _ = planted
        # p=1,count=1: every forked worker SIGKILLs itself on its first
        # racer (the budget is per process), so every racer the race
        # sends is lost.  The parent never runs _race_entry, so it is
        # immune by construction.
        faults.install("seed=1;worker.kill:p=1,count=1", propagate=True)
        with Portfolio(jobs=2, quick_slice=0.0) as pool:
            gen_before = pool.generation
            result = pool.solve(formula.packed(), seed=0, deadline=60)

            # The verdict survived the massacre via the solo fallback.
            assert result.outcome.status == "sat"
            assert formula.is_satisfied(result.outcome.assignment)
            assert pool.solo_fallbacks == 1

            # Every racer sent died with its worker (the solo run is the
            # last launch); each dead worker was dropped and counted once.
            died = sum(o.detail == "worker died" for o in result.outcomes)
            assert died == result.launched - 1 >= 1
            assert pool.generation == gen_before + died
            health = pool.health()
            assert health["active_races"] == 0
            assert health["pool_alive"] is False

            # With chaos cleared, the next race forks replacements (the
            # children inherit the cleared state) and runs normally.
            faults.clear()
            again = pool.solve(formula.packed(), seed=1, deadline=60)
            assert again.outcome.status == "sat"
            assert pool.solo_fallbacks == 1        # no second fallback
            health = pool.health()
            assert health["pool_alive"] is True
            assert 1 <= health["workers"] <= pool.jobs
            assert health["generation"] == gen_before + died
            assert health["active_races"] == 0

    def test_quick_slice_win_never_reaches_the_pool(self, planted):
        formula, _ = planted
        faults.install("worker.kill:p=1", propagate=True)
        with Portfolio(jobs=2, quick_slice=5.0) as pool:
            result = pool.solve(formula.packed(), seed=0, deadline=60)
            assert result.outcome.status == "sat"
            assert result.via_quick_slice
            assert pool.generation == 0
            assert pool.solo_fallbacks == 0


class TestWorkerHang:
    def test_hung_racers_do_not_stall_the_race(self, planted):
        formula, _ = planted
        # Each worker's first racer stalls 0.3 s then returns undecided;
        # the race outlives it on the remaining configurations.
        faults.install(
            "seed=2;worker.hang:p=1,count=1,delay=0.3", propagate=True
        )
        with Portfolio(jobs=2, quick_slice=0.0) as pool:
            result = pool.solve(formula.packed(), seed=0, deadline=60)
            assert result.outcome.status == "sat"
            assert formula.is_satisfied(result.outcome.assignment)

    def test_health_snapshot_shape(self):
        with Portfolio(jobs=1) as pool:
            health = pool.health()
        assert set(health) == {
            "generation", "pool_alive", "active_races", "workers",
            "orphans", "solo_fallbacks", "total_launched", "jobs",
        }
