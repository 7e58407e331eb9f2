"""Portfolio racing: quick slice, process pool, sequential fallback."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine import portfolio
from repro.engine.config import SolverConfig, default_portfolio_configs
from repro.engine.portfolio import Portfolio, run_packed
from repro.engine.protocol import SAT, SolverOutcome, UNKNOWN, UNSAT


@dataclass(frozen=True)
class SleepyAdapter:
    """Test double: blocks past any deadline, then answers ``sat``.

    Module-level so forked pool workers can rebuild it from its config.
    """

    name: str = "sleepy"
    complete: bool = True
    naptime: float = 0.4

    def solve_packed(self, packed, *, deadline=None, seed=None, hint=None):
        time.sleep(self.naptime)
        return SolverOutcome(SAT, Assignment({1: True}), self.name, self.naptime)


@dataclass(frozen=True)
class LoserAdapter(SleepyAdapter):
    """Test double: an incomplete racer that sleeps 30 s past any deadline."""

    name: str = "loser"
    complete: bool = False
    naptime: float = 30.0


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))


def _python(code: str):
    """Run *code* in a fresh interpreter; capture its output."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=_checkout_env(),
    )


@pytest.fixture(scope="module")
def sat_instance():
    f, _ = random_planted_ksat(25, 90, rng=4)
    return f


@pytest.fixture(scope="module")
def unsat_instance():
    return CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])


class TestQuickSlice:
    def test_easy_instance_decided_without_pool(self, sat_instance):
        p = Portfolio(jobs=4)
        result = p.solve(sat_instance.packed(), seed=0)
        assert result.outcome.status == SAT
        assert result.via_quick_slice
        assert not p._workers           # no worker was ever forked
        p.close()

    def test_unsat_decided_in_slice(self, unsat_instance):
        with Portfolio(jobs=4) as p:
            result = p.solve(unsat_instance.packed(), seed=0)
            assert result.outcome.status == UNSAT
            assert result.via_quick_slice


class TestProcessPoolRace:
    def test_pool_race_sat(self, sat_instance):
        with Portfolio(jobs=2, quick_slice=0.0) as p:
            result = p.solve(sat_instance.packed(), seed=0)
            assert result.outcome.status == SAT
            assert sat_instance.is_satisfied(result.outcome.assignment)
            assert result.winner is not None
            # Only racers sent before the winner answered count.
            assert 1 <= result.launched <= len(p.configs)

    def test_pool_race_unsat(self, unsat_instance):
        with Portfolio(jobs=2, quick_slice=0.0) as p:
            result = p.solve(unsat_instance.packed(), seed=0)
            assert result.outcome.status == UNSAT

    def test_pool_reuse_across_races(self, sat_instance, unsat_instance):
        with Portfolio(jobs=2, quick_slice=0.0) as p:
            results = [
                p.solve(sat_instance.packed(), seed=0),
                p.solve(unsat_instance.packed(), seed=0),
                p.solve(sat_instance.packed(), seed=1),
            ]
            assert [r.outcome.status for r in results] == [SAT, UNSAT, SAT]
            assert p.total_launched == sum(r.launched for r in results)

    def test_forked_ilp_racers_answer_after_parent_used_highs(self, sat_instance):
        # HiGHS may start worker threads in the process that first calls
        # it; forked pool workers inherit its state without the threads
        # and must still finish their own LP relaxations.
        import numpy as np

        from repro.ilp.lp_backend import ScipyBackend

        lp = ScipyBackend().solve(
            np.array([-1.0, -1.0]), np.array([[1.0, 2.0]]), np.array([3.0]),
            None, None, [(0.0, 1.0), (0.0, 1.0)],
        )
        assert lp.objective == pytest.approx(-2.0)
        configs = [
            SolverConfig.make("ilp-a", "ilp-exact"),
            SolverConfig.make("ilp-b", "ilp-exact", seed_offset=1),
        ]
        with Portfolio(configs=configs, jobs=2, quick_slice=0.0) as p:
            for seed in range(2):
                result = p.solve(sat_instance.packed(), deadline=60.0, seed=seed)
                assert result.outcome.status == SAT
                assert result.winner in ("ilp-a", "ilp-b")
                assert sat_instance.is_satisfied(result.outcome.assignment)

    def test_workers_die_on_sigterm_despite_a_parent_handler(self):
        """``repro serve`` handles SIGTERM as "drain"; forked workers must
        not inherit that, or a ``terminate()`` does nothing."""
        code = """
import os, signal, sys
signal.signal(signal.SIGTERM, lambda *_: None)
from repro.engine.portfolio import Portfolio
p = Portfolio(jobs=2, quick_slice=0.0)
p.warm_up()
procs = [worker.proc for worker in p._workers]
procs[0].terminate()
procs[0].join(2.0)
dead = not procs[0].is_alive()
for proc in procs:
    if proc.is_alive():
        os.kill(proc.pid, signal.SIGKILL)
print("dead" if dead else "alive", flush=True)
os._exit(0)
"""
        out = _python(code)
        assert out.stdout.strip() == "dead", out.stderr

    def test_workers_exit_when_their_parent_is_sigkilled(self):
        """A SIGKILLed parent tears nothing down; its orphaned workers must
        exit by themselves instead of blocking on their pipe forever
        while holding every descriptor they inherited."""
        import signal

        code = """
import os, signal
from repro.engine.portfolio import Portfolio
p = Portfolio(jobs=2, quick_slice=0.0)
p.warm_up()
print(*(worker.proc.pid for worker in p._workers), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        child = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
            env=_checkout_env(),
        )
        pids: list[int] = []
        try:
            # One line, not EOF: surviving workers would hold the pipe open.
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
            child.wait(timeout=30)
            deadline = time.monotonic() + 3.0
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in pids if running(pid)]
            assert not survivors, f"workers {survivors} outlived their parent"
        finally:
            for pid in filter(running, pids):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            child.stdout.close()
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_a_process_that_raced_exits_cleanly(self):
        """Pool races, ``close()``, then interpreter exit: no atexit hook
        may write to a pipe that ``close()`` already shut."""
        code = """
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine.portfolio import Portfolio
sat, _ = random_planted_ksat(25, 90, rng=4)
unsat = CNFFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
p = Portfolio(jobs=2, quick_slice=0.0)
for formula in (sat, unsat, sat):
    p.solve(formula.packed(), seed=0)
p.close()
"""
        out = _python(code)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""


class TestWorkerLeases:
    def test_losers_never_delay_the_next_race(self, sat_instance, monkeypatch):
        # Two incomplete racers that ignore their deadline fill both
        # workers and outlive a race cut at 0.2 s.  The next race must not
        # wait 30 s for them: it kills an orphan and forks a replacement.
        from repro.engine import adapters

        monkeypatch.setitem(adapters.ADAPTERS, "loser", LoserAdapter)
        configs = [
            SolverConfig.make("loser-a", "loser"),
            SolverConfig.make("loser-b", "loser"),
            SolverConfig.make("cdcl", "cdcl"),
        ]
        with Portfolio(configs=configs, jobs=2, quick_slice=0.0) as p:
            cut = p.solve(sat_instance.packed(), deadline=0.2, seed=0)
            assert cut.outcome.status == UNKNOWN
            p.configs = [configs[2], configs[0], configs[1]]  # cdcl first
            t0 = time.perf_counter()
            result = p.solve(sat_instance.packed(), seed=0)
            elapsed = time.perf_counter() - t0
        assert result.outcome.status == SAT
        assert result.winner == "cdcl"
        assert elapsed < 2.0

    def test_back_to_back_races_do_not_churn_workers(self):
        instances = [random_planted_ksat(25, 90, rng=100 + i)[0] for i in range(30)]
        with Portfolio(jobs=2, quick_slice=0.0) as p:
            for formula in instances:
                assert p.solve(formula.packed(), seed=0).outcome.status == SAT
            health = p.health()
        assert health["generation"] == 0       # no worker killed or lost
        assert health["workers"] <= p.jobs

    def test_concurrent_races_keep_every_worker_accounted(self):
        # More racing threads than workers and cores, with a short switch
        # interval: once every race is over, each live worker must be
        # exactly one of idle or orphaned, none lost, none twice.
        instances = [random_planted_ksat(20, 80, rng=300 + i)[0] for i in range(24)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Portfolio(jobs=2, quick_slice=0.0) as p:
                chunks = [instances[i::4] for i in range(4)]
                per_thread: list[list] = [[] for _ in chunks]

                def race(chunk, out):
                    out.extend(p.solve(f.packed(), seed=0) for f in chunk)

                threads = [
                    threading.Thread(target=race, args=(chunk, out))
                    for chunk, out in zip(chunks, per_thread)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
                with p._lock:
                    idle, orphans = list(p._idle), list(p._orphans)
                    assert p._active == 0
                    assert len(idle) + len(orphans) == len(p._workers) <= p.jobs
                    assert set(idle) | set(orphans) == p._workers
                results = [r for out in per_thread for r in out]
                assert p.total_launched == sum(r.launched for r in results)
        finally:
            sys.setswitchinterval(previous)
        assert len(results) == len(instances)
        assert all(r.outcome.status == SAT for r in results)

    def test_a_blocked_lease_keeps_the_deadline(self, monkeypatch):
        # Two races keep both workers busy with 5 s sleepers; a third race
        # finds no worker and no orphan, and must give up at its deadline.
        from repro.engine import adapters

        monkeypatch.setitem(adapters.ADAPTERS, "sleepy", SleepyAdapter)
        configs = [SolverConfig.make("sleepy", "sleepy", naptime=5.0)]
        packed = CNFFormula([[1]]).packed()
        with Portfolio(configs=configs, jobs=2, quick_slice=0.0) as p:
            p.warm_up()
            busy = [
                threading.Thread(
                    target=p.solve, args=(packed,), kwargs={"deadline": 1.0}
                )
                for _ in range(2)
            ]
            for thread in busy:
                thread.start()
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up:
                with p._lock:
                    if p._active == 2 and not p._idle:
                        break
                time.sleep(0.01)
            t0 = time.perf_counter()
            result = p.solve(packed, deadline=0.3, seed=0)
            elapsed = time.perf_counter() - t0
            for thread in busy:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        assert result.outcome.status == UNKNOWN
        assert elapsed < 1.5


class TestSequentialFallback:
    def test_jobs_one_never_forks(self, sat_instance):
        p = Portfolio(jobs=1, quick_slice=0.0)
        result = p.solve(sat_instance.packed(), seed=0)
        assert result.outcome.status == SAT
        assert not p._workers
        # first definitive answer stops the scan
        assert result.launched <= len(p.configs)

    def test_parallel_deadline_enforced_by_parent(self):
        # More configs than workers: queued racers restart their own budget
        # when picked up, so only the parent's wait-loop cut keeps the race
        # inside the caller's deadline.
        hard, _ = random_planted_ksat(150, 640, rng=9)
        configs = [
            SolverConfig.make(
                f"ws{i}", "walksat", seed_offset=i,
                max_flips=10**9, max_restarts=10**6,
            )
            for i in range(4)
        ]
        with Portfolio(configs=configs, jobs=2, quick_slice=0.0) as p:
            t0 = time.perf_counter()
            result = p.solve(hard.packed(), deadline=0.3, seed=0)
            elapsed = time.perf_counter() - t0
        assert result.outcome.status in (SAT, UNKNOWN)
        assert elapsed < 2.0

    def test_deadline_all_unknown(self):
        hard, _ = random_planted_ksat(150, 640, rng=9)
        incomplete = [
            SolverConfig.make("ws-a", "walksat", max_flips=10**9),
            SolverConfig.make("ws-b", "walksat", seed_offset=7, max_flips=10**9),
        ]
        p = Portfolio(configs=incomplete, jobs=1, quick_slice=0.0)
        result = p.solve(hard.packed(), deadline=0.02, seed=0)
        # WalkSAT may get lucky within 20ms, but must never claim UNSAT.
        assert result.outcome.status in (SAT, UNKNOWN)

    def test_empty_lineup_rejected(self, sat_instance):
        with pytest.raises(ValueError):
            Portfolio(configs=[], quick_slice=0.0).solve(sat_instance.packed())


class TestConfigs:
    def test_default_lineup_shape(self):
        configs = default_portfolio_configs()
        names = [c.name for c in configs]
        assert names[0] == "cdcl"           # complete lead for the quick slice
        assert names[1] == "dpll"           # chronological cross-check next
        assert len(names) == len(set(names))
        assert any(c.kind == "ilp-exact" for c in configs)

    def test_run_packed_maps_crash_to_unknown(self, sat_instance):
        bad = SolverConfig.make("bad", "walksat", no_such_param=1)  # TypeError inside
        out = run_packed(bad, sat_instance.packed())
        assert out.status == UNKNOWN and "error" in out.detail

    def test_seed_offset_diversifies_deterministically(self, sat_instance):
        base = SolverConfig.make("ws", "walksat")
        off = SolverConfig.make("ws2", "walksat", seed_offset=50)
        packed = sat_instance.packed()
        a1 = run_packed(base, packed, seed=3)
        a2 = run_packed(base, packed, seed=3)
        b = run_packed(off, packed, seed=3)
        assert a1.assignment.as_dict() == a2.assignment.as_dict()
        assert a1.status == b.status == SAT


class TestWinnerSurvivesCancellation:
    def test_drain_window_win_is_not_dropped(self, monkeypatch):
        # Both racers block past the deadline; the parent's wait loop cuts
        # the race, and then a racer crosses the line inside the
        # drain window.  Its verdict used to be discarded ("deadline
        # exceeded"); it must win and be credited by name.
        from repro.engine import adapters

        monkeypatch.setitem(adapters.ADAPTERS, "sleepy", SleepyAdapter)
        configs = [
            SolverConfig.make("sleepy", "sleepy"),
            SolverConfig.make("sleepy-2", "sleepy", naptime=0.5),
        ]
        f = CNFFormula([[1]])
        monkeypatch.setattr(portfolio, "DRAIN", 5.0)
        with Portfolio(configs=configs, jobs=2, quick_slice=0.0) as p:
            result = p.solve(f.packed(), deadline=0.05, seed=0)
        assert result.outcome.status == SAT
        assert result.winner in ("sleepy", "sleepy-2")


class TestUnsatTrustGate:
    def test_incomplete_solver_cannot_win_with_unsat(self, sat_instance, monkeypatch):
        from dataclasses import dataclass

        from repro.engine import adapters
        from repro.engine.protocol import SolverOutcome

        @dataclass(frozen=True)
        class LyingAdapter:
            name: str = "liar"
            complete: bool = False     # incomplete: its UNSAT is no proof

            def solve_packed(self, packed, *, deadline=None, seed=None,
                             hint=None):
                return SolverOutcome(UNSAT, None, self.name, 0.0, "guess")

        monkeypatch.setitem(adapters.ADAPTERS, "liar", LyingAdapter)
        configs = [SolverConfig.make("liar", "liar")]
        p = Portfolio(configs=configs, jobs=1, quick_slice=0.0)
        result = p.solve(sat_instance.packed(), seed=0)
        assert result.outcome.status == UNKNOWN    # the guess did not win
        assert result.winner is None
