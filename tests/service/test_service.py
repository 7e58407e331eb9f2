"""SolverService: the one facade over flow, engine, and sessions."""

import sys
import threading
import time

import pytest

from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.engine.config import EngineConfig
from repro.engine.diskcache import DiskCache
from repro.engine.engine import PortfolioEngine
from repro.errors import ServiceError
from repro.obs.metrics import ENGINE_COUNTERS
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import PendingSolve, SolverService


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=5)


@pytest.fixture
def service():
    with SolverService(EngineConfig(jobs=1)) as svc:
        yield svc


def _breaking_clause(formula, model, width=2):
    lits = []
    for var in sorted(formula.variables):
        if model.is_assigned(var):
            lits.append(-var if model[var] else var)
        if len(lits) == width:
            break
    return Clause(lits)


class TestStatelessSolve:
    def test_portfolio_sat(self, service, planted):
        f, _ = planted
        response = service.solve(SolveRequest(formula=f, seed=0))
        assert response.status == "sat"
        assert f.is_satisfied(response.assignment)
        assert response.fingerprint

    def test_portfolio_unsat_is_a_response_not_an_exception(self, service):
        response = service.solve(SolveRequest(formula=CNFFormula([[1], [-1]])))
        assert response.status == "unsat" and response.assignment is None

    def test_packed_bytes_source(self, service, planted):
        f, _ = planted
        payload = f.packed().to_bytes()
        response = service.solve(SolveRequest(packed_bytes=payload, seed=0))
        assert response.status == "sat"

    def test_repeated_query_hits_the_cache(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, seed=0))
        response = service.solve(SolveRequest(formula=f.copy(), seed=0))
        assert response.from_cache and response.source == "cache"

    def test_single_solver_strategy(self, service, planted):
        f, _ = planted
        response = service.solve(SolveRequest(formula=f, strategy="cdcl", seed=0))
        assert response.status == "sat" and response.winner == "cdcl"
        assert service.engine.counters()["solves"] == 0   # engine untouched

    def test_ilp_strategy(self, service, planted):
        f, _ = planted
        response = service.solve(SolveRequest(formula=f, strategy="ilp", seed=0))
        assert response.status == "sat" and response.source == "ilp"
        assert f.is_satisfied(response.assignment)

    def test_ilp_strategy_unsat(self, service):
        response = service.solve(SolveRequest(
            formula=CNFFormula([[1], [-1]]), strategy="ilp"
        ))
        assert response.status == "unsat"

    def test_unknown_strategy_rejected(self, service, planted):
        f, _ = planted
        with pytest.raises(ServiceError, match="unknown strategy"):
            service.solve(SolveRequest(formula=f, strategy="quantum"))


class TestSessions:
    def test_open_change_resolve_loop(self, service, planted):
        f, _ = planted
        opened = service.solve(SolveRequest(formula=f, session="t1", seed=0))
        assert opened.status == "sat" and opened.session == "t1"

        # Loosening batch: answered by revalidation, zero solver runs.
        victim = service.session("t1").formula.clauses[0]
        calls = service.engine.counters()["solver_calls"]
        changed = service.change(ChangeRequest(
            "t1", ChangeSet([RemoveClause(victim), AddVariable()]), seed=0,
        ))
        assert changed.status == "sat"
        assert changed.regime == "loosening"
        assert changed.source == "revalidation"
        assert service.engine.counters()["solver_calls"] == calls

    def test_tightening_change_races_with_cdcl_lead(self, service, planted):
        f, _ = planted
        opened = service.solve(SolveRequest(formula=f, session="t", seed=0))
        breaking = _breaking_clause(
            service.session("t").formula, opened.assignment
        )
        calls = service.engine.counters()["solver_calls"]
        response = service.change(ChangeRequest(
            "t", ChangeSet([AddClause(breaking)]), seed=0,
        ))
        assert response.regime == "tightening"
        if response.status == "sat":
            assert service.session("t").formula.is_satisfied(response.assignment)
            assert service.engine.counters()["solver_calls"] > calls

    def test_force_mode_runs_a_full_engine_query(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="t", seed=0))
        victim = service.session("t").formula.clauses[0]
        solves = service.engine.counters()["solves"]
        response = service.change(ChangeRequest(
            "t", ChangeSet([RemoveClause(victim)]), ec_mode="force", seed=0,
        ))
        # Force mode bypasses the session's O(1) fast path: the engine
        # ran a query (the hint revalidation answered it — no race).
        assert response.status == "sat"
        assert service.engine.counters()["solves"] == solves + 1

    def test_many_sessions_share_one_engine(self, service):
        # The multi-tenant headline: N sessions, one pool, one cache.
        for i in range(4):
            f, _ = random_planted_ksat(10, 30, rng=20 + i)
            service.solve(SolveRequest(formula=f, session=f"s{i}", seed=0))
        assert service.session_names == ("s0", "s1", "s2", "s3")
        engines = {id(service.session(f"s{i}").engine) for i in range(4)}
        assert engines == {id(service.engine)}

    def test_sessions_share_the_verdict_cache(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="a", seed=0))
        hits = service.engine.cache.stats.hits
        response = service.solve(SolveRequest(formula=f.copy(), session="b", seed=0))
        assert response.status == "sat"
        assert service.engine.cache.stats.hits > hits

    def test_requery_existing_session_without_source(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="t", seed=0))
        response = service.solve(SolveRequest(session="t", seed=0))
        assert response.status == "sat" and response.session == "t"

    def test_session_request_rejects_a_caller_hint(self, service, planted):
        f, _ = planted
        from repro.cnf.assignment import Assignment

        service.solve(SolveRequest(formula=f, session="t", seed=0))
        with pytest.raises(ServiceError, match="hint"):
            service.solve(SolveRequest(
                session="t", hint=Assignment({1: True}),
            ))

    def test_open_duplicate_session_rejected(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="t", seed=0))
        with pytest.raises(ServiceError, match="already exists"):
            service.solve(SolveRequest(formula=f.copy(), session="t"))

    def test_unknown_session_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown session"):
            service.solve(SolveRequest(session="ghost"))
        with pytest.raises(ServiceError, match="unknown session"):
            service.change(ChangeRequest("ghost", ChangeSet()))

    def test_close_session_keeps_the_engine_up(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="t", seed=0))
        assert service.close_session("t")
        assert not service.close_session("t")
        # The shared engine is still serving.
        assert service.solve(SolveRequest(formula=f.copy(), seed=0)).status == "sat"


class TestSubmit:
    def test_submit_returns_pending_responses(self, service):
        pendings = []
        for i in range(4):
            f, _ = random_planted_ksat(10, 30, rng=40 + i)
            pendings.append(service.submit(SolveRequest(formula=f, seed=0)))
        assert all(isinstance(p, PendingSolve) for p in pendings)
        responses = [p.result(timeout=60) for p in pendings]
        assert all(r.status == "sat" for r in responses)
        assert all(p.done() for p in pendings)

    def test_submit_change_requests(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, session="t", seed=0))
        victim = service.session("t").formula.clauses[0]
        pending = service.submit(ChangeRequest(
            "t", ChangeSet([RemoveClause(victim)]), seed=0,
        ))
        assert pending.result(timeout=60).source == "revalidation"

    def test_submit_surfaces_request_errors(self, service):
        pending = service.submit(SolveRequest(session="ghost"))
        with pytest.raises(ServiceError, match="unknown session"):
            pending.result(timeout=60)

    def test_close_drains_queued_submissions(self):
        # close() must let already-queued PendingSolves finish (the
        # docstring's drain contract) while rejecting new requests.
        svc = SolverService(EngineConfig(jobs=1, submit_workers=1))
        pendings = []
        for i in range(5):
            f, _ = random_planted_ksat(10, 30, rng=60 + i)
            pendings.append(svc.submit(SolveRequest(formula=f, seed=0)))
        svc.close()
        assert [p.result(timeout=60).status for p in pendings] == ["sat"] * 5
        f, _ = random_planted_ksat(10, 30, rng=70)
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(SolveRequest(formula=f))

    def test_cancel_releases_the_queued_gauge(self):
        # Regression: cancelling a not-yet-started request used to skip
        # the run wrapper, so its -1 never fired and the gauge leaked
        # upward forever.
        import threading

        with SolverService(EngineConfig(jobs=1, submit_workers=1)) as svc:
            f0, _ = random_planted_ksat(10, 30, rng=81)
            svc.submit(SolveRequest(formula=f0, seed=0)).result(timeout=60)
            release = threading.Event()
            # Pin the single submit worker so the next request stays
            # queued (and is therefore deterministically cancellable).
            pin = svc._executor.submit(release.wait, 30)
            f, _ = random_planted_ksat(10, 30, rng=80)
            queued = svc.submit(SolveRequest(formula=f, seed=0))
            assert svc.metrics.gauge("queued") == 1
            assert queued.cancel() is True
            assert svc.metrics.gauge("queued") == 0
            # Repeated cancels must not decrement twice.
            assert queued.cancel() is True
            assert svc.metrics.gauge("queued") == 0
            release.set()
            pin.result(timeout=60)


class TestBatch:
    def test_solve_many_maps_to_responses(self, service, planted):
        f, _ = planted
        responses = service.solve_many([f.packed(), f.copy().packed()], seed=0)
        assert [r.status for r in responses] == ["sat", "sat"]
        assert responses[1].source == "batch-dedup"
        assert service.engine.counters()["batch_dedups"] == 1


class TestErrorAccounting:
    """Failed requests must be visible: counted as requests AND errors."""

    def test_failed_solve_counts_request_and_error(self, service):
        with pytest.raises(ServiceError, match="unknown session"):
            service.solve(SolveRequest(session="ghost"))
        assert service.metrics.counter("requests") == 1
        assert service.metrics.counter("errors") == 1

    def test_failed_change_counts_request_and_error(self, service):
        with pytest.raises(ServiceError, match="unknown session"):
            service.change(
                ChangeRequest("ghost", ChangeSet([AddVariable()]), seed=0)
            )
        assert service.metrics.counter("requests") == 1
        assert service.metrics.counter("errors") == 1

    def test_zero_literal_payload_is_an_error(self, service):
        from array import array

        from repro.errors import CNFError

        payload = bytearray(CNFFormula([[1, 2], [-1, 2], [1, -2]]).packed().to_bytes())
        item = array("i").itemsize
        payload[-item:] = array("i", [0]).tobytes()
        with pytest.raises(CNFError):
            service.solve(SolveRequest(packed_bytes=bytes(payload)))
        assert service.metrics.counter("requests") == 1
        assert service.metrics.counter("errors") == 1

    def test_successful_requests_do_not_count_errors(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, seed=0))
        assert service.metrics.counter("requests") == 1
        assert service.metrics.counter("errors") == 0

    def test_error_stream_shows_up_as_rps(self, service):
        # A stream of pure failures used to report zero rps — the whole
        # point of the finally-based accounting.
        for _ in range(5):
            with pytest.raises(ServiceError):
                service.solve(SolveRequest(session="ghost"))
        assert service.metrics.counter("requests") == 5
        assert service.metrics.counter("errors") == 5


class TestCacheBackends:
    def test_disk_backend_via_engine_config(self, tmp_path, planted):
        f, _ = planted
        config = EngineConfig(jobs=1, cache="disk",
                              cache_dir=str(tmp_path / "cache"))
        with SolverService(config) as svc:
            assert isinstance(svc.engine.cache, DiskCache)
            first = svc.solve(SolveRequest(formula=f, seed=0))
            assert first.status == "sat" and not first.from_cache
        # A second service over the same directory — the restart story —
        # answers from the persistent backend without any solver.
        with SolverService(EngineConfig(
            jobs=1, cache="disk", cache_dir=str(tmp_path / "cache")
        )) as svc:
            again = svc.solve(SolveRequest(formula=f.copy(), seed=0))
            assert again.from_cache
            assert svc.engine.counters()["solver_calls"] == 0

    def test_none_backend_disables_caching(self, planted):
        f, _ = planted
        with SolverService(EngineConfig(jobs=1, cache="none")) as svc:
            svc.solve(SolveRequest(formula=f, seed=0))
            again = svc.solve(SolveRequest(formula=f.copy(), seed=0))
            assert not again.from_cache

    def test_disk_backend_requires_a_directory(self):
        with pytest.raises(ValueError, match="cache_dir"):
            EngineConfig(cache="disk")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend"):
            EngineConfig(cache="redis")


class TestStatsOffTheEngineLock:
    """``stats()`` reads the cache's introspection without the engine
    lock, which every cache lookup takes."""

    def test_a_slow_disk_scan_does_not_stall_cache_hits(
        self, tmp_path, planted, monkeypatch
    ):
        f, _ = planted
        config = EngineConfig(
            jobs=1, cache="disk", cache_dir=str(tmp_path / "cache")
        )
        real_info = DiskCache.info
        scanning = threading.Event()

        def slow_info(cache):
            scanning.set()
            time.sleep(0.5)
            return real_info(cache)

        with SolverService(config) as svc:
            svc.solve(SolveRequest(formula=f, seed=0))
            monkeypatch.setattr(DiskCache, "info", slow_info)
            reader = threading.Thread(target=svc.stats)
            reader.start()
            assert scanning.wait(5)
            t0 = time.perf_counter()
            hit = svc.engine.solve(f.packed())
            waited = time.perf_counter() - t0
            reader.join(timeout=10)
        assert hit.source == "cache"
        assert waited < 0.1

    def test_stats_while_other_threads_hit_and_evict(self):
        # 40 instances through a 16-entry cache: every pass evicts, so
        # stats() reads the entries while puts and LRU moves mutate them.
        formulas = [random_planted_ksat(8, 20, rng=i)[0] for i in range(40)]
        errors: list = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            snapshot = self._hit_and_read(formulas, errors)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert snapshot["engine"]["solves"] > len(formulas)

    @staticmethod
    def _hit_and_read(formulas, errors):
        with SolverService(EngineConfig(jobs=1, cache_entries=16)) as svc:
            stop = time.monotonic() + 0.5

            def loop(step):
                try:
                    while time.monotonic() < stop:
                        step()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(repr(exc))

            def query_all():
                for f in formulas:
                    svc.query(f.packed(), seed=0)

            def read_stats():
                assert 0 <= svc.stats()["cache"]["entries"] <= 16

            threads = [
                threading.Thread(target=loop, args=(step,))
                for step in (query_all, query_all, query_all, read_stats)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            return svc.stats()


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, planted):
        f, _ = planted
        svc = SolverService(EngineConfig(jobs=1))
        svc.solve(SolveRequest(formula=f, seed=0))
        svc.close()
        svc.close()                       # explicit double close
        svc.__exit__(None, None, None)    # ... and __exit__ after close
        with pytest.raises(ServiceError, match="closed"):
            svc.solve(SolveRequest(formula=f))

    def test_injected_engine_is_not_closed(self, planted):
        f, _ = planted
        engine = PortfolioEngine(jobs=1)
        svc = SolverService(engine=engine)
        svc.solve(SolveRequest(formula=f, seed=0))
        svc.close()
        assert not engine.closed
        engine.close()
        assert engine.closed

    def test_owned_engine_is_closed(self, planted):
        f, _ = planted
        svc = SolverService(EngineConfig(jobs=1))
        svc.solve(SolveRequest(formula=f, seed=0))
        svc.close()
        assert svc.engine.closed

    def test_stats_snapshot_shape(self, service, planted):
        f, _ = planted
        service.solve(SolveRequest(formula=f, seed=0))
        service.solve(SolveRequest(formula=f.copy(), seed=0))
        snapshot = service.stats()
        assert snapshot["engine"]["solves"] == 2
        # The engine block is the registry's view: exactly the engine
        # counter names, each equal to its registry entry (0 if absent).
        counters = snapshot["metrics"]["counters"]
        assert tuple(snapshot["engine"]) == ENGINE_COUNTERS
        for name in ENGINE_COUNTERS:
            assert snapshot["engine"][name] == counters.get(name, 0)
        assert snapshot["cache"]["hits"] >= 1
        assert 0.0 < snapshot["cache"]["hit_rate"] <= 1.0
        assert snapshot["sessions"] == []
