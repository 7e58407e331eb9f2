"""Wire-level solve_many, graceful drain, watch stream, counter safety."""

import os
import signal
import socket as socket_mod
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddVariable, ChangeSet, RemoveClause
from repro.engine.config import EngineConfig
from repro.engine.engine import PortfolioEngine
from repro.errors import ServiceError
from repro.obs.metrics import ENGINE_COUNTERS
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import SolverService
from repro.workload.trace import read_trace

pytestmark = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"), reason="needs AF_UNIX sockets"
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def daemon(tmp_path):
    d = ServiceDaemon(
        str(tmp_path / "svc.sock"), SolverService(EngineConfig(jobs=1))
    )
    thread = d.start()
    yield d
    d.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestWireBatch:
    def test_solve_many_round_trip_with_dedup(self, daemon):
        f1, _ = random_planted_ksat(12, 36, rng=1)
        f2, _ = random_planted_ksat(12, 36, rng=2)
        with ServiceClient(daemon.socket_path) as client:
            responses = client.solve_many(
                [f1.packed(), CNFFormula(f1.clauses).packed(), f2.packed()],
                seed=0,
            )
        assert [r.status for r in responses] == ["sat", "sat", "sat"]
        assert responses[1].source == "batch-dedup"
        assert responses[0].fingerprint == responses[1].fingerprint
        assert responses[2].fingerprint != responses[0].fingerprint
        for f, r in zip((f1, f1, f2), responses):
            assert f.is_satisfied(r.assignment)

    def test_solve_many_empty_batch(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            assert client.solve_many([]) == []

    def test_malformed_lens_is_an_error_frame_not_a_crash(self, daemon):
        from repro.service.wire import recv_frame, send_frame

        f1, _ = random_planted_ksat(8, 20, rng=3)
        payload = f1.packed().to_bytes()
        with ServiceClient(daemon.socket_path) as client:
            send_frame(
                client._sock,
                {"op": "solve_many", "lens": [len(payload) + 5]},
                payload,
            )
            header, _ = recv_frame(client._sock)
            assert header["ok"] is False
            assert "lens" in header["error"]
        # The daemon survived: a fresh client still gets answers.
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()


class TestGracefulDrain:
    def test_max_requests_drains_and_stops(self, tmp_path):
        d = ServiceDaemon(
            str(tmp_path / "drain.sock"),
            SolverService(EngineConfig(jobs=1)),
            max_requests=2,
        )
        thread = d.start()
        f1, _ = random_planted_ksat(10, 30, rng=4)
        with ServiceClient(d.socket_path) as client:
            assert client.ping()           # pings do not consume budget
            r1 = client.solve(SolveRequest(formula=f1, seed=0))
            assert r1.status == "sat"
            r2 = client.solve(SolveRequest(formula=CNFFormula(f1.clauses), seed=0))
            assert r2.status == "sat"      # the budget-spending request completes
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert d.service.closed

    def test_idle_connections_do_not_stall_the_drain(self, tmp_path):
        """A client holding an open, silent connection must not pin the
        shutdown on the per-thread join timeout."""
        d = ServiceDaemon(
            str(tmp_path / "idle.sock"), SolverService(EngineConfig(jobs=1))
        )
        thread = d.start()
        idle = ServiceClient(d.socket_path)
        try:
            assert idle.ping()             # the connection is live...
            t0 = time.monotonic()          # ...and now just sits there
            d.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 3.0
        finally:
            idle.close()

    def test_max_requests_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError, match="max_requests"):
            ServiceDaemon(str(tmp_path / "x.sock"), max_requests=0)

    def test_sigterm_drains_flushes_recorder_and_exits_zero(self, tmp_path):
        """The CLI acceptance path: serve --record, traffic, SIGTERM."""
        sock = tmp_path / "term.sock"
        trace_path = tmp_path / "term.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(sock), "--jobs", "1",
                "--record", str(trace_path),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock.exists():
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            f1, _ = random_planted_ksat(10, 30, rng=5)
            with ServiceClient(str(sock)) as client:
                assert client.solve(SolveRequest(formula=f1, seed=0)).status == "sat"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, (out, err)
        trace = read_trace(str(trace_path))
        assert [r.op for r in trace.records] == ["solve"]
        assert trace.records[0].response["status"] == "sat"


class TestWatchStream:
    """The subscribe/watch push-stream: frames under load, disconnect
    resilience, and drain responsiveness."""

    def test_frames_stream_while_load_runs(self, tmp_path):
        from repro.workload import build_scenario, client_factory, run_events

        d = ServiceDaemon(
            str(tmp_path / "watch.sock"),
            SolverService(EngineConfig(jobs=1)),
            monitor_interval=0.1,
        )
        thread = d.start()
        try:
            events = build_scenario("sat-mixed", seed=5, tenants=2, changes=3)
            load_errors: list[str] = []

            def load():
                results, _ = run_events(
                    events, client_factory(d.socket_path), concurrency=2
                )
                load_errors.extend(r.error for r in results if not r.ok)

            loader = threading.Thread(target=load)
            loader.start()
            with ServiceClient(d.socket_path) as client:
                frames = list(client.watch(interval=0.15, count=5))
                # The connection is still usable after the done frame.
                assert client.ping()
            loader.join(timeout=60)
            assert load_errors == []
            assert len(frames) == 5
            for frame in frames:
                assert frame["interval"] > 0
                assert frame["latency"]["count"] >= 0
            # The concurrent load showed up in at least one frame.
            assert sum(f["requests"] for f in frames) > 0
            assert any(f["rps"] > 0 for f in frames)
            # Cumulative totals are monotone across pushed frames.
            totals = [f["totals"].get("requests", 0) for f in frames]
            assert totals == sorted(totals)
        finally:
            d.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_disconnect_mid_stream_stalls_neither_accepts_nor_drain(
        self, tmp_path
    ):
        """A subscriber vanishing mid-stream must cost only its own
        handler thread — new connections keep being served and a
        subsequent drain finishes promptly."""
        d = ServiceDaemon(
            str(tmp_path / "gone.sock"),
            SolverService(EngineConfig(jobs=1)),
            monitor_interval=0.1,
        )
        thread = d.start()
        try:
            watcher = ServiceClient(d.socket_path)
            stream = watcher.watch(interval=0.1)   # unbounded stream
            assert next(stream) is not None        # ack consumed, one frame
            watcher.close()                        # vanish mid-stream
            # The accept loop still answers fresh clients...
            with ServiceClient(d.socket_path) as client:
                assert client.ping()
                f1, _ = random_planted_ksat(10, 30, rng=9)
                assert client.solve(SolveRequest(formula=f1, seed=0)).status == "sat"
        finally:
            # ...and the drain is not pinned on the dead subscriber.
            t0 = time.monotonic()
            d.shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 5.0

    def test_drain_interrupts_an_idle_watch_stream(self, tmp_path):
        """Shutdown mid-interval ends the stream with a done frame
        instead of waiting out the subscriber's cadence."""
        d = ServiceDaemon(
            str(tmp_path / "drainwatch.sock"),
            SolverService(EngineConfig(jobs=1)),
            monitor_interval=0.1,
        )
        thread = d.start()
        watcher = ServiceClient(d.socket_path)
        try:
            stream = watcher.watch(interval=30.0)  # one frame per 30s
            shutdown_timer = threading.Timer(0.3, d.shutdown)
            shutdown_timer.start()
            t0 = time.monotonic()
            frames = list(stream)                  # ends on the drain
            assert time.monotonic() - t0 < 10.0
            assert frames == []                    # interval never elapsed
        finally:
            watcher.close()
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_bad_watch_parameters_are_error_frames(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="interval"):
                list(client.watch(interval="bogus"))
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="count"):
                list(client.watch(count=0))
        # The daemon survived both.
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()

    def test_stats_frame_reports_windowed_rates_and_histogram(self, daemon):
        f1, _ = random_planted_ksat(10, 30, rng=8)
        with ServiceClient(daemon.socket_path) as client:
            assert client.solve(SolveRequest(formula=f1, seed=0)).status == "sat"
            daemon.monitor.sample()     # deterministic ring row
            frame = client.stats_frame(window=60.0, recent=10)
        assert frame["requests"] >= 1
        assert frame["rps"] > 0
        assert frame["latency_histogram"]["count"] >= 1
        assert frame["window"] > 0
        assert len(frame["series"]) >= 1
        assert frame["totals"]["requests"] >= 1

    def test_stats_op_carries_cache_info_and_metrics(self, daemon):
        f1, _ = random_planted_ksat(10, 30, rng=7)
        with ServiceClient(daemon.socket_path) as client:
            client.solve(SolveRequest(formula=f1, seed=0))
            stats = client.stats()
        cache = stats["cache"]
        assert cache["backend"] == "memory"
        assert cache["entries"] >= 1
        assert cache["bytes"] > 0
        assert cache["evictions"] == 0
        metrics = stats["metrics"]
        assert metrics["counters"]["requests"] >= 1
        assert metrics["histograms"]["solve_latency"]["count"] >= 1


class TestRecorderHook:
    def test_service_records_every_typed_op(self, tmp_path):
        from repro.workload.trace import TraceRecorder

        f1, witness = random_planted_ksat(10, 30, rng=6)
        path = tmp_path / "svc.jsonl"
        service = SolverService(
            EngineConfig(jobs=1), recorder=TraceRecorder(str(path))
        )
        service.solve(SolveRequest(formula=f1, session="t", seed=0))
        service.change(
            ChangeRequest("t", ChangeSet([RemoveClause(f1.clauses[0])]), seed=0)
        )
        service.solve_many([CNFFormula(f1.clauses).packed()], seed=0)
        service.close_session("t")
        service.close()                    # flushes + closes the recorder
        trace = read_trace(str(path))
        assert [r.op for r in trace.records] == [
            "solve", "change", "solve_many", "close_session",
        ]
        assert all(r.wall >= 0 for r in trace.records)
        assert trace.records[1].response["regime"] == "loosening"
        assert trace.records[3].response["existed"] is True

    def test_failed_ops_are_not_recorded(self, tmp_path):
        from repro.workload.trace import TraceRecorder

        path = tmp_path / "err.jsonl"
        with SolverService(
            EngineConfig(jobs=1), recorder=TraceRecorder(str(path))
        ) as service:
            with pytest.raises(ServiceError):
                service.change(
                    ChangeRequest("ghost", ChangeSet([AddVariable()]), seed=0)
                )
            service.close_session("ghost")     # a miss is still an op
        trace = read_trace(str(path))
        assert [r.op for r in trace.records] == ["close_session"]
        assert trace.records[0].response["existed"] is False


class TestCounterSafetyUnderConcurrency:
    """Each query is one registry bump, so no reader sees half a query."""

    def test_concurrent_submit_keeps_counters_consistent(self):
        with SolverService(EngineConfig(jobs=1, submit_workers=4)) as service:
            formulas = [
                random_planted_ksat(12, 36, rng=i)[0] for i in range(6)
            ]
            pending = []
            for round_index in range(4):
                for f in formulas:
                    pending.append(
                        service.submit(
                            SolveRequest(formula=CNFFormula(f.clauses), seed=0)
                        )
                    )
            snapshots = [service.stats() for _ in range(3)]   # racing reads
            responses = [p.result(timeout=60) for p in pending]
            assert all(r.status == "sat" for r in responses)
            stats = service.stats()["engine"]
        assert stats["solves"] == len(pending)
        # Every solve is answered by exactly one of the paths; a torn
        # increment would break this identity.  Concurrent identical
        # fingerprints may now coalesce (inflight_joins) instead of
        # hitting the cache — both count as exactly one answer path.
        assert stats["solves"] == (
            stats["cache_hits"] + stats["revalidations"] + stats["races"]
            + stats["batch_dedups"] + stats["inflight_joins"]
        )
        # Snapshots taken while submissions raced read the registry in
        # one acquisition, and each query is one bump, so the identity
        # holds exactly in each of them too — in the engine view and in
        # the raw registry counters it is read from.
        for snap in snapshots:
            engine = snap["engine"]
            assert engine["solves"] == (
                engine["cache_hits"] + engine["revalidations"] + engine["races"]
                + engine["batch_dedups"] + engine["inflight_joins"]
            )
            counters = snap["metrics"]["counters"]
            assert engine == {
                name: counters.get(name, 0) for name in ENGINE_COUNTERS
            }

    def test_two_services_sharing_one_engine_cannot_tear_counters(self):
        """Shared-engine embeddings have *different* service locks; the
        engine's registry is what keeps the counters coherent."""
        with PortfolioEngine(jobs=1) as engine:
            services = [SolverService(engine=engine) for _ in range(2)]
            formulas = [random_planted_ksat(12, 36, rng=i)[0] for i in range(4)]
            errors: list[str] = []

            def hammer(service):
                try:
                    for _ in range(5):
                        for f in formulas:
                            response = service.solve(
                                SolveRequest(formula=CNFFormula(f.clauses), seed=0)
                            )
                            assert response.status == "sat"
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=hammer, args=(s,)) for s in services
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            stats = engine.counters()
            assert stats["solves"] == 2 * 5 * len(formulas)
            assert stats["solves"] == (
                stats["cache_hits"] + stats["revalidations"] + stats["races"]
                + stats["batch_dedups"] + stats["inflight_joins"]
            )
            assert stats["solves"] == engine.metrics.counter("solves")
            for service in services:
                service.close()
