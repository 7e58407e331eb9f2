"""Wire-level chaos and the hardened client/daemon: retried transport
failures, idempotent change replay, frame caps (daemon and router), the
health op, and the one-line exit-1 contract for a missing daemon."""

import json
import socket as socket_mod
import struct
import time

import pytest

from repro import faults
from repro.cluster.router import RouterDaemon
from repro.cnf.clause import Clause
from repro.cnf.dimacs import write_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, ChangeSet
from repro.engine.config import EngineConfig
from repro.errors import ConnectError
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import SolverService
from repro.service.wire import batch_request_to_wire, recv_frame, send_frame

pytestmark = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"), reason="needs AF_UNIX sockets"
)

_LEN = struct.Struct("<I")


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=6)


@pytest.fixture
def daemon(tmp_path):
    d = ServiceDaemon(
        str(tmp_path / "svc.sock"),
        SolverService(EngineConfig(jobs=1)),
        log_path=str(tmp_path / "daemon.log"),
    )
    thread = d.start()
    yield d
    d.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _log_records(daemon):
    with open(daemon.log_path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestClientRetries:
    def test_dropped_connections_are_retried(self, daemon):
        # The daemon eats the first two frames (drop fires pre-dispatch)
        # and serves the third; the client absorbs both as retries.
        with ServiceClient(
            daemon.socket_path, retries=3, backoff=0.01
        ) as client:
            faults.install("seed=7;wire.drop:p=1,count=2")
            assert client.ping()
            assert client.retried == 2
            snap = client.health()["faults"]
            assert snap["points"]["wire.drop"]["fired"] == 2

    def test_truncated_response_replays_the_change_exactly_once(
        self, daemon, planted
    ):
        formula, _ = planted
        with ServiceClient(
            daemon.socket_path, retries=3, backoff=0.01
        ) as client:
            opened = client.solve(
                SolveRequest(formula=formula, session="t", seed=0)
            )
            assert opened.status == "sat"
            before = len(daemon.service.session("t").formula.clauses)

            # The first response is cut mid-frame AFTER the change ran;
            # the retry must replay the recorded response, not re-apply.
            faults.install("seed=7;wire.truncate:p=1,count=1")
            model = opened.assignment
            breaking = Clause([
                -v if model.get(v, False) else v
                for v in sorted(formula.variables)[:2]
            ])
            response = client.change(ChangeRequest(
                "t", ChangeSet([AddClause(breaking)]), seed=0,
            ))
            assert response.status in ("sat", "unsat")
            assert client.retried == 1
            after = len(daemon.service.session("t").formula.clauses)
            assert after == before + 1
            assert daemon.service.metrics.counter("change_replays") == 1

    def test_truncated_response_replays_the_session_open(
        self, daemon, planted
    ):
        formula, _ = planted
        # The open runs, the session exists, then the response frame is
        # cut; the retry must replay the recorded open response instead
        # of hitting "session already exists".
        faults.install("seed=7;wire.truncate:p=1,count=1")
        with ServiceClient(
            daemon.socket_path, retries=3, backoff=0.01
        ) as client:
            response = client.solve(
                SolveRequest(formula=formula, session="t", seed=0)
            )
            assert response.status == "sat"
            assert client.retried == 1
            assert daemon.service.session_names == ("t",)
            assert daemon.service.metrics.counter("open_replays") == 1
            assert daemon.service.metrics.counter("session_opens") == 1

            # The session is fully usable after the replayed open.
            again = client.solve(SolveRequest(session="t", seed=0))
            assert again.status == "sat"

    def test_slow_wire_only_stalls(self, daemon):
        faults.install("seed=7;wire.slow:p=1,count=1,delay=0.05")
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()
            assert client.retried == 0


class TestDaemonResilience:
    def test_client_disconnect_mid_solve_many_keeps_the_daemon_serving(
        self, daemon
    ):
        f1, _ = random_planted_ksat(10, 30, rng=1)
        f2, _ = random_planted_ksat(10, 30, rng=2)
        header, payload = batch_request_to_wire([f1.packed(), f2.packed()], seed=0)
        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.connect(daemon.socket_path)
        send_frame(sock, header, payload)
        sock.close()                       # walk away before the response

        # The daemon still executes the batch (it only notices the dead
        # peer when it tries to answer); wait for the op record.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(
                r["event"] == "op" and r["op"] == "solve_many"
                for r in _log_records(daemon)
            ):
                break
            time.sleep(0.05)
        else:
            raise AssertionError("solve_many never dispatched")

        metrics = daemon.service.metrics
        assert metrics.gauge("queued") == 0
        assert metrics.gauge("inflight") == 0
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()
            response = client.solve(SolveRequest(formula=f1, seed=0))
            assert response.status == "sat"

    def test_health_op_round_trip(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            health = client.health()
        assert health["sessions"] == 0
        assert health["draining"] is False
        assert health["closed"] is False
        assert health["faults"] is None
        pool = health["engine"]["pool"]
        assert pool["generation"] >= 0
        assert health["engine"]["cache"]["degraded"] is False

    def test_health_surfaces_the_installed_plan(self, daemon):
        faults.install("seed=11;wire.drop:p=0")
        with ServiceClient(daemon.socket_path) as client:
            health = client.health()
        assert health["faults"]["spec"] == "seed=11;wire.drop:p=0"
        assert "wire.drop" in health["faults"]["points"]


class TestFrameCap:
    """Over-cap frames against a daemon; :class:`TestRouterFrameCap`
    runs the same tests against a router."""

    @pytest.fixture
    def capped(self, tmp_path):
        d = ServiceDaemon(
            str(tmp_path / "cap.sock"),
            SolverService(EngineConfig(jobs=1)),
            log_path=str(tmp_path / "cap.log"),
            max_frame_bytes=1024,
        )
        thread = d.start()
        yield d
        d.shutdown()
        thread.join(timeout=10)

    @staticmethod
    def _connect(tmp_path):
        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(str(tmp_path / "cap.sock"))
        return sock

    def test_oversized_header_is_refused_and_logged(self, capped, tmp_path):
        sock = self._connect(tmp_path)
        try:
            sock.sendall(_LEN.pack(5000))       # declared header over cap
            response, _ = recv_frame(sock)
        finally:
            sock.close()
        assert response["ok"] is False
        assert "exceeds the frame cap" in response["error"]
        records = [r for r in _log_records(capped) if r["event"] == "wire_error"]
        assert records and records[0]["length"] == 5000
        assert records[0]["op"] is None

    def test_oversized_payload_logs_the_op(self, capped, tmp_path):
        sock = self._connect(tmp_path)
        try:
            raw = b'{"op":"solve"}'
            sock.sendall(_LEN.pack(len(raw)) + raw + _LEN.pack(5000))
            response, _ = recv_frame(sock)
        finally:
            sock.close()
        assert response["ok"] is False
        records = [r for r in _log_records(capped) if r["event"] == "wire_error"]
        assert records and records[0]["length"] == 5000
        assert records[0]["op"] == "solve"


class TestRouterFrameCap(TestFrameCap):
    @pytest.fixture
    def capped(self, tmp_path):
        # No live node is needed: an over-cap frame never gets routed.
        r = RouterDaemon(
            str(tmp_path / "cap.sock"),
            [str(tmp_path / "no-node.sock")],
            log_path=str(tmp_path / "cap.log"),
            max_frame_bytes=1024,
        )
        thread = r.start()
        yield r
        r.shutdown()
        thread.join(timeout=10)


class TestMissingDaemonCli:
    """Satellite: --connect against a dead socket is one line + exit 1."""

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reach daemon")
        assert len(err.strip().splitlines()) == 1

    @pytest.fixture
    def fast_client(self, monkeypatch):
        # Shrink the connect-retry budget: these tests only care about
        # the failure contract, not about riding out a daemon restart.
        import repro.service.client as client_mod

        original = client_mod.ServiceClient.__init__

        def quick(self, socket_path, **kwargs):
            kwargs.setdefault("retries", 1)
            kwargs.setdefault("backoff", 0.01)
            original(self, socket_path, **kwargs)

        monkeypatch.setattr(client_mod.ServiceClient, "__init__", quick)

    def test_solve_connect(self, tmp_path, capsys, fast_client):
        from repro.cli import main

        cnf = tmp_path / "f.cnf"
        write_dimacs(CNFFormula([[1]]), cnf)
        rc = main([
            "solve", str(cnf), "--connect", str(tmp_path / "nope.sock"),
        ])
        assert rc == 1
        self._assert_one_line_error(capsys)

    def test_stats_connect(self, tmp_path, capsys, fast_client):
        from repro.cli import main

        assert main(["stats", "--connect", str(tmp_path / "nope.sock")]) == 1
        self._assert_one_line_error(capsys)

    def test_loadgen_connect(self, tmp_path, capsys, fast_client):
        from repro.cli import main

        rc = main([
            "loadgen", "tenant-churn", "--changes", "1",
            "--connect", str(tmp_path / "nope.sock"),
        ])
        assert rc == 1
        self._assert_one_line_error(capsys)

    def test_replay_connect(self, tmp_path, capsys, fast_client):
        from repro.cli import main

        trace = tmp_path / "t.trace"
        trace.write_text(
            '{"format":"repro-workload-trace","version":1,"meta":{}}\n'
        )
        rc = main([
            "replay", str(trace), "--connect", str(tmp_path / "nope.sock"),
        ])
        assert rc == 1
        self._assert_one_line_error(capsys)

    def test_client_raises_connect_error_directly(self, tmp_path):
        with pytest.raises(ConnectError, match="cannot reach daemon"):
            ServiceClient(
                str(tmp_path / "nope.sock"), retries=0, backoff=0.0
            )


class TestTruncatedTrace:
    def test_replay_reports_the_offending_line(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "torn.trace"
        trace.write_text(
            '{"format":"repro-workload-trace","version":1,"meta":{}}\n'
            '{"seq":0,"op":"solve","header"\n'
        )
        rc = main(["replay", str(trace)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{trace}:2: malformed record" in err
