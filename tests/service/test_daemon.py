"""repro serve: daemon round trips, error frames, cross-process cache.

The in-process tests drive a :class:`ServiceDaemon` on a background
thread through :class:`ServiceClient`; the subprocess tests boot the
real ``python -m repro serve`` CLI and assert the acceptance headline —
a solve + change + re-solve round trip, clean shutdown, and (with the
disk backend) a cache hit served *across daemon processes*.
"""

import json
import os
import socket as socket_mod
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cnf.clause import Clause
from repro.cnf.dimacs import write_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.cnf import packed as packed_mod
from repro.cnf.packed import PackedCNF
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.engine.config import EngineConfig
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import SolverService
from repro.service.wire import batch_request_from_wire, batch_request_to_wire

pytestmark = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"), reason="needs AF_UNIX sockets"
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=6)


def undeclared(payload: bytes) -> bytes:
    """*payload* with its variable declaration dropped, clauses kept."""
    header = packed_mod._HEADER
    magic, version, nvars, nclauses, nlits = header.unpack_from(payload)
    clauses = payload[header.size + 4 * nvars:]
    return header.pack(magic, version, 0, nclauses, nlits) + clauses


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


class TestInProcessDaemon:
    def test_ping(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            assert client.ping()

    def test_solve_round_trip_ships_packed_bytes(self, daemon, planted):
        f, _ = planted
        with ServiceClient(daemon.socket_path) as client:
            response = client.solve(SolveRequest(formula=f, seed=0))
        assert response.status == "sat"
        assert f.is_satisfied(response.assignment)

    def test_session_solve_change_resolve_loop(self, daemon, planted):
        f, _ = planted
        with ServiceClient(daemon.socket_path) as client:
            opened = client.solve(SolveRequest(formula=f, session="t", seed=0))
            assert opened.status == "sat" and opened.session == "t"

            # Loosening change: revalidated server-side, no solver.
            victim = f.clauses[0]
            loosened = client.change(ChangeRequest(
                "t", ChangeSet([RemoveClause(victim), AddVariable()]), seed=0,
            ))
            assert loosened.source == "revalidation"
            assert loosened.regime == "loosening"

            # Tightening change: a real re-solve on the daemon.
            model = opened.assignment
            breaking = Clause([
                -v if model.get(v, False) else v
                for v in sorted(f.variables)[:2]
            ])
            tightened = client.change(ChangeRequest(
                "t", ChangeSet([AddClause(breaking)]), seed=0,
            ))
            assert tightened.regime == "tightening"
            assert tightened.status in ("sat", "unsat")

            stats = client.stats()
            assert stats["sessions"] == ["t"]
            assert client.close_session("t")
            assert client.stats()["sessions"] == []

    def test_error_frames_do_not_kill_the_connection(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown session"):
                client.change(ChangeRequest("ghost", ChangeSet()))
            assert client.ping()          # same connection still serves

    def test_undeclared_clause_variables_are_an_error_frame(self, daemon, planted):
        """Refused at decode: before the check, every racer of the
        portfolio failed on the missing variables and the answer was
        ``unknown``."""
        f, _ = planted
        payload = undeclared(f.packed().to_bytes())
        engine = daemon.service.engine
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="undeclared variable"):
                client.solve(SolveRequest(packed_bytes=payload, seed=0))
            assert client.ping()          # same connection still serves
        assert engine.counters()["races"] == 0
        assert engine.counters()["solves"] == 0

    def test_a_solve_frame_naming_a_daemon_side_file_is_an_error_frame(
        self, daemon, tmp_path
    ):
        """The daemon opens no file a client names: it neither reads the
        file nor tells whether it exists, and echoes none of it."""
        from repro.service.wire import recv_frame, send_frame

        secret = tmp_path / "secret.cnf"
        secret.write_text("p password=hunter2\n")
        engine = daemon.service.engine
        with ServiceClient(daemon.socket_path) as client:
            for path in (secret, tmp_path / "missing.cnf"):
                send_frame(
                    client._sock,
                    {"op": "solve", "dimacs_path": str(path), "seed": 0},
                )
                header, _ = recv_frame(client._sock)
                assert header["ok"] is False
                assert "packed payload" in header["error"]
                assert "hunter2" not in header["error"]
            assert client.ping()          # same connection still serves
        assert engine.counters()["solves"] == 0

    def test_retired_header_keys_are_ignored(self, daemon, planted):
        from repro.service.wire import recv_frame, send_frame

        f, _ = planted
        payload = f.packed().to_bytes()
        with ServiceClient(daemon.socket_path) as client:
            client.solve(SolveRequest(packed_bytes=payload, seed=0))
            # An older client asking to bypass the cache and promote DPLL
            # is answered as if it had not: from the cache.
            send_frame(
                client._sock,
                {"op": "solve", "seed": 0, "use_cache": False, "lead": "dpll"},
                payload,
            )
            header, _ = recv_frame(client._sock)
            assert header["ok"] is True and header["source"] == "cache"
            send_frame(
                client._sock,
                {"op": "solve_many", "lens": [len(payload)],
                 "use_cache": False, "lead": "dpll"},
                payload,
            )
            header, _ = recv_frame(client._sock)
            assert [r["source"] for r in header["results"]] == ["cache"]

    def test_a_batch_holding_one_undeclared_payload_is_an_error_frame(
        self, daemon, planted
    ):
        from repro.service.wire import recv_frame, send_frame

        good = planted[0].packed().to_bytes()
        bad = undeclared(random_planted_ksat(12, 36, rng=7)[0].packed().to_bytes())
        with ServiceClient(daemon.socket_path) as client:
            send_frame(
                client._sock,
                {"op": "solve_many", "lens": [len(good), len(bad)]},
                good + bad,
            )
            header, _ = recv_frame(client._sock)
            assert header["ok"] is False
            assert "undeclared variable" in header["error"]
            assert client.ping()          # same connection still serves
        assert daemon.service.engine.counters()["races"] == 0

    def test_unsat_is_a_verdict_not_an_error(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            response = client.solve(
                SolveRequest(formula=CNFFormula([[1], [-1]]))
            )
        assert response.status == "unsat"

    def test_two_clients_share_the_daemon_cache(self, daemon, planted):
        f, _ = planted
        with ServiceClient(daemon.socket_path) as client:
            first = client.solve(SolveRequest(formula=f, seed=0))
            assert not first.from_cache
        with ServiceClient(daemon.socket_path) as client:
            second = client.solve(SolveRequest(formula=f, seed=0))
            assert second.from_cache

    def test_shutdown_op_stops_the_daemon(self, tmp_path):
        daemon = ServiceDaemon(
            str(tmp_path / "s.sock"), SolverService(EngineConfig(jobs=1))
        )
        thread = daemon.start()
        with ServiceClient(daemon.socket_path) as client:
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert daemon.service.closed
        assert not os.path.exists(daemon.socket_path)


class TestPackedRequestPath:
    """A stateless or batched wire request is answered off the packed
    kernel it decodes to: nothing on the way builds a ``CNFFormula``."""

    @pytest.fixture(autouse=True)
    def no_clause_objects(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a request built clause objects")

        monkeypatch.setattr(PackedCNF, "to_formula", refuse)

    @pytest.fixture
    def payloads(self):
        return [
            random_planted_ksat(12, 36, rng=rng)[0].packed().to_bytes()
            for rng in (11, 12)
        ]

    def _check(self, payloads, first, second, batch):
        kernel = PackedCNF.from_bytes(payloads[0])
        assert first.status == "sat" and not first.from_cache
        assert second.source == "cache" and second.from_cache
        assert kernel.is_satisfied(second.assignment)
        assert [r.status for r in batch] == ["sat", "sat"]
        for payload, response in zip(payloads, batch):
            assert PackedCNF.from_bytes(payload).is_satisfied(response.assignment)

    def test_service(self, payloads):
        header, body = batch_request_to_wire(
            [PackedCNF.from_bytes(p) for p in payloads], seed=0
        )
        with SolverService(EngineConfig(jobs=1)) as service:
            first = service.solve(SolveRequest(packed_bytes=payloads[0], seed=0))
            second = service.solve(SolveRequest(packed_bytes=payloads[0], seed=0))
            cnfs, options = batch_request_from_wire(header, body)
            batch = service.solve_many(cnfs, **options)
        self._check(payloads, first, second, batch)

    def test_daemon(self, payloads, daemon):
        with ServiceClient(daemon.socket_path) as client:
            first = client.solve(SolveRequest(packed_bytes=payloads[0], seed=0))
            second = client.solve(SolveRequest(packed_bytes=payloads[0], seed=0))
            batch = client.solve_many(
                [PackedCNF.from_bytes(p) for p in payloads], seed=0
            )
        self._check(payloads, first, second, batch)


class TestCliConnect:
    def test_solve_connect_routes_through_the_daemon(
        self, daemon, planted, tmp_path, capsys
    ):
        from repro.cli import main

        f, _ = planted
        cnf = tmp_path / "f.cnf"
        write_dimacs(f, cnf)
        stats_path = tmp_path / "stats.json"
        rc = main([
            "solve", str(cnf), "--connect", daemon.socket_path,
            "--stats-json", str(stats_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("s SATISFIABLE")
        assert "c engine: portfolio" in out
        # --stats-json in connect mode dumps the *daemon's* counters.
        import json

        stats = json.loads(stats_path.read_text())
        assert stats["engine"]["solves"] == 1

    def test_connect_unsat_exit_code(self, daemon, tmp_path, capsys):
        from repro.cli import main

        cnf = tmp_path / "unsat.cnf"
        write_dimacs(CNFFormula([[1], [-1]]), cnf)
        assert main(["solve", str(cnf), "--connect", daemon.socket_path]) == 1
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_connect_timeout_outlives_the_deadline(
        self, daemon, planted, tmp_path, capsys, monkeypatch
    ):
        # The client socket must not give up before the daemon's solve
        # budget: no --deadline blocks indefinitely, an explicit one
        # gets transport slack on top.
        import repro.cli as cli_mod

        seen = []
        real_client = ServiceClient

        def spying_client(path, *, timeout=60.0):
            seen.append(timeout)
            return real_client(path, timeout=timeout)

        monkeypatch.setattr(
            "repro.service.client.ServiceClient", spying_client
        )
        f, _ = planted
        cnf = tmp_path / "f.cnf"
        write_dimacs(f, cnf)
        assert cli_mod.main(
            ["solve", str(cnf), "--connect", daemon.socket_path]
        ) == 0
        assert cli_mod.main([
            "solve", str(cnf), "--connect", daemon.socket_path,
            "--deadline", "120",
        ]) == 0
        capsys.readouterr()
        assert seen == [None, 150.0]


def _spawn_serve(socket_path, cache_dir, log_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(socket_path),
            "--cache", "disk", "--cache-dir", str(cache_dir),
            "--jobs", "1", "--log-file", str(log_path),
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            try:
                ServiceClient(str(socket_path)).close()
                return proc
            except OSError:
                pass
        if proc.poll() is not None:
            raise AssertionError(
                f"serve died early: {proc.stderr.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("serve did not come up within 30s")


class TestCrossProcess:
    def test_serve_round_trip_with_persistent_cache_hit(self, tmp_path, planted):
        """The acceptance headline: two daemon *processes* in sequence
        over one disk cache; the second serves the first's verdict."""
        f, _ = planted
        sock = tmp_path / "serve.sock"
        cache_dir = tmp_path / "cache"
        log = tmp_path / "daemon.log"

        proc = _spawn_serve(sock, cache_dir, log)
        try:
            with ServiceClient(str(sock)) as client:
                cold = client.solve(SolveRequest(formula=f, seed=0))
                assert cold.status == "sat" and not cold.from_cache
                client.shutdown()
        finally:
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "listening" in out

        # Process two, same cache directory: a cross-process cache hit.
        proc = _spawn_serve(sock, cache_dir, log)
        try:
            with ServiceClient(str(sock)) as client:
                warm = client.solve(SolveRequest(formula=f, seed=0))
                assert warm.status == "sat"
                assert warm.from_cache, "expected a cross-process cache hit"
                stats = client.stats()
                assert stats["cache"]["hits"] >= 1
                assert stats["engine"]["solver_calls"] == 0
                client.shutdown()
        finally:
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        # The forensics log is structured: one JSON record per event.
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        solve_ops = [
            r for r in records if r["event"] == "op" and r["op"] == "solve"
        ]
        assert len(solve_ops) == 2           # one per daemon process
        assert all(r["ok"] for r in solve_ops)
        assert all(r["wall"] >= 0 for r in solve_ops)
        assert solve_ops[-1]["source"] == "cache"
        assert {r["event"] for r in records} >= {"listening", "op", "stopped"}
