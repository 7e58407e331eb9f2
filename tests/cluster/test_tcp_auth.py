"""TCP transport and the token-auth handshake.

The daemon listens on Unix and/or TCP with identical frame semantics;
a token-guarded daemon or router 401s everything before a valid
``auth`` frame; the ``auth.reject`` chaos point bounces one *valid*
handshake and the client's connect-retry budget absorbs it.
"""

import gc
import socket
import warnings

import pytest

from repro import faults
from repro.cluster.router import RouterDaemon
from repro.cnf.generators import random_planted_ksat
from repro.engine.config import EngineConfig
from repro.errors import ConnectError
from repro.service.client import AuthError, ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import SolveRequest
from repro.service.service import SolverService


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=6)


def _daemon(tmp_path, *, socket_path=None, tcp=None, token=None, name="d"):
    return ServiceDaemon(
        socket_path,
        SolverService(EngineConfig(jobs=1)),
        log_path=str(tmp_path / f"{name}.log"),
        tcp_address=tcp,
        auth_token=token,
    )


def _run(daemon):
    thread = daemon.start()
    return thread


def _router(tmp_path, *, listen, nodes, token=None):
    return RouterDaemon(
        listen, nodes, auth_token=token, log_path=str(tmp_path / "r.log")
    )


class TestTcpTransport:
    def test_tcp_only_daemon_serves_solves(self, tmp_path, planted):
        d = _daemon(tmp_path, tcp="127.0.0.1:0")
        thread = _run(d)
        try:
            (addr,) = d.addresses
            assert addr.startswith("tcp://127.0.0.1:")
            assert addr.endswith(f":{d.tcp_port}")
            f, _ = planted
            with ServiceClient(addr) as client:
                assert client.ping()
                response = client.solve(SolveRequest(formula=f, seed=0))
            assert response.status == "sat"
            assert f.is_satisfied(response.assignment)
        finally:
            d.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_dual_listeners_serve_both_families(self, tmp_path, planted):
        d = _daemon(tmp_path, socket_path=str(tmp_path / "svc.sock"),
                    tcp="127.0.0.1:0")
        thread = _run(d)
        try:
            unix_addr, tcp_addr = d.addresses
            assert unix_addr.startswith("unix://")
            f, _ = planted
            with ServiceClient(unix_addr) as client:
                first = client.solve(SolveRequest(formula=f, seed=0))
            with ServiceClient(tcp_addr) as client:
                second = client.solve(SolveRequest(formula=f, seed=0))
            # Same service behind both sockets: the TCP solve hits the
            # verdict the Unix solve populated.
            assert second.from_cache
            assert first.fingerprint == second.fingerprint
        finally:
            d.shutdown()
            thread.join(timeout=10)

    def test_daemon_requires_at_least_one_endpoint(self):
        with pytest.raises(Exception):
            ServiceDaemon(None, SolverService(EngineConfig(jobs=1)))

    @pytest.mark.parametrize("kind", ["daemon", "router"])
    def test_refused_bind_closes_its_socket(self, tmp_path, kind):
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        taken = f"127.0.0.1:{holder.getsockname()[1]}"
        if kind == "daemon":
            server = _daemon(tmp_path, tcp=taken)
        else:
            server = _router(
                tmp_path, listen=f"tcp://{taken}", nodes=["tcp://127.0.0.1:1"]
            )
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(OSError):
                    server.bind()
                gc.collect()
            leaks = [w for w in caught if w.category is ResourceWarning]
            assert not leaks, [str(w.message) for w in leaks]
        finally:
            holder.close()
            if kind == "daemon":
                server.service.close()


class TestAuth:
    """The handshake against a daemon; :class:`TestRouterAuth` runs the
    same tests against a router (over one daemon sharing its token)."""

    kind = "daemon"

    @pytest.fixture
    def serve(self, tmp_path):
        """Start a front end of this class's kind; returns it."""
        running = []

        def start(token=None):
            front = _daemon(tmp_path, tcp="127.0.0.1:0", token=token)
            running.append((front, _run(front)))
            if self.kind == "router":
                front = _router(
                    tmp_path, listen="tcp://127.0.0.1:0",
                    nodes=front.addresses, token=token,
                )
                running.append((front, _run(front)))
            return front

        yield start
        for server, thread in reversed(running):
            server.shutdown()
            thread.join(timeout=10)

    def test_missing_token_is_refused(self, serve):
        (addr,) = serve("hunter2").addresses
        with ServiceClient(addr, retries=0) as client:
            with pytest.raises(AuthError, match="auth required"):
                client.ping()

    def test_wrong_token_is_refused_and_counted(self, serve):
        front = serve("hunter2")
        (addr,) = front.addresses
        # The client handshakes eagerly on connect, so a bad token
        # dies at construction — before any op is even attempted.
        with pytest.raises(AuthError, match="auth failed"):
            ServiceClient(addr, retries=0, auth_token="nope")
        # A refused handshake is an auth failure, not a request error.
        assert front.metrics.counter("auth_failures") >= 1
        assert front.metrics.counter("errors") == 0

    def test_auth_error_is_a_connect_error(self):
        # The CLI's one-line exit-1 contract keys off ConnectError.
        assert issubclass(AuthError, ConnectError)

    def test_valid_token_serves_normally(self, serve, planted):
        (addr,) = serve("hunter2").addresses
        f, _ = planted
        with ServiceClient(addr, auth_token="hunter2") as client:
            assert client.ping()
            response = client.solve(SolveRequest(formula=f, seed=0))
            assert response.status == "sat"
            # Health is reachable post-auth on the same connection.
            assert client.health()["errors"] == 0

    def test_token_defaults_from_environment(self, serve, monkeypatch):
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "hunter2")
        (addr,) = serve("hunter2").addresses
        with ServiceClient(addr) as client:  # no explicit token
            assert client.ping()

    def test_tokenless_daemon_acks_auth_as_noop(self, serve):
        (addr,) = serve().addresses
        # A client configured with a token against an open front end
        # must still work: the handshake is acked as a no-op.
        with ServiceClient(addr, auth_token="whatever") as client:
            assert client.ping()


class TestRouterAuth(TestAuth):
    kind = "router"


class TestAuthChaos:
    def test_auth_reject_is_absorbed_by_connect_retries(
        self, tmp_path, planted
    ):
        d = _daemon(tmp_path, tcp="127.0.0.1:0", token="hunter2")
        thread = _run(d)
        try:
            (addr,) = d.addresses
            faults.install("seed=7;auth.reject:p=1,count=1")
            f, _ = planted
            with ServiceClient(
                addr, retries=3, backoff=0.01, auth_token="hunter2"
            ) as client:
                response = client.solve(SolveRequest(formula=f, seed=0))
                assert response.status == "sat"
                snap = client.health()["faults"]
            assert snap["points"]["auth.reject"]["fired"] == 1
            counters = d.service.metrics.snapshot()["counters"]
            assert counters.get("auth_rejects", 0) == 1
        finally:
            d.shutdown()
            thread.join(timeout=10)

    def test_auth_reject_exhausting_retries_surfaces_auth_error(
        self, tmp_path
    ):
        d = _daemon(tmp_path, tcp="127.0.0.1:0", token="hunter2")
        thread = _run(d)
        try:
            (addr,) = d.addresses
            faults.install("seed=7;auth.reject:p=1")  # every handshake
            with pytest.raises(AuthError):
                ServiceClient(
                    addr, retries=1, backoff=0.01, auth_token="hunter2"
                )
        finally:
            faults.clear()
            d.shutdown()
            thread.join(timeout=10)
