"""End-to-end trace propagation: client root spans cross the wire into
daemon/engine stage spans under one trace id, retries surface as child
spans, and untraced/old clients keep producing byte-identical frames.
"""

import json
import socket as socket_mod

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat
from repro.engine.config import EngineConfig, SolverConfig
from repro.obs import tracing
from repro.obs.tracing import Tracer, group_traces, trace_tree
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import SolveRequest
from repro.service.service import SolverService
from repro import faults

pytestmark = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"), reason="needs AF_UNIX sockets"
)


@pytest.fixture(autouse=True)
def clean_globals():
    """The daemon install()s its tracer process-globally and chaos specs
    leak through env — scrub both around every test."""
    faults.clear()
    tracing.install(None)
    yield
    faults.clear()
    tracing.install(None)


@pytest.fixture
def planted():
    return random_planted_ksat(12, 36, rng=6)


@pytest.fixture
def traced_daemon(tmp_path):
    """A daemon whose node tracer samples at 0: any node span that shows
    up must have been *continued* from a wire context, not self-rooted."""
    node_log = tmp_path / "node-trace.jsonl"
    # jobs=2 + a zero quick slice forces the fan-out race, so traces
    # include the synthetic pool.wait / solve spans.  Both racers are
    # CDCL, so whichever wins, its solve span carries CDCL counters.
    racers = (
        SolverConfig.make("cdcl", "cdcl"),
        SolverConfig.make("cdcl-b", "cdcl", seed_offset=1),
    )
    d = ServiceDaemon(
        str(tmp_path / "svc.sock"),
        SolverService(EngineConfig(jobs=2, quick_slice=0.0, configs=racers)),
        log_path=str(tmp_path / "daemon.log"),
        tracer=Tracer(service="node", sample=0.0, log_path=str(node_log)),
    )
    thread = d.start()
    yield d, node_log
    d.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestEndToEndPropagation:
    def test_client_span_continues_into_daemon_and_engine(
        self, traced_daemon, planted
    ):
        daemon, node_log = traced_daemon
        f, _ = planted
        client_tracer = Tracer(service="client", sample=1.0)
        with ServiceClient(daemon.socket_path, tracer=client_tracer) as client:
            response = client.solve(SolveRequest(formula=f, seed=0))
        assert response.status == "sat"

        (root,) = client_tracer.spans()
        assert root["name"] == "client.solve"
        assert root["parent"] is None
        assert root["tags"]["status"] == "sat"

        node_spans = [
            json.loads(line) for line in node_log.read_text().splitlines()
        ]
        names = {s["name"] for s in node_spans}
        assert {"daemon.solve", "engine.solve", "cache.lookup"} <= names
        # One trace across both services, rooted at the client.
        assert {s["trace"] for s in node_spans} == {root["trace"]}
        by_name = {s["name"]: s for s in node_spans}
        assert by_name["daemon.solve"]["parent"] == root["span"]
        assert (
            by_name["engine.solve"]["parent"]
            == by_name["daemon.solve"]["span"]
        )
        assert by_name["cache.lookup"]["tags"]["tier"] == "miss"
        # The race's synthetic solve span carries the CDCL counters.
        solve = by_name["solve"]
        assert solve["tags"]["solver"]
        assert "propagations" in solve["tags"]

    def test_trace_tree_reconstructs_across_both_services(
        self, traced_daemon, planted
    ):
        daemon, node_log = traced_daemon
        f, _ = planted
        client_log = node_log.parent / "client-trace.jsonl"
        client_tracer = Tracer(
            service="client", sample=1.0, log_path=str(client_log)
        )
        with ServiceClient(daemon.socket_path, tracer=client_tracer) as client:
            client.solve(SolveRequest(formula=f, seed=0))

        spans = tracing.load_spans([str(client_log), str(node_log)])
        traces = group_traces(spans)
        assert len(traces) == 1
        (bucket,) = traces.values()
        roots, children = trace_tree(bucket)
        assert [r["name"] for r in roots] == ["client.solve"]
        walk, seen = [roots[0]], set()
        while walk:
            node = walk.pop()
            seen.add(node["name"])
            walk.extend(children.get(node["span"], []))
        assert {"client.solve", "daemon.solve", "engine.solve"} <= seen

    def test_unsampled_client_produces_no_node_spans(
        self, traced_daemon, planted
    ):
        daemon, node_log = traced_daemon
        f, _ = planted
        client_tracer = Tracer(service="client", sample=0.0)
        with ServiceClient(daemon.socket_path, tracer=client_tracer) as client:
            assert client.solve(SolveRequest(formula=f, seed=0)).status == "sat"
        assert client_tracer.spans() == []
        assert not node_log.exists() or node_log.read_text() == ""

    def test_daemon_op_log_carries_the_trace_id(self, traced_daemon, planted):
        daemon, _node_log = traced_daemon
        f, _ = planted
        client_tracer = Tracer(service="client", sample=1.0)
        with ServiceClient(daemon.socket_path, tracer=client_tracer) as client:
            client.solve(SolveRequest(formula=f, seed=0))
        (root,) = client_tracer.spans()
        records = [
            json.loads(line)
            for line in open(daemon.log_path, encoding="utf-8")
        ]
        solves = [r for r in records if r.get("op") == "solve"]
        assert solves and solves[-1]["trace"] == root["trace"]


class TestChaosRetrySpans:
    def test_wire_drops_become_retry_child_spans(self, traced_daemon, planted):
        daemon, _node_log = traced_daemon
        f, _ = planted
        client_tracer = Tracer(service="client", sample=1.0)
        with ServiceClient(daemon.socket_path, tracer=client_tracer) as client:
            faults.install("seed=7;wire.drop:p=1,count=2")
            response = client.solve(SolveRequest(formula=f, seed=0))
            assert response.status == "sat"
            assert client.retried == 2

        spans = client_tracer.spans()
        root = next(s for s in spans if s["name"] == "client.solve")
        retries = [s for s in spans if s["name"] == "retry"]
        assert len(retries) == 2
        for i, retry in enumerate(retries):
            # Same trace as the request that ultimately succeeded,
            # parented on its root span.
            assert retry["trace"] == root["trace"]
            assert retry["parent"] == root["span"]
            assert retry["tags"]["attempt"] == i + 1
            assert retry["tags"]["error"]


class TestBackwardCompat:
    def test_untraced_requests_omit_the_header_key(self, planted):
        # Old daemons reject unknown header keys only if present; an
        # untraced request must produce the exact pre-tracing header.
        f, _ = planted
        header, _payload = wire.solve_request_to_wire(SolveRequest(formula=f))
        assert "trace" not in header

    def test_traced_and_untraced_frames_both_parse(self, planted):
        f, _ = planted
        plain = wire.solve_request_to_wire(SolveRequest(formula=f))
        assert wire.solve_request_from_wire(*plain).trace is None
        ctx = {"tid": "ab" * 16, "sid": "cd" * 8}
        traced = wire.solve_request_to_wire(SolveRequest(formula=f, trace=ctx))
        assert wire.solve_request_from_wire(*traced).trace == ctx

    def test_garbage_trace_header_does_not_break_the_daemon(
        self, traced_daemon, planted
    ):
        daemon, _node_log = traced_daemon
        f, _ = planted
        with ServiceClient(daemon.socket_path) as client:
            request = SolveRequest(formula=f, seed=0, trace="not-a-context")
            assert client.solve(request).status == "sat"

    def test_old_style_formula_only_solve_still_works(self, traced_daemon):
        daemon, _node_log = traced_daemon
        f = CNFFormula([[1, 2], [-1, 3], [2, -3]])
        with ServiceClient(daemon.socket_path) as client:
            assert client.solve(SolveRequest(formula=f)).status == "sat"
