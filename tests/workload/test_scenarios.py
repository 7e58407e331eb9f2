"""Scenario generators: structure, session discipline, registry."""

import pytest

from repro.errors import ReproError
from repro.service.requests import ChangeRequest, SolveRequest
from repro.workload.scenarios import (
    EVENT_KINDS,
    SCENARIOS,
    WorkloadEvent,
    build_scenario,
)
from repro.workload.trace import event_to_wire


def small(name, seed=0):
    return build_scenario(name, seed=seed, tenants=2, changes=4)


class TestRegistry:
    def test_every_scenario_builds_a_nonempty_stream(self):
        for name in SCENARIOS:
            events = small(name)
            assert events, name
            assert all(e.kind in EVENT_KINDS for e in events)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            build_scenario("nope")

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            WorkloadEvent("frobnicate")


class TestSessionDiscipline:
    """Streams must be executable: opens before changes before closes."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_stream_respects_session_lifecycle(self, name):
        open_sessions: set[str] = set()
        for event in small(name):
            if event.kind == "solve":
                request = event.request
                assert isinstance(request, SolveRequest)
                if request.session is None:
                    assert request.has_source
                elif request.has_source:
                    # An open: the name must be free.
                    assert request.session not in open_sessions
                    open_sessions.add(request.session)
                else:
                    # A re-query: the session must exist.
                    assert request.session in open_sessions
            elif event.kind == "change":
                assert isinstance(event.request, ChangeRequest)
                assert event.request.session in open_sessions
            elif event.kind == "close_session":
                assert event.session in open_sessions
                open_sessions.remove(event.session)
        assert not open_sessions, "every scenario closes what it opens"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_tenants_interleave(self, name):
        """Round-robin merge: the first few events span > 1 session."""
        events = small(name)
        leading_keys = {e.key for e in events[:4] if e.key is not None}
        assert len(leading_keys) > 1

    def test_ordering_key(self):
        events = small("tenant-churn")
        stateless = [e for e in events if e.kind == "solve" and e.request.session is None]
        assert stateless, "tenant-churn carries stateless traffic"
        assert all(e.key is None for e in stateless)
        closes = [e for e in events if e.kind == "close_session"]
        assert all(e.key == e.session for e in closes)


class TestParameters:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_builds_long_streams(self, name):
        assert build_scenario(name, seed=0, changes=40)

    def test_long_coloring_churn_stays_satisfiable(self):
        # Past the spent insertion pool, deleted edges are inserted again;
        # every one is proper under the planted coloring.
        from repro.engine.config import EngineConfig
        from repro.service.service import SolverService
        from repro.workload.runner import inprocess_factory, run_events, summarize

        events = build_scenario("coloring-churn", seed=0, tenants=2, changes=60)
        with SolverService(EngineConfig(jobs=1)) as service:
            results, wall = run_events(events, inprocess_factory(service))
        report = summarize(results, wall, scenario="coloring-churn")
        assert report.errors == 0, report.error_detail
        assert set(report.statuses) == {"sat"}

    def test_tenants_scale_the_stream(self):
        assert len(build_scenario("sat-tightening", tenants=4, changes=3)) == 2 * len(
            build_scenario("sat-tightening", tenants=2, changes=3)
        )

    def test_changes_scale_the_stream(self):
        shorter = build_scenario("sat-loosening", tenants=2, changes=2)
        longer = build_scenario("sat-loosening", tenants=2, changes=6)
        assert len(longer) > len(shorter)

    def test_different_seeds_differ(self):
        a = [event_to_wire(e) for e in small("sat-mixed", seed=0)]
        b = [event_to_wire(e) for e in small("sat-mixed", seed=1)]
        assert a != b

    def test_tenant_churn_collides_fingerprints(self):
        """The churn scenario must contain repeated-content solves."""
        from repro.engine.fingerprint import fingerprint_v2

        events = build_scenario("tenant-churn", seed=0, tenants=3, changes=4)
        fps = [
            fingerprint_v2(e.request.formula)
            for e in events
            if e.kind == "solve" and e.request is not None
            and e.request.formula is not None
        ]
        assert len(set(fps)) < len(fps)
