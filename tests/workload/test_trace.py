"""Trace format: lossless round trips, versioning, malformed input."""

import json

import pytest

from repro.cnf.generators import random_planted_ksat
from repro.workload.scenarios import build_scenario
from repro.workload.trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceError,
    TraceRecorder,
    event_to_wire,
    expected_outcomes,
    read_trace,
    record_to_event,
)


def write_scenario_trace(path, name="sat-mixed", seed=3):
    """Record a scenario's raw requests (no execution needed)."""
    events = build_scenario(name, seed=seed, tenants=2, changes=4)
    with TraceRecorder(str(path), meta={"scenario": name}) as recorder:
        for event in events:
            op, header, payload = event_to_wire(event)
            recorder.record(op, header, payload, {"status": "sat"}, wall=0.001)
    return events


class TestRoundTrip:
    def test_records_round_trip_losslessly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = write_scenario_trace(path)
        trace = read_trace(str(path))
        assert trace.version == TRACE_VERSION
        assert trace.meta == {"scenario": "sat-mixed"}
        assert len(trace) == len(events)
        for i, (event, record) in enumerate(zip(events, trace.records)):
            op, header, payload = event_to_wire(event)
            assert record.seq == i
            assert record.op == op
            assert record.header == header
            assert record.payload == payload          # byte-identical
            assert record.wall == pytest.approx(0.001)

    def test_record_to_event_rebuilds_identical_wire_frames(self, tmp_path):
        """decode(encode(event)) must re-encode to the same frame."""
        path = tmp_path / "t.jsonl"
        write_scenario_trace(path, name="coloring-churn")
        for record in read_trace(str(path)).records:
            op, header, payload = event_to_wire(record_to_event(record))
            assert (op, header, payload) == (record.op, record.header, record.payload)

    def test_solve_many_record_round_trips(self, tmp_path):
        from repro.service.requests import SolveResponse

        f1, _ = random_planted_ksat(10, 30, rng=1)
        f2, _ = random_planted_ksat(10, 30, rng=2)
        path = tmp_path / "b.jsonl"
        with TraceRecorder(str(path)) as recorder:
            recorder.record_solve_many(
                [f1.packed(), f2.packed()],
                {"deadline": None, "seed": 7},
                [SolveResponse("sat"), SolveResponse("sat")],
                wall=0.01,
            )
        record = read_trace(str(path)).records[0]
        event = record_to_event(record)
        assert event.kind == "solve_many"
        assert len(event.formulas) == 2
        assert event.options["seed"] == 7
        rebuilt = [sorted(c) for c in event.formulas[0].iter_clauses()]
        original = [sorted(c.literals) for c in f1.clauses]
        assert rebuilt == original
        assert len(expected_outcomes(record)) == 2

    def test_arrival_offsets_survive(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(str(path)) as recorder:
            recorder.record(
                "close_session", {"op": "close_session", "session": "s"},
                response={"ok": True, "existed": True}, at=1.25,
            )
        trace = read_trace(str(path))
        assert trace.records[0].at == pytest.approx(1.25)
        assert trace.events()[0].at == pytest.approx(1.25)
        assert expected_outcomes(trace.records[0]) == [{"existed": True}]


class TestMalformedInput:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(str(path))

    def test_foreign_format(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(TraceError, match="not a"):
            read_trace(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION + 1}) + "\n"
        )
        with pytest.raises(TraceError, match="unsupported trace version"):
            read_trace(str(path))

    def test_malformed_record_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION}) + "\n"
            + "not json\n"
        )
        with pytest.raises(TraceError, match="malformed record"):
            read_trace(str(path))

    def test_incomplete_record_line(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION}) + "\n"
            + json.dumps({"seq": 0}) + "\n"
        )
        with pytest.raises(TraceError, match="incomplete record"):
            read_trace(str(path))

    def test_unknown_op_rejected_at_event_build(self, tmp_path):
        path = tmp_path / "o.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION}) + "\n"
            + json.dumps({"seq": 0, "op": "frob", "header": {}}) + "\n"
        )
        trace = read_trace(str(path))
        with pytest.raises(TraceError, match="unknown trace op"):
            trace.events()


class TestRecorderLifecycle:
    def test_close_is_idempotent_and_closed_rejects_writes(self, tmp_path):
        recorder = TraceRecorder(str(tmp_path / "c.jsonl"))
        recorder.record("close_session", {"op": "close_session", "session": "x"})
        assert recorder.count == 1
        recorder.close()
        recorder.close()
        with pytest.raises(TraceError, match="closed"):
            recorder.record("close_session", {"op": "close_session", "session": "y"})

    def test_offsets_start_at_the_first_record_not_recorder_birth(
        self, tmp_path
    ):
        """A daemon idle before its first client must not bake dead air
        into the trace (open-loop replay would sleep it back)."""
        import time

        recorder = TraceRecorder(str(tmp_path / "idle.jsonl"))
        time.sleep(0.15)                   # pre-traffic daemon idle
        recorder.record("close_session", {"op": "close_session", "session": "a"})
        recorder.record("close_session", {"op": "close_session", "session": "b"})
        recorder.close()
        records = read_trace(str(tmp_path / "idle.jsonl")).records
        assert records[0].at == 0.0
        assert 0.0 <= records[1].at < 0.1

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_scenario_trace(path)
        content = path.read_text().replace("\n", "\n\n", 1)
        path.write_text(content)
        assert len(read_trace(str(path))) > 0
