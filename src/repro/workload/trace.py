"""Versioned request-trace format: record real streams, replay them.

A trace is JSONL — one JSON object per line, human-greppable — whose
first line is a format/version header and whose remaining lines each
capture **one request/response pair with timing**::

    {"format": "repro-workload-trace", "version": 1, "meta": {...}}
    {"seq": 0, "at": 0.0012, "wall": 0.0048, "op": "solve",
     "header": {...wire header...}, "payload": "<base64 packed bytes>",
     "response": {...wire response header...}}

The ``header``/``payload``/``response`` fields are exactly the frames of
:mod:`repro.service.wire` (payload base64-armoured so binary packed-CNF
bytes survive JSONL): the trace codec cannot drift from the daemon
protocol because it *is* the daemon protocol, persisted.  Round-tripping
is lossless by construction — :func:`read_trace` hands back byte-equal
payloads and dict-equal headers, and :func:`record_to_event` rebuilds
the typed request records through the same ``*_from_wire`` codecs the
daemon uses.

Three ways traces are produced:

* **server-side** — ``repro serve --record PATH`` installs a
  :class:`TraceRecorder` on the :class:`~repro.service.service.
  SolverService`; every typed op (solve / change / close_session /
  solve_many) is appended after it completes, with its service-side
  wall time;
* **driver-side** — ``repro loadgen --record PATH`` writes the stream
  the load driver executed (works against both in-process services and
  remote daemons);
* **by hand** — any JSONL writer emitting this schema.

``repro replay TRACE`` then re-executes the stream and verifies each
response against the recorded one (status, fingerprint, model).
"""

from __future__ import annotations

import base64
import json
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.service.requests import ChangeRequest, SolveRequest, SolveResponse
from repro.service.wire import (
    batch_request_from_wire,
    batch_request_to_wire,
    change_request_from_wire,
    change_request_to_wire,
    response_to_wire,
    solve_request_from_wire,
    solve_request_to_wire,
)
from repro.workload.scenarios import WorkloadEvent

#: Trace file magic / schema version (bump on incompatible changes).
TRACE_FORMAT = "repro-workload-trace"
TRACE_VERSION = 1


class TraceError(ReproError):
    """A malformed trace file or an unserializable record."""


@dataclass(frozen=True)
class TraceRecord:
    """One recorded request/response pair.

    Attributes:
        seq: zero-based record index (write order).
        at: seconds since trace start when the request completed.
        wall: service-side handling time in seconds.
        op: the wire op (``solve`` / ``change`` / ``close_session`` /
            ``solve_many``).
        header: the request's wire header.
        payload: the request's binary payload (packed CNF bytes).
        response: the response's wire header (``results`` list for
            ``solve_many``).
    """

    seq: int
    at: float
    wall: float
    op: str
    header: dict
    payload: bytes = b""
    response: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# event <-> wire codecs (shared by the recorder and the replay driver)
# ----------------------------------------------------------------------
def event_to_wire(event: WorkloadEvent) -> tuple[str, dict, bytes]:
    """(op, wire header, payload) for one workload event.

    This is the determinism oracle: two scenario streams are identical
    iff their events serialize to identical (op, header, payload)
    triples.
    """
    if event.kind == "solve":
        header, payload = solve_request_to_wire(event.request)
        return "solve", header, payload
    if event.kind == "change":
        return "change", change_request_to_wire(event.request), b""
    if event.kind == "close_session":
        return (
            "close_session",
            {"op": "close_session", "session": event.session},
            b"",
        )
    if event.kind == "solve_many":
        header, payload = batch_request_to_wire(
            list(event.formulas), **(event.options or {})
        )
        return "solve_many", header, payload
    raise TraceError(f"unserializable event kind {event.kind!r}")


def record_to_event(record: TraceRecord) -> WorkloadEvent:
    """Rebuild the typed workload event a trace record captured."""
    if record.op == "solve":
        return WorkloadEvent(
            "solve",
            request=solve_request_from_wire(record.header, record.payload),
            at=record.at,
        )
    if record.op == "change":
        return WorkloadEvent(
            "change", request=change_request_from_wire(record.header), at=record.at
        )
    if record.op == "close_session":
        return WorkloadEvent(
            "close_session", session=record.header.get("session", ""), at=record.at
        )
    if record.op == "solve_many":
        cnfs, options = batch_request_from_wire(record.header, record.payload)
        return WorkloadEvent(
            "solve_many", formulas=tuple(cnfs), options=options, at=record.at
        )
    raise TraceError(f"unknown trace op {record.op!r}")


def expected_outcomes(record: TraceRecord) -> list[dict]:
    """The recorded per-response verification tuples for one record.

    Each entry is ``{"status", "fingerprint", "literals"}`` for solve-
    like ops (one for solve/change, one per batch item for solve_many)
    or ``{"existed"}`` for close_session — what a replay must reproduce.
    """
    def outcome(response: dict) -> dict:
        return {
            "status": response.get("status", ""),
            "fingerprint": response.get("fingerprint", ""),
            "literals": (
                tuple(response["literals"])
                if response.get("literals") is not None
                else None
            ),
        }

    if record.op == "close_session":
        return [{"existed": bool(record.response.get("existed", False))}]
    if record.op == "solve_many":
        return [outcome(r) for r in record.response.get("results", [])]
    return [outcome(record.response)]


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class TraceRecorder:
    """Append-only, thread-safe trace writer.

    The :class:`~repro.service.service.SolverService` calls the
    ``record_*`` hooks after each typed op completes; the load driver
    calls :meth:`record` directly with pre-serialized frames.  Records
    are flushed per line (a killed daemon loses at most the in-flight
    record), and ``close()`` is idempotent.

    Arrival offsets are measured from the *first record*, not from
    recorder construction — a daemon idle for an hour before its first
    client must not bake an hour of dead air into the trace (open-loop
    replay sleeps those offsets back).

    Args:
        path: trace file to create (truncates an existing file).
        meta: JSON-able context stored in the version line (scenario
            name, daemon config, ...).
    """

    def __init__(self, path: str, *, meta: dict | None = None):
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._t0: float | None = None
        self._seq = 0
        self._closed = False
        self._fh.write(
            json.dumps(
                {"format": TRACE_FORMAT, "version": TRACE_VERSION, "meta": meta or {}},
                separators=(",", ":"),
            )
            + "\n"
        )
        self._fh.flush()

    @property
    def count(self) -> int:
        """Records written so far."""
        return self._seq

    def record(
        self,
        op: str,
        header: dict,
        payload: bytes = b"",
        response: dict | None = None,
        wall: float = 0.0,
        at: float | None = None,
    ) -> None:
        """Append one request/response pair (thread-safe)."""
        line: dict = {
            "seq": 0,  # seq and at are patched under the lock
            "at": 0.0,
            "wall": round(wall, 6),
            "op": op,
            "header": header,
        }
        if payload:
            line["payload"] = base64.b64encode(payload).decode("ascii")
        line["response"] = response or {}
        now = time.monotonic()
        with self._lock:
            if self._closed:
                raise TraceError(f"trace recorder {self.path!r} is closed")
            if self._t0 is None:
                self._t0 = now
            line["at"] = round(at if at is not None else now - self._t0, 6)
            line["seq"] = self._seq
            self._seq += 1
            self._fh.write(json.dumps(line, separators=(",", ":")) + "\n")
            self._fh.flush()

    # -- SolverService hooks -------------------------------------------
    def record_solve(
        self, request: SolveRequest, response: SolveResponse, wall: float
    ) -> None:
        header, payload = solve_request_to_wire(request)
        self.record("solve", header, payload, response_to_wire(response), wall)

    def record_change(
        self, request: ChangeRequest, response: SolveResponse, wall: float
    ) -> None:
        self.record(
            "change",
            change_request_to_wire(request),
            b"",
            response_to_wire(response),
            wall,
        )

    def record_close_session(self, name: str, existed: bool, wall: float) -> None:
        self.record(
            "close_session",
            {"op": "close_session", "session": name},
            b"",
            {"ok": True, "existed": existed},
            wall,
        )

    def record_solve_many(
        self,
        cnfs: list,
        options: dict,
        responses: list[SolveResponse],
        wall: float,
    ) -> None:
        header, payload = batch_request_to_wire(cnfs, **options)
        self.record(
            "solve_many",
            header,
            payload,
            {"ok": True, "results": [response_to_wire(r) for r in responses]},
            wall,
        )

    # ------------------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """A parsed trace: version line plus ordered records."""

    version: int
    meta: dict
    records: list[TraceRecord]

    def events(self) -> list[WorkloadEvent]:
        """The replayable stream (recorded arrival offsets in ``at``)."""
        return [record_to_event(r) for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


def read_trace(path: str) -> Trace:
    """Parse a trace file.

    Raises:
        TraceError: missing/foreign version line, an unsupported
            version, or a malformed record line.
    """
    records: list[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceError(f"{path}: empty trace file")
        try:
            head = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: malformed version line: {exc}") from None
        if not isinstance(head, dict) or head.get("format") != TRACE_FORMAT:
            raise TraceError(f"{path}: not a {TRACE_FORMAT} file")
        version = head.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"{path}: unsupported trace version {version!r} "
                f"(this reader speaks {TRACE_VERSION})"
            )
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: malformed record: {exc}") from None
            try:
                records.append(
                    TraceRecord(
                        seq=int(obj["seq"]),
                        at=float(obj.get("at", 0.0)),
                        wall=float(obj.get("wall", 0.0)),
                        op=str(obj["op"]),
                        header=obj["header"],
                        payload=(
                            base64.b64decode(obj["payload"])
                            if obj.get("payload")
                            else b""
                        ),
                        response=obj.get("response", {}),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(
                    f"{path}:{lineno}: incomplete record ({exc})"
                ) from None
    return Trace(version=version, meta=head.get("meta", {}), records=records)
