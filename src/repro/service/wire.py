"""Length-prefixed JSON + packed-bytes framing for ``repro serve``.

One frame = a JSON header plus an optional binary payload::

    header_len  u32 little-endian
    header      UTF-8 JSON, header_len bytes
    payload_len u32 little-endian
    payload     payload_len raw bytes (the packed kernel's wire format)

The header carries everything JSON can say cheaply (op, strategy,
deadline, seed, literals of a model or hint, serialized change batches);
the payload carries the one thing it cannot — a CNF instance — as
:meth:`~repro.cnf.packed.PackedCNF.to_bytes` raw-array bytes, the same
zero-object-graph transport the portfolio already ships to race workers.
A frame with no instance has ``payload_len == 0``.

This module also owns the JSON codecs for the typed records in
:mod:`repro.service.requests` and for :class:`~repro.core.change.
ChangeSet` batches, so the client and the daemon cannot drift apart.
The decoders ignore header keys the encoders do not write, so frames
from older clients and recorded traces still parse, and the keys of
retired request options are answered as if absent.  A solve frame's
instance rides the payload: a frame naming a file for the daemon to
read instead is refused, never opened.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.packed import PackedCNF
from repro.core.change import (
    AddClause,
    AddVariable,
    ChangeSet,
    RemoveClause,
    RemoveVariable,
)
from repro.errors import ReproError
from repro.service.requests import ChangeRequest, SolveRequest, SolveResponse

#: Sanity cap on header/payload sizes (a corrupt length prefix must not
#: make the reader try to allocate gigabytes).
MAX_FRAME_BYTES = 512 * 1024 * 1024

_LEN = struct.Struct("<I")


class WireError(ReproError):
    """A malformed frame or an unserializable record.

    Carries structured context when available — the offending declared
    ``length`` (an over-cap or truncated prefix) and the ``op`` of the
    request being read — so the daemon can log a useful record before
    closing the connection instead of a bare message.
    """

    def __init__(
        self,
        message: str,
        *,
        length: int | None = None,
        op: str | None = None,
    ):
        super().__init__(message)
        self.length = length
        self.op = op


# ----------------------------------------------------------------------
# frame transport
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    """Send one frame (header JSON + optional binary payload)."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(raw)) + raw + _LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes, or None on a clean EOF at a frame start.

    On a socket with a receive timeout, ``socket.timeout`` propagates
    only when *no* bytes have been read yet (an idle poll the caller may
    retry); once any byte arrived, a timeout means a truncated stream
    and raises :class:`WireError` — retrying would desynchronize the
    framing.
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(65536, n - got))
        except socket.timeout:
            if got == 0:
                raise
            raise WireError(
                f"connection timed out mid-read ({got}/{n} bytes)"
            ) from None
        if not chunk:
            if got == 0:
                return None
            raise WireError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_bytes: int | None = None
) -> tuple[dict, bytes] | None:
    """Receive one frame; None when the peer closed between frames.

    On a socket with a receive timeout, ``socket.timeout`` escapes only
    while waiting for a frame to *start* (safe to retry — the daemon's
    shutdown poll); a timeout after the length prefix arrived is a
    :class:`WireError` like any other truncation.

    Args:
        max_bytes: per-connection cap on header/payload sizes; defaults
            to the module-level :data:`MAX_FRAME_BYTES`.
    """
    cap = MAX_FRAME_BYTES if max_bytes is None else max_bytes
    raw_len = _recv_exact(sock, _LEN.size)
    if raw_len is None:
        return None
    (header_len,) = _LEN.unpack(raw_len)
    if header_len > cap:
        raise WireError(
            f"header length {header_len} exceeds the frame cap ({cap})",
            length=header_len,
        )
    try:
        return _recv_frame_body(sock, header_len, cap)
    except socket.timeout:
        raise WireError("connection timed out mid-frame") from None


def _recv_frame_body(
    sock: socket.socket, header_len: int, cap: int
) -> tuple[dict, bytes]:
    header_raw = _recv_exact(sock, header_len)
    if header_raw is None:
        raise WireError("connection closed before the frame header")
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    op = header.get("op") if isinstance(header.get("op"), str) else None
    raw_len = _recv_exact(sock, _LEN.size)
    if raw_len is None:
        raise WireError("connection closed before the payload length", op=op)
    (payload_len,) = _LEN.unpack(raw_len)
    if payload_len > cap:
        raise WireError(
            f"payload length {payload_len} exceeds the frame cap ({cap})",
            length=payload_len,
            op=op,
        )
    try:
        payload = b"" if payload_len == 0 else _recv_exact(sock, payload_len)
    except WireError as exc:
        raise WireError(str(exc), length=payload_len, op=op) from None
    if payload is None:
        raise WireError("connection closed before the payload", op=op)
    return header, payload


def send_truncated_frame(sock: socket.socket) -> None:
    """Chaos helper: publish a length prefix, then stop mid-frame.

    The peer's framing reader sees a declared header it never receives —
    exactly the torn-write shape a daemon crash mid-``sendall`` would
    produce — and must surface a :class:`WireError`, not hang or
    misparse the next frame.
    """
    sock.sendall(_LEN.pack(64) + b'{"truncated"')


# ----------------------------------------------------------------------
# ChangeSet codec
# ----------------------------------------------------------------------
def changes_to_wire(changes: ChangeSet) -> list[dict]:
    """Serialize a typed change batch to JSON-able operations."""
    ops: list[dict] = []
    for change in changes:
        if isinstance(change, AddClause):
            ops.append({"kind": "add-clause", "lits": list(change.clause.literals)})
        elif isinstance(change, RemoveClause):
            ops.append({"kind": "remove-clause", "lits": list(change.clause.literals)})
        elif isinstance(change, AddVariable):
            ops.append({"kind": "add-var", "var": change.var})
        elif isinstance(change, RemoveVariable):
            ops.append({"kind": "remove-var", "var": change.var})
        else:  # pragma: no cover - the Change union is closed today
            raise WireError(f"unserializable change {change!r}")
    return ops


def changes_from_wire(ops: list[dict]) -> ChangeSet:
    """Rebuild a :class:`ChangeSet` from wire operations."""
    changes = ChangeSet()
    for op in ops:
        kind = op.get("kind")
        if kind == "add-clause":
            changes.add(AddClause(Clause(op["lits"])))
        elif kind == "remove-clause":
            changes.add(RemoveClause(Clause(op["lits"])))
        elif kind == "add-var":
            changes.add(AddVariable(op.get("var")))
        elif kind == "remove-var":
            changes.add(RemoveVariable(op["var"]))
        else:
            raise WireError(f"unknown change kind {kind!r}")
    return changes


# ----------------------------------------------------------------------
# request / response codecs
# ----------------------------------------------------------------------
def solve_request_to_wire(request: SolveRequest) -> tuple[dict, bytes]:
    """(header, payload) for a solve request.

    A by-value formula is shipped as its packed kernel's wire bytes — the
    caller-side object graph never crosses the socket.
    """
    payload = b""
    if request.formula is not None:
        payload = request.formula.packed().to_bytes()
    elif request.packed_bytes is not None:
        payload = request.packed_bytes
    header = {
        "op": "solve",
        "strategy": request.strategy,
        "method": request.method,
        "deadline": request.deadline,
        "seed": request.seed,
        "hint": (
            list(request.hint.to_literals()) if request.hint is not None else None
        ),
        "session": request.session,
        "request_id": request.request_id,
    }
    if request.trace is not None:
        # Optional by design: the key is absent for untraced requests,
        # so frames (and recorded traces) are byte-identical to the
        # pre-tracing wire format unless a span is actually propagating.
        header["trace"] = request.trace
    return header, payload


def solve_request_from_wire(header: dict, payload: bytes) -> SolveRequest:
    """Rebuild a :class:`SolveRequest` on the daemon side; a frame with
    neither a payload nor a session is refused (see the module
    docstring)."""
    if not payload and header.get("session") is None:
        raise WireError("a solve frame needs a packed payload or a session")
    hint = header.get("hint")
    return SolveRequest(
        packed_bytes=payload or None,
        strategy=header.get("strategy", "portfolio"),
        method=header.get("method", "exact"),
        deadline=header.get("deadline"),
        seed=header.get("seed"),
        hint=Assignment.from_literals(hint) if hint is not None else None,
        session=header.get("session"),
        request_id=header.get("request_id"),
        trace=(
            header["trace"] if isinstance(header.get("trace"), dict) else None
        ),
    )


def change_request_to_wire(request: ChangeRequest) -> dict:
    """Header for a change request (changes ride the header as JSON)."""
    header = {
        "op": "change",
        "session": request.session,
        "changes": changes_to_wire(request.changes),
        "deadline": request.deadline,
        "seed": request.seed,
        "ec_mode": request.ec_mode,
        "change_id": request.change_id,
    }
    if request.trace is not None:
        header["trace"] = request.trace
    return header


def change_request_from_wire(header: dict) -> ChangeRequest:
    """Rebuild a :class:`ChangeRequest` on the daemon side."""
    return ChangeRequest(
        session=header["session"],
        changes=changes_from_wire(header.get("changes", [])),
        deadline=header.get("deadline"),
        seed=header.get("seed"),
        ec_mode=header.get("ec_mode", "auto"),
        change_id=header.get("change_id"),
        trace=(
            header["trace"] if isinstance(header.get("trace"), dict) else None
        ),
    )


def batch_request_to_wire(
    cnfs: list,
    *,
    deadline: float | None = None,
    seed: int | None = None,
    trace: dict | None = None,
) -> tuple[dict, bytes]:
    """(header, payload) for a ``solve_many`` batch of packed kernels.

    The payload concatenates each kernel's wire bytes; the header's
    ``lens`` list is the split index.  One frame per batch — the replay
    driver ships whole trace segments this way instead of paying a
    round trip per instance.
    """
    payloads = [cnf.to_bytes() for cnf in cnfs]
    header = {
        "op": "solve_many",
        "lens": [len(p) for p in payloads],
        "deadline": deadline,
        "seed": seed,
    }
    if trace is not None:
        header["trace"] = trace
    return header, b"".join(payloads)


def batch_request_from_wire(header: dict, payload: bytes) -> tuple[list, dict]:
    """(packed kernels, shared options) for a ``solve_many`` frame."""
    lens = header.get("lens", [])
    if not isinstance(lens, list) or any(
        not isinstance(n, int) or n <= 0 for n in lens
    ):
        raise WireError("solve_many header needs a positive-int 'lens' list")
    if sum(lens) != len(payload):
        raise WireError(
            f"solve_many payload is {len(payload)} bytes but 'lens' sums "
            f"to {sum(lens)}"
        )
    cnfs = []
    offset = 0
    for n in lens:
        cnfs.append(PackedCNF.from_bytes(payload[offset:offset + n]))
        offset += n
    return cnfs, {"deadline": header.get("deadline"), "seed": header.get("seed")}


def batch_response_from_wire(header: dict) -> list[SolveResponse]:
    """Rebuild the per-instance responses of a ``solve_many`` frame."""
    return [response_from_wire(r) for r in header.get("results", [])]


def response_to_wire(response: SolveResponse) -> dict:
    """Header for a response frame."""
    return {
        "ok": True,
        "status": response.status,
        "literals": (
            list(response.assignment.to_literals())
            if response.assignment is not None else None
        ),
        "fingerprint": response.fingerprint,
        "source": response.source,
        "winner": response.winner,
        "wall_time": response.wall_time,
        "from_cache": response.from_cache,
        "session": response.session,
        "regime": response.regime,
        "detail": response.detail,
    }


def response_from_wire(header: dict) -> SolveResponse:
    """Rebuild a :class:`SolveResponse` on the client side."""
    lits = header.get("literals")
    return SolveResponse(
        status=header["status"],
        assignment=Assignment.from_literals(lits) if lits is not None else None,
        fingerprint=header.get("fingerprint", ""),
        source=header.get("source", ""),
        winner=header.get("winner"),
        wall_time=float(header.get("wall_time", 0.0)),
        from_cache=bool(header.get("from_cache", False)),
        session=header.get("session"),
        regime=header.get("regime", ""),
        detail=header.get("detail", ""),
    )
