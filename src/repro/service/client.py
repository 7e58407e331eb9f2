"""Thin client for a ``repro serve`` daemon.

:class:`ServiceClient` mirrors the :class:`~repro.service.service.
SolverService` surface over the wire — the same typed
:class:`~repro.service.requests.SolveRequest` /
:class:`~repro.service.requests.ChangeRequest` records go in, the same
:class:`~repro.service.requests.SolveResponse` comes back — so code can
switch between an in-process service and a daemon by swapping one
object.  ``repro solve FILE --connect SOCKET`` is exactly this client.

A by-value formula is shipped as the packed kernel's raw wire bytes
(:meth:`~repro.cnf.packed.PackedCNF.to_bytes`): the daemon checks and
copies out the flat arrays with numpy array operations and never sees
the client's object graph — the portfolio's worker transport, reused
across the process boundary.

**Retry policy** — the client retries *transport* failures (a dropped
connection, a truncated frame, a refused connect while the daemon
restarts), never *service* errors (an error response is the daemon's
authoritative answer).  Each retry reconnects and resends after an
exponentially growing, jittered backoff; a request deadline is a total
budget — the re-sent header carries only what is left of it.  Retried
requests are safe by construction: solves are read-only over the
engine's single-flight table, and every change carries an idempotency
``change_id`` the daemon deduplicates (filled in automatically here).
The one visible caveat: a retried ``close_session`` may report
``existed=False`` because the first attempt already closed it.  When
the connect budget itself is exhausted the client raises
:class:`~repro.errors.ConnectError` — still an ``OSError`` for blanket
handlers, but specific enough for the CLI to exit 1 with one line.
"""

from __future__ import annotations

import os
import random
import socket
import time
import uuid
from dataclasses import replace

from repro.errors import AuthError, ConnectError, ServiceError
from repro.obs import tracing
from repro.service.address import Address, parse_address
from repro.service.requests import ChangeRequest, SolveRequest, SolveResponse
from repro.service.wire import (
    WireError,
    batch_request_to_wire,
    batch_response_from_wire,
    change_request_to_wire,
    recv_frame,
    response_from_wire,
    send_frame,
    solve_request_to_wire,
)


class ServiceClient:
    """One connection to a :class:`~repro.service.daemon.ServiceDaemon`.

    Args:
        address: the daemon's endpoint — a Unix socket path,
            ``unix://PATH``, or ``tcp://HOST:PORT`` (a backend node or a
            ``repro route`` front-end; the wire protocol is identical).
        timeout: per-call socket timeout in seconds (None = block).
        retries: transport-failure retries per request (and connect
            attempts past the first); ``0`` restores fail-fast behaviour.
        backoff: base retry delay in seconds; attempt *n* waits
            ``backoff * 2**n`` plus up to one ``backoff`` of jitter.
        backoff_max: cap on any single retry delay.
        auth_token: shared secret for the daemon's per-connection auth
            handshake; defaults to ``$REPRO_AUTH_TOKEN``.  ``None`` (and
            no env var) skips the handshake — correct against an open
            daemon, a terminal :class:`~repro.errors.AuthError` against
            a guarded one.
        tracer: a :class:`~repro.obs.tracing.Tracer` to born client root
            spans into.  When set (and the tracer's sampling decision
            fires), ``solve``/``change``/``solve_many`` open a root span
            whose context rides the frame header; connect attempts and
            every transport retry become child spans, so a chaos-dropped
            frame's re-send is visible under the same ``trace_id``.
            ``None`` (the default) keeps the client exactly as before.
    """

    def __init__(
        self,
        address: "str | Address",
        *,
        timeout: float | None = 60.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        auth_token: str | None = None,
        tracer: "tracing.Tracer | None" = None,
    ):
        self.address = parse_address(address)
        #: Back-compat alias: the pre-cluster client was Unix-only and
        #: exposed the path it connected to.
        self.socket_path = (
            self.address.path if self.address.scheme == "unix" else str(address)
        )
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_max = backoff_max
        if auth_token is None:
            auth_token = os.environ.get("REPRO_AUTH_TOKEN") or None
        self.auth_token = auth_token
        self.tracer = tracer
        #: The outgoing frame's trace context (parsed off the header in
        #: :meth:`_call`); connect/retry child spans parent on it.
        self._trace_ctx: tracing.TraceContext | None = None
        #: Transport failures absorbed by retries (observability only).
        self.retried = 0
        self._sock: socket.socket | None = None
        self._connect()

    # ------------------------------------------------------------------
    def _delay(self, attempt: int) -> float:
        base = min(self.backoff * (2 ** attempt), self.backoff_max)
        return base + random.random() * self.backoff

    def _connect(self) -> None:
        """(Re)connect, retrying refused/missing sockets per the policy.

        When an ``auth_token`` is configured the handshake is part of
        connecting: the token frame must be acknowledged before the
        connection counts as established, so transient rejections (the
        ``auth.reject`` chaos point, a daemon mid-restart) are retried
        inside the same budget.  A rejection that survives the whole
        budget is reported as :class:`~repro.errors.AuthError`.

        Raises :class:`ConnectError` once the budget is spent — the
        daemon is missing, dead, or still draining.
        """
        self._reset()
        t0 = time.monotonic()
        attempts = 0
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self._delay(attempt - 1))
            attempts += 1
            sock = self.address.create_socket()
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.address.connect_target)
                if self.auth_token is not None:
                    self._handshake(sock)
            except (OSError, WireError, ServiceError) as exc:
                sock.close()
                last = exc
                continue
            self._sock = sock
            self._trace_connect(t0, attempts, None)
            return
        self._trace_connect(t0, attempts, last)
        if isinstance(last, AuthError):
            raise last
        raise ConnectError(
            f"cannot reach daemon at {self.address}: {last}"
        ) from last

    def _handshake(self, sock: socket.socket) -> None:
        """Present the auth token as the connection's first frame."""
        send_frame(sock, {"op": "auth", "token": self.auth_token})
        frame = recv_frame(sock)
        if frame is None:
            raise WireError("daemon closed the connection during auth")
        response, _ = frame
        if not response.get("ok", False):
            raise AuthError(
                f"cannot reach daemon at {self.address}: "
                f"{response.get('error', 'auth rejected')}"
            )

    def _trace_connect(
        self, t0: float, attempts: int, error: Exception | None
    ) -> None:
        """Child span for one (re)connect while a traced call is active."""
        if self.tracer is None or self._trace_ctx is None:
            return
        self.tracer.record(
            "connect",
            parent=self._trace_ctx,
            start=t0,
            duration=time.monotonic() - t0,
            tags={
                "attempts": attempts,
                "error": str(error) if error is not None else None,
            },
        )

    def _reset(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never really fails
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def _call(
        self,
        header: dict,
        payload: bytes = b"",
        *,
        attempts: int | None = None,
        check: bool = True,
    ) -> dict:
        """One request/response round trip with transport retries.

        A header ``deadline`` is treated as the *total* budget: each
        resend ships only the remainder, so retries never extend the
        caller's wall-clock contract.  With ``check=False`` an error
        response is returned instead of raised — the router's forwarding
        path, where the backend's verdict (error or not) must pass
        through verbatim.
        """
        budget = header.get("deadline")
        t0 = time.monotonic() if budget is not None else 0.0
        total = self.retries + 1 if attempts is None else attempts
        # The frame's own trace context (if any) parents connect/retry
        # child spans — for direct calls that is the root span this
        # client opened; on the router's forwarding path it is the hop
        # span, so backend retries attach to the right node attempt.
        self._trace_ctx = (
            tracing.ctx_from_wire(header.get("trace"))
            if self.tracer is not None
            else None
        )
        last: Exception | None = None
        for attempt in range(total):
            if attempt and budget is not None:
                header = dict(
                    header,
                    deadline=max(0.0, budget - (time.monotonic() - t0)),
                )
            attempt_t0 = time.monotonic()
            try:
                if self._sock is None:
                    self._connect()
                send_frame(self._sock, header, payload)
                frame = recv_frame(self._sock)
                if frame is None:
                    raise WireError("daemon closed the connection")
            except ConnectError:
                # _connect already spent its own retry budget.
                raise
            except (OSError, WireError) as exc:
                self._reset()
                last = exc
                if attempt < total - 1:
                    self.retried += 1
                    if self.tracer is not None and self._trace_ctx is not None:
                        # Each chaos-induced (or real) transport retry is
                        # a child span: the re-sent frame carries the
                        # same trace_id, so the waterfall shows the drop
                        # and the re-send under one trace.
                        self.tracer.record(
                            "retry",
                            parent=self._trace_ctx,
                            start=attempt_t0,
                            duration=time.monotonic() - attempt_t0,
                            tags={"attempt": attempt + 1, "error": str(exc)},
                        )
                    time.sleep(self._delay(attempt))
                    continue
                raise
            response, _ = frame
            if not check:
                return response
            if not response.get("ok", False):
                if response.get("code") == 401:
                    # The daemon wants a token this client was never
                    # given — terminal, and as "unreachable" as a dead
                    # socket for the CLI's one-line contract.  It also
                    # closed the connection after the 401 frame.
                    self._reset()
                    raise AuthError(
                        f"cannot reach daemon at {self.address}: "
                        f"{response.get('error', 'auth required')}"
                    )
                raise ServiceError(response.get("error", "daemon error"))
            return response
        raise ServiceError(f"request failed: {last}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _root_span(self, name: str, **tags) -> "tracing.Span | None":
        """Open a client span for one request, or None when untraced.

        An ambient sampled context (another instrumented layer above
        this client) is continued unconditionally; otherwise the
        tracer's sampling knob decides whether this request starts a
        fresh trace.
        """
        if self.tracer is None:
            return None
        parent = tracing.current()
        if (parent is None or not parent.sampled) and not self.tracer.maybe_trace():
            return None
        return self.tracer.begin(name, parent, **tags)

    def _finish_span(
        self, span: "tracing.Span | None", response: SolveResponse
    ) -> SolveResponse:
        if span is not None:
            self.tracer.finish(
                span, status=response.status, source=response.source or None
            )
        return response

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Liveness round trip."""
        return bool(self._call({"op": "ping"}).get("pong"))

    def health(self) -> dict:
        """The daemon's degradation snapshot: pool generation, cache
        degraded flags/error counters, fault-plan state (if chaos is
        installed), drain status."""
        return self._call({"op": "health"})["health"]

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Route one solve request through the daemon.

        A session-*opening* solve mutates the daemon's session table, so
        it gets an idempotency ``request_id`` (when the request has
        none) — a transport retry replays the recorded open response
        instead of landing on the "already exists" error.  Stateless
        solves and sourceless re-queries are naturally idempotent.
        """
        if (
            request.session is not None
            and request.has_source
            and request.request_id is None
        ):
            request = replace(request, request_id=uuid.uuid4().hex)
        span = self._root_span("client.solve", session=request.session)
        if span is not None:
            request = replace(request, trace=tracing.ctx_to_wire(span.context))
        header, payload = solve_request_to_wire(request)
        try:
            response = response_from_wire(self._call(header, payload))
        except BaseException as exc:
            if span is not None:
                self.tracer.finish(span, error=repr(exc))
            raise
        return self._finish_span(span, response)

    def change(self, request: ChangeRequest) -> SolveResponse:
        """Route one change request through the daemon.

        Fills in an idempotency ``change_id`` when the request has none,
        so a transport retry replays the daemon's recorded response
        instead of applying the batch twice.
        """
        if request.change_id is None:
            request = replace(request, change_id=uuid.uuid4().hex)
        span = self._root_span("client.change", session=request.session)
        if span is not None:
            request = replace(request, trace=tracing.ctx_to_wire(span.context))
        try:
            response = response_from_wire(
                self._call(change_request_to_wire(request))
            )
        except BaseException as exc:
            if span is not None:
                self.tracer.finish(span, error=repr(exc))
            raise
        return self._finish_span(span, response)

    def solve_many(
        self,
        cnfs: list,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        use_cache: bool = True,
        lead: str | None = None,
    ) -> list[SolveResponse]:
        """Ship a batch of packed kernels in one frame (``solve_many``).

        Mirrors :meth:`SolverService.solve_many`: one shared pool and
        intra-batch fingerprint dedup on the daemon side, one network
        round trip instead of N on this side.  The replay driver uses
        this for batched trace segments.
        """
        span = self._root_span("client.solve_many", batch=len(cnfs))
        header, payload = batch_request_to_wire(
            cnfs,
            deadline=deadline,
            seed=seed,
            use_cache=use_cache,
            lead=lead,
            trace=(
                tracing.ctx_to_wire(span.context) if span is not None else None
            ),
        )
        try:
            responses = batch_response_from_wire(self._call(header, payload))
        except BaseException as exc:
            if span is not None:
                self.tracer.finish(span, error=repr(exc))
            raise
        if span is not None:
            self.tracer.finish(span, results=len(responses))
        return responses

    def close_session(self, name: str) -> bool:
        """Drop a named session on the daemon.

        On a retried call the first attempt may already have closed it,
        in which case this reports ``False`` like any other already-gone
        session.
        """
        return bool(
            self._call({"op": "close_session", "session": name}).get("existed")
        )

    def stats(self) -> dict:
        """The daemon's engine/cache counter snapshot."""
        return self._call({"op": "stats"})["stats"]

    def stats_frame(
        self, *, window: float | None = None, recent: int = 0
    ) -> dict:
        """One observability frame: windowed rps/hit-rate, gauges, and
        the lifetime latency histogram (``repro stats --json``).

        Args:
            window: trailing seconds of monitor history folded into the
                rates (daemon default: 60).
            recent: also include this many raw per-second rows under
                ``"series"``.
        """
        header: dict = {"op": "stats_frame"}
        if window is not None:
            header["window"] = window
        if recent:
            header["recent"] = recent
        return self._call(header)["frame"]

    def sync(self, cursor: int = 0, *, limit: int = 256) -> dict:
        """Pull one page of cache entries past *cursor* (anti-entropy).

        Returns the daemon's ``{"cursor", "entries", "more"}`` page; the
        caller merges the entries and pulls again from the new cursor.
        Blindly re-pulling a page is safe: entries are content-addressed
        by fp-v2, so a merge is idempotent by construction.
        """
        return self._call({"op": "sync", "cursor": int(cursor), "limit": int(limit)})

    def forward(self, header: dict, payload: bytes = b"") -> dict:
        """Ship a pre-built frame and return the raw response header.

        The router's data path: error responses come back as values
        (never raised) so the backend's exact verdict frame can be
        relayed to the requester; transport failures still raise and
        still burn this client's retry budget.
        """
        return self._call(dict(header), payload, check=False)

    def cluster_health(self) -> dict:
        """A ``repro route`` front-end's per-node state (generation,
        degraded flags, last synced cursor) plus its own routing
        counters.  A plain single-node daemon answers with an error."""
        return self._call({"op": "cluster_health"})["cluster"]

    def watch(self, *, interval: float = 1.0, count: int | None = None):
        """Subscribe to the daemon's metric push-stream.

        Yields one frame dict per ``interval`` seconds until ``count``
        frames arrived or the daemon drains.  The generator consumes the
        connection's receive side for its whole lifetime — make no other
        calls on this client until it is exhausted (or just dedicate a
        client to watching, as ``repro stats --watch`` does).  The
        stream is *not* retried: a reconnect could not resume a
        half-consumed subscription, so transport errors propagate.
        """
        if self._sock is None:
            self._connect()
        header: dict = {"op": "watch", "interval": interval}
        if count is not None:
            header["count"] = count
        send_frame(self._sock, header)
        ack = recv_frame(self._sock)
        if ack is None:
            raise ServiceError("daemon closed the connection")
        response, _ = ack
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "daemon error"))
        # Frames arrive at most `interval` apart (plus solve jitter);
        # wait generously past that instead of the per-call timeout.
        previous = self._sock.gettimeout()
        self._sock.settimeout(max(interval * 3.0, 10.0))
        try:
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    return          # daemon drained mid-stream
                response, _ = frame
                if not response.get("ok", False):
                    raise ServiceError(response.get("error", "daemon error"))
                if response.get("done"):
                    return
                yield response["frame"]
        finally:
            try:
                if self._sock is not None:
                    self._sock.settimeout(previous)
            except OSError:
                pass        # socket already closed; nothing to restore

    def shutdown(self) -> None:
        """Ask the daemon to stop (acknowledged before it exits).

        Single-attempt on purpose: retrying against a daemon that obeyed
        the first request would just burn the connect budget.
        """
        self._call({"op": "shutdown"}, attempts=1)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._reset()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
