"""The one frame server behind ``repro serve`` and ``repro route``.

Both front-ends speak the length-prefixed frames of
:mod:`repro.service.wire` — one request frame, one response frame, many
ops per connection — over Unix and/or TCP sockets, one thread per
connection.  :class:`FrameServer` carries the frames; a subclass
supplies :meth:`FrameServer._dispatch` (one op in, one response header
out) plus whichever lifecycle hooks it needs.

* **Auth.**  With a token, every connection must open with a valid
  ``auth`` frame; anything else gets a 401-style error frame and a
  closed connection (``auth_failures``).  A token-less server acks the
  handshake as a no-op, so one client config works against open and
  guarded endpoints alike.
* **Errors are frames.**  A malformed frame is answered with ``{"ok":
  false, "error": ...}`` and a closed connection (``errors``, plus a
  ``wire_error`` log record with the declared length and op); a failing
  op gets an error frame on a connection that stays open.
* **The op log** (``log_path``) holds one JSON record per event, with a
  monotonic (``mono``) and a wall (``ts``) timestamp; op records add
  op, session, fingerprint prefix, latency, outcome and trace/span ids.
* **Fault points** ``wire.drop``, ``wire.slow``, ``wire.truncate`` and
  ``auth.reject`` (:mod:`repro.faults`) are inert unless a plan is
  installed, which only ``repro serve --chaos`` does.
* **Drain.**  :meth:`FrameServer.shutdown` (the CLI wires SIGTERM to
  it) or an op answered with stop-after stops the accept loop; every
  in-flight request finishes and its response is sent before
  :meth:`FrameServer.serve_forever` returns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import select
import socket
import threading
import time

from repro import faults
from repro.errors import ReproError
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.service.address import Address
from repro.service.wire import (
    WireError,
    recv_frame,
    send_frame,
    send_truncated_frame,
)

#: Ops worth starting a *new* trace for when the server itself samples
#: an untraced request.  Requests that already carry a context are
#: continued regardless of op.
_TRACED_OPS = ("solve", "change", "solve_many")


class FrameServer:
    """Listeners, connection threads, auth, op log and drain.

    Args:
        endpoints: the Unix and/or TCP addresses to listen on.
        metrics: where malformed frames (``errors``) and refused
            handshakes (``auth_failures``; chaos ``auth_rejects``) count.
        log_path: append one structured JSON record per event here.
        max_frame_bytes: cap on incoming header/payload sizes (default:
            the wire module's global cap).
        auth_token: token every connection must present first.
        tracer: opens one ``daemon.<op>`` span per traced op — a child
            of the request's wire context, or a root when it samples an
            untraced solve — activated around dispatch so downstream
            stage spans parent on it.
    """

    def __init__(
        self,
        endpoints: list[Address],
        metrics: MetricsRegistry,
        *,
        log_path: str | None = None,
        max_frame_bytes: int | None = None,
        auth_token: str | None = None,
        tracer: "tracing.Tracer | None" = None,
    ):
        self._endpoints = list(endpoints)
        self.metrics = metrics
        self.log_path = log_path
        self.max_frame_bytes = max_frame_bytes
        self.auth_token = auth_token or None
        self.tracer = tracer
        #: Actual bound TCP port (meaningful after :meth:`bind`; with a
        #: ``HOST:0`` request this is the kernel-assigned one).
        self.tcp_port: int | None = None
        self._listeners: list[socket.socket] = []
        self._stop = threading.Event()
        self._log_lock = threading.Lock()
        self._conn_threads: list[threading.Thread] = []

    @property
    def addresses(self) -> list[str]:
        """Canonical strings for every endpoint (an ephemeral TCP port
        is resolved after bind)."""
        return [
            str(dataclasses.replace(e, port=self.tcp_port))
            if e.scheme == "tcp" and self.tcp_port
            else str(e)
            for e in self._endpoints
        ]

    def _log(self, event: str, **fields) -> None:
        """Append one structured JSON record to the forensics log."""
        if self.log_path is None:
            return
        record = {
            "mono": round(time.monotonic(), 6),
            "ts": round(time.time(), 3),
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._log_lock:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    # ------------------------------------------------------------------
    def bind(self) -> None:
        """Bind and listen on every endpoint (separate from
        :meth:`serve_forever` so tests and the CLI can report readiness
        — including an ephemeral TCP port — before blocking)."""
        if self._listeners:
            return
        listeners: list[socket.socket] = []
        try:
            for endpoint in self._endpoints:
                if endpoint.scheme == "unix":
                    try:
                        os.unlink(endpoint.path)
                    except FileNotFoundError:
                        pass
                # Tracked before bind(): a refused bind closes it too.
                listeners.append(listener := endpoint.create_socket())
                if endpoint.scheme == "tcp":
                    listener.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                    )
                listener.bind(endpoint.connect_target)
                listener.listen(16)
                # A short accept timeout keeps the loop responsive to
                # shutdown() from another thread without busy-waiting.
                listener.settimeout(0.2)
                if endpoint.scheme == "tcp":
                    self.tcp_port = listener.getsockname()[1]
        except OSError:
            for listener in listeners:
                listener.close()
            raise
        self._listeners = listeners
        if self.auth_token is None:
            for address in self.addresses:
                if address.startswith("tcp://"):
                    self._log("tcp_unauthenticated", tcp=address)
        self._log("listening", addresses=self.addresses)

    def serve_forever(self) -> None:
        """Accept-and-dispatch until :meth:`shutdown` (or an op answered
        with stop-after); then drain every connection."""
        self.bind()
        with self._running():
            try:
                while not self._stop.is_set():
                    try:
                        ready, _, _ = select.select(
                            self._listeners, [], [], 0.2
                        )
                    except OSError:
                        break
                    for listener in ready:
                        try:
                            conn, _ = listener.accept()
                        except OSError:
                            continue
                        thread = threading.Thread(
                            target=self._serve_connection, args=(conn,),
                            daemon=True,
                        )
                        thread.start()
                        # Keep only live handlers so a long-lived server's
                        # thread list stays bounded by its connections.
                        self._conn_threads = [
                            t for t in self._conn_threads if t.is_alive()
                        ] + [thread]
            finally:
                self._close_listener()
                live = [t for t in self._conn_threads if t.is_alive()]
                if live:
                    self._log("draining", connections=len(live))
                for thread in self._conn_threads:
                    thread.join(timeout=10.0)
        self._log("stopped")

    def start(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a background thread (tests)."""
        self.bind()
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the accept loop (idempotent; safe from any thread)."""
        self._stop.set()

    def _close_listener(self) -> None:
        listeners, self._listeners = self._listeners, []
        for listener in listeners:
            try:
                listener.close()
            except OSError:  # pragma: no cover - close never really fails
                pass
        for endpoint in self._endpoints:
            if endpoint.scheme == "unix":
                try:
                    os.unlink(endpoint.path)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        # A short receive timeout keeps an *idle* connection's handler
        # responsive to shutdown(): without it a client holding the
        # socket open without sending would pin this thread in recv and
        # stall the graceful drain by the full join timeout.  In-flight
        # requests are unaffected — dispatch is never interrupted, and a
        # local peer's frame chunks arrive faster than the timeout.
        conn.settimeout(0.25)
        if conn.family == socket.AF_INET:
            try:
                # One small frame out, one frame back: the pattern
                # Nagle coalescing penalises — disable it.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - always settable on tcp
                pass
        try:
            with self._connection() as state:
                self._serve_frames(conn, state)
        finally:
            # shutdown() before close(): forked pool workers inherit a
            # dup of every connection fd open at fork time, so a plain
            # close() here does NOT deliver EOF to the peer while any
            # worker lives — the client would stall out its full socket
            # timeout on every connection the server drops (error
            # frames, chaos drops, drain).  Tearing the connection down
            # explicitly signals the peer regardless of dup'd fds.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def _serve_frames(self, conn: socket.socket, state) -> None:
        # Auth is per-connection state: with a token configured, nothing
        # dispatches until this connection presented it.
        authed = self.auth_token is None
        while not self._stop.is_set():
            try:
                frame = recv_frame(conn, self.max_frame_bytes)
            except socket.timeout:
                continue
            except ConnectionError:
                # A hard peer disconnect (RST) between frames is the
                # moral equivalent of a clean close, not a server error.
                return
            except WireError as exc:
                self._log(
                    "wire_error", error=str(exc), length=exc.length, op=exc.op
                )
                self.metrics.inc("errors")
                self._try_send(conn, {"ok": False, "error": str(exc)})
                return
            if frame is None:
                return
            header, payload = frame
            op = header.get("op", "")
            # Absent/garbage trace headers parse to None.
            ctx = tracing.ctx_from_wire(header.get("trace"))
            # Drop fires BEFORE dispatch — the request never executed,
            # so any op is safe to retry; slow just stalls the peer.
            if faults.fire("wire.drop") is not None:
                self._log(
                    "chaos", point="wire.drop", op=op,
                    trace=ctx.trace_id if ctx is not None else None,
                )
                return
            slow = faults.fire("wire.slow")
            if slow is not None:
                self._log("chaos", point="wire.slow", op=op)
                time.sleep(slow.delay or 0.05)
            if op == "auth":
                if not self._handle_auth(conn, header, authed):
                    return
                authed = True
                continue
            if not authed:
                # The guard that makes a TCP listener safe to expose.
                self._refuse(
                    conn, "auth_failures",
                    "auth required: open with an auth frame (repro "
                    "--connect picks the token up from $REPRO_AUTH_TOKEN)",
                    "auth_required", op=op,
                )
                return
            served = self._serve_stream(conn, op, header)
            if served is not None:
                if not served:
                    return
                continue
            span = None
            if self.tracer is not None and (
                ctx is not None
                or (op in _TRACED_OPS and self.tracer.maybe_trace())
            ):
                span = self.tracer.begin(f"daemon.{op}", ctx)
                ctx = span.context
            t0 = time.perf_counter()
            try:
                with tracing.activated(
                    span.context if span is not None else None
                ):
                    response, stop_after = self._dispatch(
                        op, header, payload, state
                    )
            except Exception as exc:  # a bug must not kill the server
                error = (
                    str(exc) if isinstance(exc, ReproError)
                    else f"internal error: {exc!r}"
                )
                response, stop_after = {"ok": False, "error": error}, False
            wall = time.perf_counter() - t0
            outcome = {
                "ok": bool(response.get("ok")),
                "status": response.get("status"),
                "source": response.get("source"),
                "session": header.get("session"),
                "error": response.get("error"),
            }
            if span is not None:
                self.tracer.finish(span, **outcome)
            # No blanket errors bump here: the layer that knows a
            # request failed counts it (the service in its finally, the
            # daemon's parse step) — a blanket inc would double-count.
            self._log(
                "op", op=op, **outcome,
                fp=(response.get("fingerprint") or "")[:12] or None,
                wall=round(wall, 6),
                trace=ctx.trace_id if ctx is not None else None,
                span=span.span_id if span is not None else None,
            )
            if faults.fire("wire.truncate") is not None:
                # Fires AFTER dispatch: the request executed but the
                # client never sees the response — the shape a crash
                # mid-send produces.  Retry-safe because solves coalesce
                # and changes carry idempotency ids.
                self._log("chaos", point="wire.truncate", op=op)
                try:
                    send_truncated_frame(conn)
                except OSError:
                    pass
                return
            if not self._try_send(conn, response):
                return
            if stop_after or self._budget_spent(op):
                self.shutdown()
                return

    def _handle_auth(
        self, conn: socket.socket, header: dict, authed: bool
    ) -> bool:
        """Answer one ``auth`` frame; False when the connection must
        close.  An open server (or an authed connection) just acks."""
        if not authed:
            if header.get("token") != self.auth_token:
                self._refuse(
                    conn, "auth_failures", "auth failed: bad token",
                    "auth_fail",
                )
                return False
            if faults.fire("auth.reject") is not None:
                # Chaos: bounce a *valid* token once — the shape of a
                # node restarting mid-handshake.  Clients absorb it in
                # their connect budget; the router fails over.
                self._refuse(
                    conn, "auth_rejects", "auth rejected (chaos)",
                    "chaos", point="auth.reject",
                )
                return False
            self._log("auth_ok")
        return self._try_send(conn, {"ok": True, "authed": True})

    def _refuse(self, conn, counter: str, error: str, event: str, **fields):
        """Count, log and answer one refused handshake (401-style)."""
        self.metrics.inc(counter)
        self._log(event, **fields)
        self._try_send(conn, {"ok": False, "error": error, "code": 401})

    @staticmethod
    def _try_send(conn: socket.socket, header: dict) -> bool:
        try:
            send_frame(conn, header)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # what a subclass supplies
    # ------------------------------------------------------------------
    def _dispatch(
        self, op: str, header: dict, payload: bytes, state
    ) -> tuple[dict, bool]:
        """(response header, stop-after) for one request frame; *state*
        is what :meth:`_connection` yielded for this connection."""
        raise NotImplementedError

    def _running(self):
        """Context manager around the accept loop and its drain."""
        return contextlib.nullcontext()

    def _connection(self):
        """Context manager around one connection; yields its *state*."""
        return contextlib.nullcontext()

    def _serve_stream(self, conn: socket.socket, op: str, header: dict):
        """None hands *op* to :meth:`_dispatch`; otherwise *op* was served
        here and the result says whether the connection stays open."""
        return None

    def _budget_spent(self, op: str) -> bool:
        """True when answering *op* used up the request budget (the
        server then drains)."""
        return False
