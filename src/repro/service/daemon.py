"""``repro serve``: the :class:`SolverService` behind a frame server.

The paper's EC loop — enable once, then absorb a stream of changes with
cheap re-solves — is a long-lived service, not a batch tool: the value
of the verdict cache, the warm process pool, and the per-session state
compounds across requests.  :class:`ServiceDaemon` keeps one
:class:`~repro.service.service.SolverService` alive behind a
:class:`~repro.service.server.FrameServer`, so any number of short-lived
clients (``repro solve --connect``,
:class:`~repro.service.client.ServiceClient`, or a foreign-language peer
implementing the trivial frame format) share one pool and one cache.
What the daemon adds to the frame server is its ops:

``ping``
    liveness check; answers ``{"ok": true, "pong": true}``.
``health``
    degradation snapshot: pool generation and solo-fallback count,
    cache degraded/error flags, drain state, and the live fault-plan
    counters when chaos is installed (``repro stats`` surfaces it).
    Exempt from the ``max_requests`` budget, like ``ping``.
``sync``
    pull-based anti-entropy page: cache entries past a sequence
    ``cursor`` from the disk cache's append-only journal, answered as
    ``{"cursor", "entries", "more"}``.  Entries are content-addressed
    by fp-v2, so peers merge pages blindly and idempotently
    (:mod:`repro.cluster.sync` drives the loop).  Budget-exempt like
    ``ping``/``health``; the ``sync.drop`` fault point drops the
    connection before the page is sent.
``solve``
    a :class:`~repro.service.requests.SolveRequest` (instance in the
    binary payload as packed wire bytes, or a server-side DIMACS path in
    the header); with a ``session`` name it opens/re-queries a named
    incremental session.
``change``
    a :class:`~repro.service.requests.ChangeRequest` against a named
    session.
``solve_many``
    a whole batch in one frame (concatenated packed payloads, split by
    the header's ``lens`` list) answered through
    :meth:`~repro.service.service.SolverService.solve_many` — one
    shared pool and intra-batch fingerprint dedup, one round trip.
``close_session``
    drop one named session.
``stats``
    engine/cache counter snapshot (now including cache introspection —
    entries/bytes/evictions — and the live metrics registry).
``stats_frame``
    one observability frame: windowed rps/hit-rate over the monitor's
    ring-buffer history, gauges, and the lifetime latency histogram
    (``repro stats --json --connect``).
``watch`` (alias ``subscribe``)
    a *streaming* op: the daemon acknowledges, then pushes one metric
    frame per ``interval`` seconds on the same connection until
    ``count`` frames were sent, the client disconnects, or the daemon
    drains — the push-stream behind ``repro stats --watch``.
``shutdown``
    acknowledge, then drain.

While serving, the daemon runs a :class:`~repro.obs.metrics.StatsMonitor`
(one sample per second into a ring buffer, so a ``stats_frame`` right
after a load burst still reports the burst's rate) and the optional
anti-entropy syncer.  Its drain — from the ``shutdown`` op, SIGTERM or
the ``max_requests`` budget — ends by closing the service, which drains
queued ``submit()`` work and flushes any attached trace recorder.

Pair it with the persistent disk cache backend (``repro serve --cache
disk``) and verdicts survive daemon restarts: the second daemon over the
same cache directory answers a repeated instance without any solver (the
cross-process cache hit the round-trip test asserts).
"""

from __future__ import annotations

import contextlib
import socket
import threading

from repro import faults
from repro.errors import ServiceError
from repro.obs import tracing
from repro.obs.metrics import FrameTracker, StatsMonitor
from repro.service.address import Address, parse_tcp
from repro.service.server import FrameServer
from repro.service.service import SolverService
from repro.service.wire import (
    batch_request_from_wire,
    change_request_from_wire,
    response_to_wire,
    solve_request_from_wire,
)


class ServiceDaemon(FrameServer):
    """Serve one :class:`SolverService` over Unix and/or TCP sockets.

    Args:
        socket_path: filesystem path to bind (a stale file is replaced);
            ``None`` for a TCP-only daemon.
        service: the service to expose (a default one when omitted; the
            daemon closes whatever it serves on shutdown).
        log_path: the structured op log (``repro serve --log-file``;
            uploaded as a CI artifact when the service lane fails).
        max_requests: stop accepting and drain after this many handled
            non-ping ops (``repro serve --max-requests``) — how replay
            and load runs get a deterministic, clean daemon exit.
        max_frame_bytes: cap on incoming header/payload sizes (``repro
            serve --max-frame-bytes``).
        tcp_address: additionally listen on ``HOST:PORT`` (``repro serve
            --tcp``) — the same frame protocol, reachable across boxes.
            Port 0 binds an ephemeral port; :attr:`tcp_port` reports it
            after :meth:`bind`.  TCP listeners without a token are fine
            on a trusted network but get a logged warning.
        auth_token: token every connection must present first
            (``repro serve --auth-token``).
        syncer: an optional anti-entropy puller (:class:`~repro.cluster.
            sync.CacheSyncer`); the daemon owns its lifecycle, running
            it for exactly the span of :meth:`serve_forever`.
        tracer: a :class:`~repro.obs.tracing.Tracer` (``repro serve
            --trace-log`` / ``--trace-sample``).  Installed process-
            globally so the engine/portfolio stage spans of requests
            dispatched here land in the same ring/log under each op's
            ``daemon.<op>`` span.  ``None`` disables all of it.
    """

    def __init__(
        self,
        socket_path: str | None,
        service: SolverService | None = None,
        *,
        log_path: str | None = None,
        max_requests: int | None = None,
        monitor_interval: float = 1.0,
        max_frame_bytes: int | None = None,
        tcp_address: str | None = None,
        auth_token: str | None = None,
        syncer=None,
        tracer: "tracing.Tracer | None" = None,
    ):
        if max_requests is not None and max_requests < 1:
            raise ServiceError("max_requests must be at least 1")
        if max_frame_bytes is not None and max_frame_bytes < 1:
            raise ServiceError("max_frame_bytes must be at least 1")
        if socket_path is None and tcp_address is None:
            raise ServiceError(
                "daemon needs at least one endpoint (socket_path or tcp)"
            )
        if socket_path is not None and not hasattr(socket, "AF_UNIX"):
            # pragma: no cover - posix only
            raise ServiceError("Unix endpoints need AF_UNIX sockets")
        self.socket_path = str(socket_path) if socket_path is not None else None
        self.tcp_address: Address | None = (
            parse_tcp(tcp_address) if tcp_address is not None else None
        )
        self.syncer = syncer
        if tracer is not None:
            # Process-global (the faults idiom): engine and portfolio
            # stage spans find the tracer through tracing.get_tracer(),
            # not through a parameter threaded ten layers deep.
            tracing.install(tracer)
        self.service = service if service is not None else SolverService()
        endpoints = []
        if self.socket_path is not None:
            endpoints.append(Address(scheme="unix", path=self.socket_path))
        if self.tcp_address is not None:
            endpoints.append(self.tcp_address)
        super().__init__(
            endpoints,
            self.service.metrics,
            log_path=log_path,
            max_frame_bytes=max_frame_bytes,
            auth_token=auth_token,
            tracer=tracer,
        )
        self.max_requests = max_requests
        #: Per-second sampler over the service's metrics registry; its
        #: thread runs for exactly the lifetime of :meth:`serve_forever`.
        self.monitor = StatsMonitor(
            self.service.metrics, interval=monitor_interval
        )
        self._handled = 0
        self._handled_lock = threading.Lock()

    @contextlib.contextmanager
    def _running(self):
        self.monitor.start()
        if self.syncer is not None:
            self.syncer.start()
        try:
            yield
        finally:
            if self.syncer is not None:
                self.syncer.stop()
            self.monitor.stop()
            # Closing the service drains queued submit() work and
            # flushes/closes any attached trace recorder.
            self.service.close()

    def _serve_stream(self, conn: socket.socket, op: str, header: dict):
        if op == "sync" and faults.fire("sync.drop") is not None:
            # Chaos: kill the connection mid-sync, response unsent.
            # Safe by design — sync is a read-only page pull and the
            # merge of a re-pulled page is idempotent.
            self._log("chaos", point="sync.drop")
            return False
        if op not in ("watch", "subscribe"):
            return None
        # Streaming op: one request frame, many pushed response frames
        # on this connection (_dispatch is one-request-one-response).
        if not self._serve_watch(conn, header):
            return False
        if self._budget_spent(op):
            self.shutdown()
            return False
        return True

    def _budget_spent(self, op: str) -> bool:
        """Count one handled op; True once ``max_requests`` is reached.

        ``ping``, ``health`` and ``sync`` are exempt: probes and
        background replication must not drain a quota'd daemon.
        """
        if self.max_requests is None or op in ("ping", "health", "sync"):
            return False
        with self._handled_lock:
            self._handled += 1
            spent = self._handled >= self.max_requests
        if spent:
            self._log("drain_budget", max_requests=self.max_requests)
        return spent

    def _parse(self, build):
        """Build a request record, counting parse failures as errors.

        Requests that fail *before* reaching the service would otherwise
        be invisible to metrics — the service's own error accounting only
        covers calls that got through the front door.
        """
        try:
            return build()
        except Exception:
            self.service.metrics.inc("errors")
            raise

    def _dispatch(
        self, op: str, header: dict, payload: bytes, state=None
    ) -> tuple[dict, bool]:
        """(response header, stop-after) for one op (daemon ops keep no
        per-connection *state*)."""
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "health":
            health = self.service.health()
            if self.syncer is not None:
                health["sync"] = self.syncer.status()
            return {"ok": True, "health": health}, False
        if op == "sync":
            return self._dispatch_sync(header), False
        if op == "solve":
            request = self._parse(
                lambda: solve_request_from_wire(header, payload)
            )
            return response_to_wire(self.service.solve(request)), False
        if op == "change":
            request = self._parse(lambda: change_request_from_wire(header))
            return response_to_wire(self.service.change(request)), False
        if op == "solve_many":
            formulas, options = self._parse(
                lambda: batch_request_from_wire(header, payload)
            )
            responses = self.service.solve_many(formulas, **options)
            return {
                "ok": True,
                "results": [response_to_wire(r) for r in responses],
            }, False
        if op == "close_session":
            existed = self.service.close_session(header.get("session", ""))
            return {"ok": True, "existed": existed}, False
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}, False
        if op == "stats_frame":
            window = header.get("window")
            recent = int(header.get("recent") or 0)
            frame = self.monitor.snapshot_frame(
                window=float(window) if window is not None else 60.0,
                recent=max(0, recent),
            )
            return {"ok": True, "frame": frame}, False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        self.service.metrics.inc("errors")
        raise ServiceError(f"unknown op {op!r}")

    def _dispatch_sync(self, header: dict) -> dict:
        """One anti-entropy page: cache entries past the peer's cursor.

        Only the persistent disk cache keeps the append-only journal
        the cursor walks, so a memory/none-cache daemon answers with a
        plain (non-fatal) error frame.
        """
        cache = getattr(self.service.engine, "cache", None)
        if not hasattr(cache, "entries_since"):
            raise ServiceError(
                "sync needs the persistent cache (repro serve --cache disk)"
            )
        try:
            cursor = max(0, int(header.get("cursor") or 0))
            limit = int(header.get("limit") or 256)
        except (TypeError, ValueError):
            raise ServiceError("sync cursor/limit must be integers") from None
        limit = min(max(limit, 1), 2048)
        next_cursor, entries = cache.entries_since(cursor, limit=limit)
        self.service.metrics.bump(
            counts={"sync_requests": 1, "sync_served": len(entries)}
        )
        return {
            "ok": True,
            "cursor": next_cursor,
            "entries": entries,
            "more": next_cursor < cache.sync_cursor(),
        }

    # ------------------------------------------------------------------
    def _serve_watch(self, conn: socket.socket, header: dict) -> bool:
        """Stream metric frames until done/disconnect/drain.

        Returns whether the connection is still usable for further ops.
        A subscriber that vanished mid-stream only costs this handler
        thread its send; the accept loop and the graceful drain path
        never block on it — a drain wakes the tick wait at once.
        """
        try:
            interval = float(header.get("interval") or 1.0)
            count = header.get("count")
            count = int(count) if count is not None else None
        except (TypeError, ValueError):
            return self._try_send(
                conn, {"ok": False, "error": "bad watch interval/count"}
            )
        interval = min(max(interval, 0.05), 60.0)
        if count is not None and count < 1:
            return self._try_send(
                conn, {"ok": False, "error": "watch count must be >= 1"}
            )
        if not self._try_send(
            conn, {"ok": True, "watching": True, "interval": interval}
        ):
            return False
        self._log("watch_start", interval=interval, count=count)
        # Each subscriber diffs the registry through its own tracker, so
        # concurrent watchers at different intervals never share a
        # cursor; uptime is reported against the daemon monitor's epoch.
        tracker = FrameTracker(self.service.metrics, t0=self.monitor.t0)
        sent = 0
        while count is None or sent < count:
            if self._stop.wait(interval):
                break
            if not self._try_send(conn, {"ok": True, "frame": tracker.frame()}):
                self._log("watch_disconnect", frames=sent)
                return False
            sent += 1
        self._log("watch_done", frames=sent)
        return self._try_send(conn, {"ok": True, "done": True, "frames": sent})
