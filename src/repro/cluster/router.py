"""``repro route``: a fingerprint-hash front-end over backend nodes.

:class:`RouterDaemon` is a :class:`~repro.service.server.FrameServer`
like ``repro serve``, so every existing client — ``repro solve
--connect``, the workload runner, ``repro stats`` — points at it
unchanged.  What the router adds is placement: per request it derives a
routing key, asks the :class:`~repro.cluster.hashring.HashRing` for the
owner, and relays the frame verbatim:

* **stateless solves** route by the instance's true fp-v2, computed
  from the packed payload bytes without rebuilding the formula — the
  same key the backend's single-flight table and verdict cache use, so
  repeats of one instance always hit the node that already solved it;
* **named sessions** route by session name: incremental state lives in
  one node's memory, so every op of a session must land on that node
  (the one placement anti-entropy cannot help with);
* **batches** route by a digest of the whole payload.

Failure handling reuses the client stack's machinery rather than
inventing its own: each relay goes through a per-connection
:class:`~repro.service.client.ServiceClient` (retry/backoff/deadline
budgets included), and when a node is down the router walks the ring's
preference order — deterministically, so a dead node's keys all fail
over to the *same* surviving node and warm its cache coherently.
Because solves coalesce and changes carry idempotency ids, re-sending a
request whose node died mid-flight is safe by the same argument that
makes client retries safe.  A background prober polls each node's
``health`` op (pool generation, cache degraded flags, sync cursor) and
publishes the picture, with the router's counters, through the
``cluster_health`` op; ``ping``, ``health`` and ``cluster_health`` are
answered locally, ``stats`` sums every node's.  Streaming ``watch``
subscriptions and ``sync`` pulls are refused with an error frame —
peers replicate directly from nodes, not through the router.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time

from repro.cnf.packed import PackedCNF
from repro.errors import CNFError, ConnectError, ReproError, ServiceError
from repro.obs import tracing
from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import MetricsRegistry
from repro.service.address import parse_address
from repro.service.client import AuthError, ServiceClient
from repro.service.server import FrameServer
from repro.service.wire import WireError
from repro.cluster.hashring import HashRing

#: The counters ``cluster_health`` reports (zero until first counted).
_COUNTERS = (
    "routed", "failovers", "unrouted", "auth_rejects", "auth_failures",
    "errors",
)


class _NodeState:
    """Mutable health picture of one backend node (prober-owned)."""

    def __init__(self, address: str):
        self.address = address
        self.alive: bool | None = None          # None = never probed yet
        self.generation = None
        self.degraded = None
        self.sync_cursor = None
        self.last_error: str | None = None
        self.checked_at = 0.0

    def snapshot(self) -> dict:
        return {
            "alive": self.alive,
            "generation": self.generation,
            "degraded": self.degraded,
            "sync_cursor": self.sync_cursor,
            "last_error": self.last_error,
            "age": round(time.monotonic() - self.checked_at, 3)
            if self.checked_at
            else None,
        }


class RouterDaemon(FrameServer):
    """Route client frames across backend nodes by consistent hashing.

    Args:
        listen: the front-end endpoint clients connect to (Unix path,
            ``unix://PATH``, or ``tcp://HOST:PORT``; port 0 binds an
            ephemeral port, reported by :attr:`addresses` after bind).
        nodes: backend daemon addresses (2-3 ``repro serve`` endpoints).
        auth_token: token *clients* must present to this router
            (defaults open, like ``repro serve``).
        node_token: token the router presents to the *nodes*; defaults
            to ``auth_token`` — one shared secret per cluster is the
            expected deployment.
        log_path: structured forensics log, same format as the daemon's.
        health_interval: seconds between node ``health`` probes.
        retries: transport retries per relayed request (per node tried).
        timeout: socket timeout toward nodes for relayed requests.
        max_frame_bytes: incoming frame cap, as on the daemon.
        trace_log: JSONL sink for the router's hop spans (``repro route
            --trace-log``).  Hop spans are *continued* for any request
            arriving with a trace context regardless of sampling;
            ``trace_sample`` only governs root-sampling of untraced
            requests.
        trace_sample: root sampling probability for requests that
            arrive without a context (default 0 — continue-only).
    """

    def __init__(
        self,
        listen,
        nodes,
        *,
        auth_token: str | None = None,
        node_token: str | None = None,
        log_path: str | None = None,
        health_interval: float = 2.0,
        retries: int = 2,
        timeout: float | None = 300.0,
        max_frame_bytes: int | None = None,
        trace_log: str | None = None,
        trace_sample: float = 0.0,
    ):
        self.listen = parse_address(listen)
        addresses = [str(parse_address(n)) for n in nodes]
        if not addresses:
            raise ServiceError("repro route needs at least one --node")
        super().__init__(
            [self.listen],
            MetricsRegistry(),
            log_path=log_path,
            max_frame_bytes=max_frame_bytes,
            auth_token=auth_token,
        )
        self.ring = HashRing(addresses)
        self.node_token = node_token if node_token is not None else auth_token
        self.health_interval = max(0.05, float(health_interval))
        self.retries = max(0, int(retries))
        self.timeout = timeout
        # Deliberately NOT installed process-globally: the router owns
        # its tracer (hop spans + backend-retry spans only); a co-hosted
        # node daemon's tracer must not capture router stages.
        self._tracer = tracing.Tracer(
            service="router", sample=trace_sample, log_path=trace_log
        )
        self._nodes = {a: _NodeState(a) for a in self.ring.nodes}
        # Per-node forward latency (successful relays only) — the
        # observation substrate a hedging policy would read.
        self._latency = {a: LatencyHistogram() for a in self.ring.nodes}
        self._lock = threading.Lock()

    @property
    def address(self) -> str:
        """Canonical listen address (ephemeral port resolved after bind)."""
        return self.addresses[0]

    @contextlib.contextmanager
    def _running(self):
        prober = threading.Thread(target=self._probe_loop, daemon=True)
        prober.start()
        try:
            yield
        finally:
            prober.join(timeout=5.0)

    @contextlib.contextmanager
    def _connection(self):
        # Backend connections are per client connection: a session's
        # frames arrive in order on one socket, so relaying them through
        # one client preserves that order on the backend's socket too.
        clients: dict[str, ServiceClient] = {}
        try:
            yield clients
        finally:
            for client in clients.values():
                client.close()

    # ------------------------------------------------------------------
    def _probe_loop(self) -> None:
        """Poll every node's ``health`` op until shutdown.

        Each probe uses a short-lived fail-fast client: the prober's
        job is *detecting* dead nodes, so it must not sit in a backoff
        loop against one.  First round runs immediately so the router
        has a picture before the first request arrives.
        """
        while True:
            for node in self.ring.nodes:
                if self._stop.is_set():
                    return
                self._probe_node(node)
            if self._stop.wait(self.health_interval):
                return

    def _probe_node(self, node: str) -> None:
        state = self._nodes[node]
        client = None
        try:
            client = ServiceClient(
                node, timeout=5.0, retries=0, auth_token=self.node_token
            )
            health = client.health() or {}
            engine = health.get("engine") or {}
            pool = engine.get("pool") or {}
            cache = engine.get("cache") or {}
            with self._lock:
                was_alive = state.alive
                state.alive = True
                state.generation = pool.get("generation")
                state.degraded = bool(cache.get("degraded", False))
                state.sync_cursor = cache.get("sync_cursor")
                state.last_error = None
                state.checked_at = time.monotonic()
            if was_alive is False:
                self._log("node_up", node=node)
        except (ReproError, OSError, WireError) as exc:
            self._mark_down(node, exc)
        finally:
            if client is not None:
                client.close()

    def _down_nodes(self) -> set[str]:
        with self._lock:
            return {a for a, s in self._nodes.items() if s.alive is False}

    def _mark_down(self, node: str, exc: Exception, clients=None) -> None:
        """Record *node* as down (logged on the transition) and close
        the calling connection's client to it, if any."""
        stale = clients.pop(node, None) if clients is not None else None
        if stale is not None:
            stale.close()
        state = self._nodes[node]
        with self._lock:
            was_alive = state.alive
            state.alive = False
            state.last_error = str(exc)
            state.checked_at = time.monotonic()
        if was_alive is not False:
            self._log("node_down", node=node, error=str(exc))

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        op: str,
        header: dict,
        payload: bytes,
        clients: dict[str, ServiceClient],
    ) -> tuple[dict, bool]:
        if op == "ping":
            return {"ok": True, "pong": True, "router": True}, False
        if op == "cluster_health":
            return {"ok": True, "cluster": self.cluster_health()}, False
        if op == "health":
            return {"ok": True, "health": self._health()}, False
        if op == "stats":
            return self._aggregate_stats(clients), False
        if op in ("watch", "subscribe", "sync"):
            return {
                "ok": False,
                "error": f"op {op!r} is not routed: connect to a node "
                "directly for streams and replication",
            }, False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        return self._forward(op, header, payload, clients), False

    def _health(self) -> dict:
        """A daemon-shaped health frame so generic probes keep working."""
        with self._lock:
            alive = [a for a, s in self._nodes.items() if s.alive]
        return {
            "router": True,
            "nodes_alive": len(alive),
            "nodes_total": len(self.ring.nodes),
            "errors": self.metrics.counter("errors"),
        }

    def cluster_health(self) -> dict:
        """Per-node generation/degraded/sync-cursor plus router counters.

        Each node's snapshot carries its forward-latency summary — the
        per-node p50/p99 a tail-hedging policy would key off.
        """
        with self._lock:
            nodes = {}
            for a, s in self._nodes.items():
                snap = s.snapshot()
                snap["latency"] = self._latency[a].summary()
                nodes[a] = snap
        counters = {name: self.metrics.counter(name) for name in _COUNTERS}
        counters["listen"] = self.address
        counters["health_interval"] = self.health_interval
        return {"router": counters, "nodes": nodes}

    # ------------------------------------------------------------------
    def _route_key(self, op: str, header: dict, payload: bytes) -> str:
        """The placement key for one request (see module docstring)."""
        session = header.get("session")
        if session:
            return f"session:{session}"
        if op == "solve" and payload:
            try:
                # The *true* fp-v2 straight off the packed bytes — the
                # exact key the backend caches under, with no formula
                # rebuild: one SHA-256 of the clause arrays for a payload
                # this router has keyed before, one O(clauses) digest
                # pass the first time.
                return "fp:" + PackedCNF.from_bytes(payload).fingerprint()
            except (CNFError, ValueError):
                # Malformed payload: still route it somewhere stable so
                # the owning node produces the authoritative parse error.
                return "payload:" + hashlib.sha256(payload).hexdigest()
        if op == "solve" and header.get("dimacs_path"):
            return "path:" + str(header["dimacs_path"])
        if payload:
            return "payload:" + hashlib.sha256(payload).hexdigest()
        return f"op:{op}"

    def _node_client(
        self, node: str, clients: dict[str, ServiceClient]
    ) -> ServiceClient:
        client = clients.get(node)
        if client is None:
            client = ServiceClient(
                node,
                timeout=self.timeout,
                retries=self.retries,
                auth_token=self.node_token,
                # Backend transport retries become child spans of the
                # hop span riding the forwarded frame's trace header.
                tracer=self._tracer,
            )
            clients[node] = client
        return client

    def _forward(
        self,
        op: str,
        header: dict,
        payload: bytes,
        clients: dict[str, ServiceClient],
    ) -> dict:
        key = self._route_key(op, header, payload)
        down = self._down_nodes()
        preference = self.ring.preference(key)
        # Known-dead nodes go to the back of the line but are still
        # tried: the prober's picture can lag a recovery, and with every
        # node "down" refusing outright would turn a probe blip into an
        # outage.
        order = [n for n in preference if n not in down] + [
            n for n in preference if n in down
        ]
        # Re-parent the trace at the hop: the span continues the
        # client's context (or roots a new trace when the router itself
        # samples), and the forwarded frame carries the *hop's* context
        # so the node's daemon span nests under it.
        ctx = tracing.ctx_from_wire(header.get("trace"))
        span = None
        if ctx is not None:
            span = self._tracer.begin("router.forward", ctx, op=op)
        elif self._tracer.maybe_trace():
            span = self._tracer.begin("router.forward", op=op)
        if span is not None:
            header = dict(header)
            header["trace"] = tracing.ctx_to_wire(span.context)
        last: Exception | None = None
        for index, node in enumerate(order):
            try:
                client = self._node_client(node, clients)
                n0 = time.monotonic()
                response = client.forward(header, payload)
            except (ConnectError, OSError, WireError) as exc:
                # ConnectError covers the prober-race window: the node
                # died moments ago, nothing has marked it down yet, and
                # the eager-connecting client constructor is the first
                # to find out.  Its AuthError subclass is the node
                # refusing our token — a clean 401, counted apart.  The
                # ring's next choice absorbs either.
                if isinstance(exc, AuthError):
                    self.metrics.inc("auth_rejects")
                self._mark_down(node, exc, clients)
                last = exc
                continue
            with self._lock:
                hist = self._latency.get(node)
                if hist is not None:
                    hist.record(time.monotonic() - n0)
            self.metrics.inc("routed")
            if index:
                self.metrics.inc("failovers")
                self._log("failover", key=key[:64], node=node, tried=index)
            if span is not None:
                self._tracer.finish(span, node=node, tried=index + 1)
            return response
        self.metrics.inc("unrouted")
        if span is not None:
            self._tracer.finish(span, error=str(last), tried=len(order))
        return {
            "ok": False,
            "error": f"no reachable node for {op!r} "
            f"(tried {len(order)}): {last}",
        }

    # ------------------------------------------------------------------
    def _aggregate_stats(self, clients: dict[str, ServiceClient]) -> dict:
        """Deep-sum every node's ``stats`` so counter deltas over the
        router (``repro loadgen --connect``) see cluster-wide totals."""
        merged: dict = {}
        reached: list[str] = []
        last: Exception | None = None
        for node in self.ring.nodes:
            try:
                client = self._node_client(node, clients)
                stats = client.stats()
            except (ReproError, OSError, WireError) as exc:
                self._mark_down(node, exc, clients)
                last = exc
                continue
            reached.append(node)
            merged = _merge_stats(merged, stats)
        if not reached:
            return {
                "ok": False,
                "error": f"no reachable node for 'stats': {last}",
            }
        with self._lock:
            node_latency = {
                a: self._latency[a].summary() for a in self.ring.nodes
            }
        merged["cluster"] = {
            "nodes": reached,
            "router": self.address,
            "node_latency": node_latency,
        }
        return {"ok": True, "stats": merged}


def _merge_stats(a, b):
    """Recursively combine stats payloads: numbers add, dicts merge,
    lists concatenate, and mismatched shapes keep the first value."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = _merge_stats(a[key], value) if key in a else value
        return out
    if isinstance(a, bool) or isinstance(b, bool):
        return a or b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    if isinstance(a, list) and isinstance(b, list):
        return a + b
    return a if a is not None else b
