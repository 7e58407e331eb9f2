"""The :class:`SolverService` facade: one typed front door for everything.

Before this layer the repo had three overlapping entry points —
``ECFlow.resolve``, ``PortfolioEngine.solve``/``solve_many``, and
``IncrementalSession`` — each with its own argument shapes and lifecycle
rules.  ``SolverService`` is the single facade they all route through::

    SolveRequest / ChangeRequest
             │
             ▼
       SolverService ── submit() → PendingSolve (async queries)
        │         │
        │         ├── named IncrementalSessions (multi-tenant)
        │         ▼
        │   one shared PortfolioEngine
        │         │
        │     CacheBackend (in-memory LRU │ persistent disk)
        ▼
     SolveResponse

Design points:

* **one pool, many tenants** — the service owns a single
  :class:`~repro.engine.engine.PortfolioEngine` (built from an
  :class:`~repro.engine.config.EngineConfig`, or injected); every named
  session and every stateless query shares its process pool, verdict
  cache, and statistics, so N concurrent EC streams cost one pool, not N;
* **requests, not call shapes** — callers hand over frozen
  :class:`~repro.service.requests.SolveRequest` /
  :class:`~repro.service.requests.ChangeRequest` records; the paper's
  enable → change → re-solve loop (§5–§7) becomes a stream of such
  records against a long-lived service, which is exactly what the
  ``repro serve`` daemon (:mod:`repro.service.daemon`) exposes over a
  socket;
* **serving layer semantics** — UNSAT and undecided are *responses*
  (tri-state ``status``), never exceptions; the legacy
  ``ECFlow``/``IncrementalSession`` shims re-raise
  :class:`~repro.errors.ECError` on top for their old contracts;
* **concurrent engine, narrow service lock** — the engine path takes no
  service-wide lock: distinct-fingerprint queries overlap end-to-end
  (each race leases its own workers from the engine's shared
  portfolio), and identical fingerprints coalesce through the
  engine's single-flight in-flight table.  The service lock shrank to
  session-table and lifecycle mutation only; per-session atomicity
  (change → re-solve) rides each session's own lock.
  :meth:`SolverService.submit` queues requests on a small thread pool
  and returns a future-like :class:`PendingSolve` — with the engine
  concurrent, submission is now genuine parallelism, not just
  pipelining.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterable

from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.engine.config import EngineConfig
from repro.engine.engine import PortfolioEngine
from repro.engine.protocol import SAT, UNKNOWN, UNSAT
from repro.errors import ServiceError
from repro.obs import tracing
from repro.obs.metrics import ENGINE_COUNTERS
from repro.service.requests import (
    ChangeRequest,
    ILP_STRATEGY,
    PORTFOLIO_STRATEGY,
    SolveRequest,
    SolveResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.engine.session import IncrementalSession


class PendingSolve:
    """A future-like handle for a request accepted by :meth:`SolverService.submit`.

    Wraps a :class:`concurrent.futures.Future`; the result is always a
    :class:`SolveResponse` (service-layer errors surface from
    :meth:`result` as exceptions, exactly like the synchronous calls).
    """

    def __init__(self, future, on_cancel=None):
        self._future = future
        self._on_cancel = on_cancel

    def done(self) -> bool:
        """Whether the response (or an error) is ready."""
        return self._future.done()

    def cancel(self) -> bool:
        """Try to cancel before execution starts.

        A successful cancel runs the service's cancel hook (exactly
        once, even across repeated calls): the ``run`` wrapper that
        normally releases the request's ``queued`` gauge slot will never
        execute for a cancelled future, so the hook releases it instead.
        """
        cancelled = self._future.cancel()
        if cancelled:
            on_cancel, self._on_cancel = self._on_cancel, None
            if on_cancel is not None:
                on_cancel()
        return cancelled

    def result(self, timeout: float | None = None) -> SolveResponse:
        """Block for the response (raises what the request raised)."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The exception the request raised, if any."""
        return self._future.exception(timeout)


class SolverService:
    """One typed request/response API over flow, engine, and sessions.

    Args:
        config: engine-level configuration (pool width, quick slice,
            line-up, cache backend); a default one when omitted.
        engine: inject an existing engine instead of building one —
            the service then *shares* it and will not close it.
        recorder: a :class:`~repro.workload.trace.TraceRecorder` (or
            anything with its ``record_*`` hooks); every *successful*
            typed op — solve, change, close_session, solve_many — is
            appended after it completes, with its service-side wall
            time.  The service owns the recorder and flushes/closes it
            in :meth:`close` (``repro serve --record`` rides this).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        engine: PortfolioEngine | None = None,
        recorder=None,
    ):
        self.config = config if config is not None else EngineConfig()
        if engine is not None:
            self.engine = engine
            self._owns_engine = False
        else:
            self.engine = PortfolioEngine.from_config(self.config)
            self._owns_engine = True
        # The service shares the engine's live registry: engine-level
        # counters and the latency histogram land there per query, and
        # the service adds request/gauge/per-session telemetry on top.
        # Readers (the daemon's monitor, `repro stats`) only ever touch
        # the registry's narrow lock — never the engine lock.
        self.metrics = self.engine.metrics
        self.recorder = recorder
        self._sessions: dict[str, "IncrementalSession"] = {}
        # Narrow re-entrant lock over session-table and lifecycle
        # mutation ONLY.  The engine path deliberately runs outside it:
        # the engine is thread-safe (single-flight table + shared-pool
        # race scheduling), so holding a service lock across a solve
        # would just re-serialize what PR 7 unblocked.
        self._lock = threading.RLock()
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        # True while close() drains queued submissions: new requests are
        # rejected, but the queued ones still execute (and _check_open
        # must keep letting them through until the drain finishes).
        self._draining = False

    # ------------------------------------------------------------------
    # the engine-level primitive every route funnels through
    # ------------------------------------------------------------------
    def query(
        self,
        cnf: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint=None,
    ) -> SolveResponse:
        """One query on the kernel *cnf* — lock-free on this layer.

        This is the single point where the facade touches
        :meth:`PortfolioEngine.solve`; sessions hand it
        ``formula.packed()`` instead of holding their own engines.
        Concurrent callers on distinct fingerprints overlap inside the
        engine; identical fingerprints coalesce onto one in-flight race.
        """
        self._check_open()
        return self.engine.solve(cnf, deadline=deadline, seed=seed, hint=hint)

    # ------------------------------------------------------------------
    # the typed front door
    # ------------------------------------------------------------------
    def solve(self, request: SolveRequest) -> SolveResponse:
        """Answer one :class:`SolveRequest` (see the module docstring).

        Raises:
            ServiceError: on an unknown strategy, a session mismatch, or
                a closed service.  UNSAT/undecided are *responses*.
        """
        t0 = time.perf_counter()
        self.metrics.adjust_gauge("inflight", 1)
        response = None
        replayed = False
        try:
            response = self._replayed_open(request)
            if response is not None:
                replayed = True
                return response
            # In-process traced callers (no daemon hop) carry their
            # context on the request record; over the wire the daemon
            # has already activated its own span, so this is a no-op.
            with tracing.adopted(request.trace):
                response = self._solve(request)
            return response
        finally:
            # Counted in the finally so failed requests are visible too:
            # a stream of ServiceErrors must show up as rps + errors, not
            # as a dead service.  The recorder stays success-only — a
            # trace is a replayable stream of completed ops — and replays
            # stay out of it: the logical op already happened once.
            self.metrics.adjust_gauge("inflight", -1)
            self._count_request(
                request.session, errors=0 if response is not None else 1
            )
            if response is not None and self.recorder is not None and not replayed:
                self.recorder.record_solve(
                    request, response, time.perf_counter() - t0
                )

    def _replayed_open(self, request: SolveRequest) -> SolveResponse | None:
        """The stored response for a retried session-opening solve.

        Mirrors the ``change_id`` replay in :meth:`change`: the open
        mutated the session table, so a transport retry of the same
        request must replay the recorded response instead of landing on
        the "already exists" error.  Returns None for anything that is
        not a recognized replay — the request then runs normally.
        """
        if (
            request.request_id is None
            or request.session is None
            or not request.has_source
        ):
            return None
        with self._lock:
            session = self._sessions.get(request.session)
        if session is None:
            return None
        with session.lock:
            if (
                request.request_id == session.open_id
                and session.open_response is not None
            ):
                self.metrics.bump(counts={"open_replays": 1})
                return session.open_response
        return None

    def _count_request(
        self, session: str | None, n: int = 1, errors: int = 0
    ) -> None:
        """One registry bump per front-door op (rps + per-tenant usage).

        ``errors`` feeds the ``errors`` counter surfaced in
        ``stats_frame`` — failed requests still count as requests.
        """
        families = (
            {"session_requests": {session: n}} if session is not None else None
        )
        counts = {"requests": n}
        if errors:
            counts["errors"] = errors
        self.metrics.bump(counts=counts, families=families)

    def _solve(self, request: SolveRequest) -> SolveResponse:
        self._check_open()
        if request.session is not None:
            return self._solve_in_session(request)
        cnf = self._materialize(request)
        if request.strategy == PORTFOLIO_STRATEGY:
            return self.query(
                cnf, deadline=request.deadline, seed=request.seed,
                hint=request.hint,
            )
        if request.strategy == ILP_STRATEGY:
            return self._solve_ilp(cnf, request)
        return self._solve_single(cnf, request)

    def change(self, request: ChangeRequest) -> SolveResponse:
        """Apply a change batch to a named session and re-solve.

        ``ec_mode="auto"`` runs the session's §5 policy (loosening
        batches revalidate without any solver, tightening batches race);
        ``ec_mode="force"`` always runs a full engine query after
        applying the batch.

        A request carrying a ``change_id`` the session already applied
        replays the recorded response instead of mutating the formula
        again — the idempotency contract the wire client's transport
        retries rely on.

        Raises:
            ServiceError: unknown session or closed service.
            ChangeError: the batch is invalid for the session's formula.
        """
        t0 = time.perf_counter()
        self._check_open()
        self.metrics.adjust_gauge("inflight", 1)
        response = None
        replayed = False
        try:
            with self._lock:
                session = self._session(request.session)
            # Per-session lock: this tenant's apply → re-solve pair is
            # atomic, while other sessions' changes and queries overlap
            # freely on the shared engine.
            with session.lock:
                if (
                    request.change_id is not None
                    and request.change_id == session.last_change_id
                    and session.last_change_response is not None
                ):
                    # A retried change the session already absorbed:
                    # applying it again would double-mutate the formula.
                    replayed = True
                    self.metrics.bump(counts={"change_replays": 1})
                    response = session.last_change_response
                    return response
                with tracing.adopted(request.trace):
                    regime = session.apply_changes(request.changes)
                    if request.ec_mode == "force":
                        raw = session.query(
                            deadline=request.deadline, seed=request.seed
                        )
                    else:
                        raw = session.resolve_query(
                            deadline=request.deadline, seed=request.seed
                        )
                response = raw.with_context(
                    session=request.session, regime=regime
                )
                if request.change_id is not None:
                    session.last_change_id = request.change_id
                    session.last_change_response = response
            return response
        finally:
            self.metrics.adjust_gauge("inflight", -1)
            self._count_request(
                request.session, errors=0 if response is not None else 1
            )
            # Replays stay out of the trace: the recorder captures the
            # logical op stream, and the op already happened once.
            if response is not None and self.recorder is not None and not replayed:
                self.recorder.record_change(
                    request, response, time.perf_counter() - t0
                )

    def submit(
        self, request: SolveRequest | ChangeRequest
    ) -> PendingSolve:
        """Queue a request for asynchronous execution.

        With the engine concurrent (see the class docstring), submitted
        requests on distinct fingerprints genuinely overlap — the worker
        threads race the shared pool side by side, and identical
        fingerprints coalesce onto one in-flight result.
        """
        with self._lock:
            # Checked under the lock so a submit racing close() can
            # neither enqueue after the drain started nor resurrect the
            # executor close() just handed off.
            if self._closed or self._draining:
                raise ServiceError("service is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(1, self.config.submit_workers),
                    thread_name_prefix="repro-service",
                )
            executor = self._executor
            fn = self.change if isinstance(request, ChangeRequest) else self.solve
            self.metrics.adjust_gauge("queued", 1)

            def run(request=request, fn=fn):
                # Queue depth covers the wait *before* execution starts;
                # from here the in-flight gauge takes over.
                self.metrics.adjust_gauge("queued", -1)
                return fn(request)

            try:
                return PendingSolve(
                    executor.submit(run),
                    # A successful cancel() means `run` never executes, so
                    # its -1 never fires; this hook balances the gauge
                    # instead (the two paths are mutually exclusive).
                    on_cancel=lambda: self.metrics.adjust_gauge("queued", -1),
                )
            except BaseException:
                self.metrics.adjust_gauge("queued", -1)
                raise

    def solve_many(
        self,
        cnfs: Iterable[PackedCNF],
        *,
        deadline: float | None = None,
        seed: int | None = None,
    ) -> list[SolveResponse]:
        """Batch entry point: one shared pool, intra-batch fp dedup.

        Wraps :meth:`PortfolioEngine.solve_many` (no service lock — the
        batch interleaves freely with concurrent queries, coalescing via
        the in-flight table on fingerprint collisions); one
        :class:`SolveResponse` per kernel, in input order.  Remote
        clients reach this through the daemon's ``solve_many`` op (one
        frame per batch, decoded straight to kernels).
        """
        t0 = time.perf_counter()
        self._check_open()
        cnfs = list(cnfs)
        self.metrics.adjust_gauge("inflight", 1)
        responses = None
        try:
            responses = self.engine.solve_many(cnfs, deadline=deadline, seed=seed)
        finally:
            self.metrics.adjust_gauge("inflight", -1)
            if cnfs:
                self._count_request(
                    None, len(cnfs),
                    errors=0 if responses is not None else 1,
                )
        if self.recorder is not None:
            self.recorder.record_solve_many(
                cnfs,
                {"deadline": deadline, "seed": seed},
                responses,
                time.perf_counter() - t0,
            )
        return responses

    # ------------------------------------------------------------------
    # named sessions: many tenants, one pool
    # ------------------------------------------------------------------
    def open_session(
        self,
        name: str,
        formula: CNFFormula,
        *,
        deadline: float | None = None,
        seed: int | None = None,
    ) -> SolveResponse:
        """Create a named session over the shared engine and solve it.

        The initial solve's verdict comes back as the response; the
        session exists afterwards either way (a caller may loosen an
        UNSAT instance into satisfiability through change requests).

        Raises:
            ServiceError: the name is already taken or the service is
                closed.
        """
        from repro.engine.session import IncrementalSession

        self._check_open()
        with self._lock:
            if name in self._sessions:
                raise ServiceError(f"session {name!r} already exists")
            session = IncrementalSession(formula, service=self)
            self._sessions[name] = session
            self.metrics.set_gauge("sessions", len(self._sessions))
            self.metrics.bump(counts={"session_opens": 1})
        # The initial solve runs outside the service lock so concurrent
        # opens (and everything else) overlap; the session is visible in
        # the table already, and its own lock orders any racing change().
        response = session.query(deadline=deadline, seed=seed)
        return response.with_context(session=name)

    def close_session(self, name: str) -> bool:
        """Drop a named session (the shared engine stays up)."""
        t0 = time.perf_counter()
        with self._lock:
            session = self._sessions.pop(name, None)
            self.metrics.set_gauge("sessions", len(self._sessions))
        self._count_request(None)
        if session is not None:
            session.close()
        if self.recorder is not None:
            self.recorder.record_close_session(
                name, session is not None, time.perf_counter() - t0
            )
        return session is not None

    def session(self, name: str) -> "IncrementalSession":
        """The named session (raises :class:`ServiceError` if unknown)."""
        with self._lock:
            return self._session(name)

    def _session(self, name: str) -> "IncrementalSession":
        try:
            return self._sessions[name]
        except KeyError:
            raise ServiceError(f"unknown session {name!r}") from None

    @property
    def session_names(self) -> tuple[str, ...]:
        """Names of the live sessions, sorted."""
        with self._lock:
            return tuple(sorted(self._sessions))

    def _solve_in_session(self, request: SolveRequest) -> SolveResponse:
        if request.strategy != PORTFOLIO_STRATEGY:
            raise ServiceError(
                "session-scoped requests ride the shared portfolio engine; "
                f"got strategy {request.strategy!r}"
            )
        if request.hint is not None:
            raise ServiceError(
                "session-scoped requests use the session's own solution as "
                "the hint; drop the request hint"
            )
        name = request.session
        with self._lock:
            session = self._sessions.get(name)
            if session is None and not request.has_source:
                raise ServiceError(f"unknown session {name!r}")
            if session is not None and request.has_source:
                raise ServiceError(
                    f"session {name!r} already exists; send a ChangeRequest "
                    "to modify it or a sourceless request to re-query it"
                )
        if session is None:
            # A session edits clause objects: built here, once per session.
            formula = request.formula
            if formula is None:
                formula = self._materialize(request).to_formula()
            # Two concurrent creators race to open_session's own check:
            # exactly one wins, the other gets the "already exists" error.
            response = self.open_session(
                name, formula, deadline=request.deadline, seed=request.seed
            )
            if request.request_id is not None:
                # Recorded before the response frame leaves the daemon,
                # so a retry after a cut/dropped reply always finds it.
                with self._lock:
                    created = self._sessions.get(name)
                if created is not None:
                    with created.lock:
                        created.open_id = request.request_id
                        created.open_response = response
            return response
        response = session.query(deadline=request.deadline, seed=request.seed)
        return response.with_context(session=name)

    # ------------------------------------------------------------------
    # non-portfolio strategies
    # ------------------------------------------------------------------
    def _solve_single(
        self, cnf: PackedCNF, request: SolveRequest
    ) -> SolveResponse:
        """Run one named solver adapter under the uniform contract."""
        from repro.engine.adapters import ADAPTERS, build_adapter

        if request.strategy not in ADAPTERS:
            raise ServiceError(
                f"unknown strategy {request.strategy!r} (expected "
                f"'portfolio', 'ilp', or one of {sorted(ADAPTERS)})"
            )
        adapter = build_adapter(request.strategy)
        outcome = adapter.solve_packed(
            cnf, deadline=request.deadline, seed=request.seed,
            hint=request.hint,
        )
        return SolveResponse(
            status=outcome.status,
            assignment=outcome.assignment,
            source=adapter.name,
            winner=adapter.name if outcome.status in (SAT, UNSAT) else None,
            wall_time=outcome.wall_time,
            detail=outcome.detail,
        )

    def _solve_ilp(
        self, cnf: PackedCNF, request: SolveRequest
    ) -> SolveResponse:
        """The paper's SAT -> set-cover -> 0-1 ILP route."""
        from repro.ilp.solver import solve
        from repro.ilp.status import SolveStatus
        from repro.sat.encoding import encode_sat

        t0 = time.perf_counter()
        encoding = encode_sat(cnf.to_formula())
        solution = solve(
            encoding.model, method=request.method,
            deadline=request.deadline, seed=request.seed,
        )
        wall = time.perf_counter() - t0
        if solution.status is SolveStatus.INFEASIBLE:
            return SolveResponse(
                UNSAT, source="ilp", winner="ilp", wall_time=wall,
                detail=solution.status.value,
            )
        if not solution.status.has_solution:
            return SolveResponse(
                UNKNOWN, source="ilp", wall_time=wall,
                detail=solution.status.value,
            )
        return SolveResponse(
            SAT,
            assignment=encoding.decode(solution, default=False),
            source="ilp",
            winner="ilp",
            wall_time=wall,
            detail=solution.status.value,
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _materialize(self, request: SolveRequest) -> PackedCNF:
        """The request's packed kernel, whichever source carried it (wire
        bytes stop at :meth:`PackedCNF.from_bytes`, the ``materialize``
        trace stage)."""
        if request.formula is not None:
            return request.formula.packed()
        with tracing.stage("materialize"):
            return PackedCNF.from_bytes(request.packed_bytes)

    def stats(self) -> dict:
        """Engine + cache counters as one JSON-able snapshot.

        ``metrics`` is one snapshot of the registry — counters, gauges,
        per-session request families, and the solve-latency histogram
        summary — and the ``engine`` block is that snapshot's view of
        the engine counters (exactly the names in
        :data:`~repro.obs.metrics.ENGINE_COUNTERS`, 0 for one never
        bumped), so the two always agree.  Each query is one registry
        bump, so a snapshot racing concurrent queries never reads half
        a query — and never queues behind a running race (the workload
        runner diffs two snapshots to report per-run counters).  The
        ``cache`` block carries the backend's introspection
        (``entries``/``bytes``/``evictions`` from
        :meth:`~repro.engine.cache.CacheBackend.info`), read without the
        engine lock: a disk cache's ``info`` stats every entry file, and
        no query may wait on that.
        """
        metrics = self.metrics.snapshot()
        counters = metrics["counters"]
        cache = self.engine.cache
        cache_block = {
            **asdict(cache.stats), "hit_rate": cache.stats.hit_rate,
            **cache.info(),
        }
        with self._lock:
            sessions = sorted(self._sessions)
        return {
            "engine": {name: counters.get(name, 0) for name in ENGINE_COUNTERS},
            "cache": cache_block,
            "sessions": sessions,
            "metrics": metrics,
        }

    def health(self) -> dict:
        """Degradation snapshot for the daemon's ``health`` op.

        Complements :meth:`stats` (throughput counters) with the flags
        an operator checks when things go wrong: the pool's
        ``generation`` (workers replaced after dying or being killed)
        and solo-fallback count, cache degraded mode and error counters,
        drain state, and the live fault-plan snapshot when chaos is
        installed.
        """
        from repro import faults

        with self._lock:
            sessions = len(self._sessions)
            draining = self._draining
            closed = self._closed
        injector = faults.get_injector()
        return {
            "engine": self.engine.health(),
            "sessions": sessions,
            "draining": draining,
            "closed": closed,
            "errors": self.metrics.counter("errors"),
            "faults": injector.snapshot() if injector is not None else None,
        }

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Shut the service down (idempotent).

        Drains the submission executor — already-queued
        :class:`PendingSolve` requests still complete; only *new*
        requests are rejected — then drops every session and closes the
        engine's pool, but only when the service built that engine; an
        injected engine belongs to its creator.
        """
        with self._lock:
            if self._closed or self._draining:
                return
            self._draining = True
            executor, self._executor = self._executor, None
        # Drain outside the lock: the queued requests need it to run.
        if executor is not None:
            executor.shutdown(wait=True)
        with self._lock:
            self._closed = True
            sessions, self._sessions = dict(self._sessions), {}
        for session in sessions.values():
            session.close()
        if self._owns_engine:
            self.engine.close()
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
