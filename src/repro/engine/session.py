"""Incremental EC sessions: classify changes, revalidate, re-solve.

The paper's §5 taxonomy — removing clauses / adding variables *loosens*
an instance, adding clauses / removing variables *tightens* it — becomes
an execution policy here:

* a **loosening-only** :class:`~repro.core.change.ChangeSet` can never
  invalidate the current solution, so the session answers in O(1)
  without touching the cache or launching any solver; a tightening
  batch that happens not to break the solution is caught by an
  O(clauses) revalidation;
* a **tightening** batch goes to the shared engine with the previous
  solution as hint, which both warm-starts the racers and lets the
  engine short-circuit when the change happened not to break the
  solution after all.  Tightening races lead with the clause-learning
  CDCL solver, because the default line-up puts it ahead of
  chronological DPLL: every added clause makes the instance harder,
  and on the UNSAT-heavy end of a change chain learning dominates by
  orders of magnitude.

Sessions are tenants of the :class:`~repro.service.SolverService`
facade: every engine query hands ``formula.packed()`` to
:meth:`~repro.service.service.SolverService.query`, so N sessions share
one pool, one verdict cache, and one single-flight in-flight table —
queries from *different* sessions overlap end-to-end, coalescing only
when their fingerprints collide (the multi-tenant serving model; the
service's session table is where named sessions live).  Each session
carries its own re-entrant lock, so one session's change → resolve
sequence is atomic while its siblings keep running.  The legacy
constructor shapes still work —
``IncrementalSession(f, jobs=1)`` builds a private service, and
``IncrementalSession(f, engine=e)`` wraps a shared engine the session
will *not* close.

The session keeps the running formula, the current solution, and a
history of (regime, source) pairs for inspection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.core.change import ChangeSet
from repro.engine.engine import PortfolioEngine
from repro.engine.protocol import SAT, UNSAT, SolveResponse
from repro.errors import ECError

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from repro.service.service import SolverService


@dataclass
class SessionStep:
    """One entry of the session history."""

    kind: str          # 'solve' | 'change' | 'resolve'
    regime: str = ""   # 'loosening' | 'tightening' | ''
    source: str = ""   # engine source ('cache', 'revalidation', winner, ...)


class IncrementalSession:
    """Drive successive engineering changes through the service layer.

    Args:
        formula: the original specification.
        engine: a shared :class:`PortfolioEngine` to ride (the session
            wraps it in a service facade and will **not** close it).
        jobs: pool width for the private service created when neither
            ``engine`` nor ``service`` is given.
        service: an existing :class:`~repro.service.SolverService` to
            ride (how the service's own named sessions are built).
    """

    def __init__(
        self,
        formula: CNFFormula,
        engine: PortfolioEngine | None = None,
        *,
        jobs: int | None = None,
        service: "SolverService | None" = None,
    ):
        from repro.service.service import SolverService

        self.formula = formula.copy()
        if service is not None:
            self._service = service
            self._owns_service = False
        elif engine is not None:
            self._service = SolverService(engine=engine)
            # The wrapper is ours, but it does not own the engine, so
            # closing it never tears down the shared pool.
            self._owns_service = True
        else:
            from repro.engine.config import EngineConfig

            self._service = SolverService(EngineConfig(jobs=jobs))
            self._owns_service = True
        self.assignment: Assignment | None = None
        self.history: list[SessionStep] = []
        # Guards this session's own state (formula, current solution,
        # history, pending-regime flags) so threads sharing one session
        # see consistent change → resolve sequences.  Re-entrant because
        # the service layer locks the session around its own calls into
        # these methods.  Engine concurrency is unaffected: the lock is
        # per-session, and the engine path below it takes no service- or
        # engine-wide lock.
        self.lock = threading.RLock()
        # Idempotent-retry memory: the last change_id the service applied
        # to this session and the response it produced, so a retried
        # change (client reconnect after a dropped wire) replays instead
        # of mutating the formula twice.  One slot suffices — the client
        # serializes changes per session and only ever retries the last.
        self.last_change_id: str | None = None
        self.last_change_response = None
        # Same contract for the solve that *opened* this session: the
        # open mutates the session table, so a retried opening solve
        # must replay the recorded response, not hit "already exists".
        self.open_id: str | None = None
        self.open_response = None
        self.revalidations = 0
        self._pending_regime = ""
        # True when some tightening change landed after the last accepted
        # solution; only then can the solution have been invalidated.
        self._tightening_pending = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def service(self) -> "SolverService":
        """The service facade this session queries through."""
        return self._service

    @property
    def engine(self) -> PortfolioEngine:
        """The shared engine behind the service (stats, cache access)."""
        return self._service.engine

    @property
    def solver_calls(self) -> int:
        """Solver runs the engine launched (shared across tenants)."""
        return self.engine.counters()["solver_calls"]

    # ------------------------------------------------------------------
    def query(
        self, *, deadline: float | None = None, seed: int | None = None
    ) -> SolveResponse:
        """Full engine query of the current specification (non-raising).

        The serving-layer primitive: UNSAT/undecided come back as a
        response status.  A satisfiable answer is adopted as the
        session's current solution.  The session's own solution is the
        hint.
        """
        with self.lock:
            response = self._service.query(
                self.formula.packed(), deadline=deadline, seed=seed,
                hint=self.assignment,
            )
            if response.status == SAT:
                self.assignment = response.assignment
                self._tightening_pending = False
            self.history.append(SessionStep("solve", source=response.source))
            return response

    def solve(
        self, *, deadline: float | None = None, seed: int | None = None
    ) -> Assignment:
        """Solve the current specification from scratch (cache permitting).

        Raises:
            ECError: when the instance is unsatisfiable or undecided
                within the deadline.
        """
        return self._accept(self.query(deadline=deadline, seed=seed))

    def apply_changes(self, changes: ChangeSet | Iterable) -> str:
        """Install a change batch; returns its regime.

        Returns:
            ``"loosening"`` when no change in the batch can invalidate the
            current solution, else ``"tightening"``.
        """
        if not isinstance(changes, ChangeSet):
            changes = ChangeSet.from_changes(changes)
        with self.lock:
            self.formula = changes.apply_to(self.formula)
            regime = "loosening" if changes.is_loosening_only else "tightening"
            self._pending_regime = regime
            if regime == "tightening":
                self._tightening_pending = True
            self.history.append(SessionStep("change", regime=regime))
            return regime

    def resolve_query(
        self, *, deadline: float | None = None, seed: int | None = None
    ) -> SolveResponse:
        """Re-solve after :meth:`apply_changes` (non-raising).

        Loosening-only batches are answered by revalidating the current
        solution (no engine contact at all); tightening batches go
        through the service with the previous solution as warm start.

        Raises:
            ECError: without a starting solution (the §5 policy is
                defined relative to one).
        """
        with self.lock:
            if self.assignment is None:
                raise ECError("no starting solution; call solve() first")
            regime = self._pending_regime
            # §5 fast path: loosening changes (clause removal, variable
            # addition) provably keep the solution valid, so an
            # all-loosening chain resolves in O(1) — no check, no
            # fingerprint, no solver.  Tightening may or may not have
            # broken the solution; there an O(clauses) revalidation is
            # still far cheaper than any solver.
            survived = (
                not self._tightening_pending
                or self.formula.packed().is_satisfied(self.assignment)
            )
            if survived:
                self._tightening_pending = False
                self.revalidations += 1
                self.history.append(
                    SessionStep("resolve", regime=regime, source="revalidation")
                )
                self._pending_regime = ""
                return SolveResponse(
                    SAT, assignment=self.assignment, source="revalidation",
                    regime=regime,
                )
            response = self._service.query(
                self.formula.packed(), deadline=deadline, seed=seed,
                hint=self.assignment,
            )
            if response.status == SAT:
                # Only a satisfiable answer settles the pending
                # tightening: after an UNSAT/undecided response the
                # stored solution is still suspect, and a later resolve
                # must re-check it rather than serve it as valid.
                self.assignment = response.assignment
                self._tightening_pending = False
                self._pending_regime = ""
            self.history.append(
                SessionStep("resolve", regime=regime, source=response.source)
            )
            return response.with_context(regime=regime)

    def resolve(
        self, *, deadline: float | None = None, seed: int | None = None
    ) -> Assignment:
        """Re-solve after :meth:`apply_changes`.

        Raises:
            ECError: without a starting solution, or when the modified
                instance is unsatisfiable / undecided.
        """
        return self._accept(self.resolve_query(deadline=deadline, seed=seed))

    # ------------------------------------------------------------------
    def _accept(self, response: SolveResponse) -> Assignment:
        if response.status == SAT:
            return response.assignment
        if response.status == UNSAT:
            raise ECError("instance is unsatisfiable")
        raise ECError(
            "engine could not decide the instance within its budget "
            f"({response.detail or 'no detail'})"
        )

    def close(self) -> None:
        """Release what the session owns (idempotent).

        A private service (and its engine pool) is closed; a shared
        engine or service injected at construction is left running — the
        whole point of multi-tenant sessions is that one tenant leaving
        must not tear down the pool under its siblings.  Calling
        ``close()`` explicitly and then leaving a ``with`` block is safe.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self._service.close()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
