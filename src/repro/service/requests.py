"""Typed request/response records for the :class:`SolverService` facade.

Every front door of the repo — the Figure-1 :class:`~repro.core.flow.
ECFlow`, the :class:`~repro.engine.session.IncrementalSession`, the CLI,
and the ``repro serve`` daemon — speaks these three records instead of
its own argument shapes:

* :class:`SolveRequest` — one satisfiability query.  The formula arrives
  **by value** (a :class:`~repro.cnf.formula.CNFFormula`) or as the
  packed kernel's wire bytes
  (:meth:`~repro.cnf.packed.PackedCNF.to_bytes` — what a remote client
  ships; a client reads its own files); at most one source may be set.
  ``strategy`` picks the route (the portfolio engine, the paper's ILP
  encoding, or any single named solver), ``session`` scopes the query
  to a named incremental session.
* :class:`ChangeRequest` — one engineering-change batch against a named
  session: apply the :class:`~repro.core.change.ChangeSet`, then re-solve
  under the session's §5 policy (``ec_mode="auto"``: loosening batches
  revalidate in O(1), tightening batches race) or force a full engine
  query (``ec_mode="force"``).
* :class:`SolveResponse` — the uniform answer: tri-state ``status``, the
  model, fingerprint, and provenance (source/winner/from_cache).  A
  proven-UNSAT or undecided query is a *response*, never an exception —
  the service is a serving layer; the session/flow shims re-raise
  :class:`~repro.errors.ECError` for their legacy contracts.  It is
  defined in :mod:`repro.engine.protocol` (the engine returns it
  directly) and re-exported here, so both import paths name one class.

All three are frozen: a request can be retried, logged, or shipped over
the wire without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.core.change import ChangeSet
from repro.engine.protocol import SolveResponse  # noqa: F401  (re-export)

#: Strategy selector for the paper's SAT -> set-cover -> ILP route.
ILP_STRATEGY = "ilp"
#: Strategy selector for the cached parallel portfolio (the default).
PORTFOLIO_STRATEGY = "portfolio"


@dataclass(frozen=True)
class SolveRequest:
    """One satisfiability query (see the module docstring).

    Attributes:
        formula: the instance by value.
        packed_bytes: ... or the packed kernel's wire bytes.
        strategy: ``"portfolio"`` (default), ``"ilp"``, or a single
            solver name (``cdcl``/``dpll``/``walksat``/``brute``/
            ``ilp-exact``/``ilp-heuristic``).
        method: ILP method (only with ``strategy="ilp"``).
        deadline: wall-clock budget in seconds.
        seed: race seed for randomized solvers.
        hint: previous solution to revalidate / warm-start from
            (stateless requests only — a session-scoped request always
            uses the session's own solution and rejects a caller hint).
        session: name of the incremental session to route through — a
            new session is opened when the request carries a formula
            source, an existing one is re-queried when it does not.
        request_id: idempotency token for session-*opening* solves.  The
            open mutates service state (the session table), so a blind
            transport retry would land on the "already exists" error;
            the service replays the recorded open response when it sees
            the same id again on the same session.  The wire client
            fills one in automatically; stateless solves (no session)
            are naturally idempotent and never need one.
        trace: optional distributed-tracing context (the compact
            ``{"tid", "sid"}`` wire dict of :mod:`repro.obs.tracing`).
            Purely observational — it never changes the answer — and
            optional on the wire, so requests from older clients parse
            unchanged.
    """

    formula: CNFFormula | None = None
    packed_bytes: bytes | None = None
    strategy: str = PORTFOLIO_STRATEGY
    method: str = "exact"
    deadline: float | None = None
    seed: int | None = None
    hint: Assignment | None = None
    session: str | None = None
    request_id: str | None = None
    trace: dict | None = None

    def __post_init__(self) -> None:
        if self.formula is not None and self.packed_bytes is not None:
            raise ValueError(
                "SolveRequest takes at most one formula source "
                "(formula | packed_bytes)"
            )
        if not self.has_source and self.session is None:
            raise ValueError(
                "SolveRequest needs a formula source or a session name"
            )

    @property
    def has_source(self) -> bool:
        """Whether any formula source is set."""
        return self.formula is not None or self.packed_bytes is not None


#: Recognized :class:`ChangeRequest` execution modes.
EC_MODES = ("auto", "force")


@dataclass(frozen=True)
class ChangeRequest:
    """One engineering-change batch against a named session.

    Attributes:
        session: the session to mutate (must exist).
        changes: the typed change batch to apply.
        deadline/seed: forwarded to the re-solve.
        ec_mode: ``"auto"`` (the session's §5 policy: revalidate
            loosening batches without any solver, race tightening ones)
            or ``"force"`` (always run a full engine query — cache,
            hint revalidation, race — after applying the batch).
        change_id: idempotency token.  A change mutates the session, so a
            blind retry would apply the batch twice; the service replays
            the recorded response when it sees the same id again on the
            same session.  The wire client fills one in automatically.
        trace: optional distributed-tracing context (see
            :class:`SolveRequest`); observational only.
    """

    session: str
    changes: ChangeSet
    deadline: float | None = None
    seed: int | None = None
    ec_mode: str = "auto"
    change_id: str | None = None
    trace: dict | None = None

    def __post_init__(self) -> None:
        if self.ec_mode not in EC_MODES:
            raise ValueError(
                f"unknown ec_mode {self.ec_mode!r} (expected one of {EC_MODES})"
            )
