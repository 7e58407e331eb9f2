"""The uniform solver interface every backend adapts to.

The repo grew four independent satisfiability routes (DPLL, WalkSAT,
exhaustive enumeration, and the SAT->set-cover->0-1-ILP encoding solved by
branch and bound or iterative improvement), each with its own calling
convention.  The engine needs to race and cache them interchangeably, so
this module fixes one contract:

* ``solve_packed(packed, *, deadline=None, seed=None, hint=None)`` takes
  the flat :class:`~repro.cnf.packed.PackedCNF` kernel and returns a
  :class:`SolverOutcome`;
* ``deadline`` is a wall-clock budget in **seconds for this call** (not an
  absolute timestamp — budgets survive pickling into worker processes);
* ``seed`` makes any randomized search deterministic; deterministic
  solvers accept and may ignore it;
* ``hint`` is a previous assignment used as a warm start / phase hint;
* a ``sat`` outcome always carries a *verified* model; ``unsat`` may only
  be produced by a complete solver that proved it; everything else
  (budget exhausted, deadline hit, solver error) is ``unknown``.

:class:`SolverOutcome` is what one solver run produced;
:class:`SolveResponse` is what a query was answered with.  The engine
returns ``SolveResponse`` and the service hands it on unchanged
(:mod:`repro.service.requests` re-exports it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.cnf.assignment import Assignment
from repro.cnf.packed import PackedCNF

#: Outcome status values.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolverOutcome:
    """The result of one solver run under the engine contract.

    Attributes:
        status: ``"sat"`` | ``"unsat"`` | ``"unknown"``.
        assignment: a verified model when ``status == "sat"``, else None.
        solver: name of the configuration that produced the outcome.
        wall_time: seconds spent inside the solver call.
        detail: free-form diagnostics (budget kind, fallback notes, ...).
        stats: optional structured search-effort counters (e.g. CDCL's
            ``propagations``/``conflicts``/``restarts``) — machine-
            readable where ``detail`` is free-form.  Crosses the worker
            process boundary with the outcome, feeds the engine's
            search-effort counters and solve-span annotations; ``None`` from
            solvers that do not count anything.
    """

    status: str
    assignment: Assignment | None = None
    solver: str = ""
    wall_time: float = 0.0
    detail: str = ""
    stats: dict | None = None

    @property
    def is_definitive(self) -> bool:
        """True for ``sat``/``unsat`` — an answer the race can stop on."""
        return self.status in (SAT, UNSAT)

    def __post_init__(self):
        if self.status not in (SAT, UNSAT, UNKNOWN):
            raise ValueError(f"invalid solver status {self.status!r}")


@dataclass(frozen=True)
class SolveResponse:
    """The uniform answer to a query, a solve request, or a change request.

    ``status`` is tri-state (``"sat"`` / ``"unsat"`` / ``"unknown"``);
    ``source`` names what answered (``cache``, ``revalidation``,
    ``inflight-join``, ``batch-dedup``, a winning solver, ...),
    ``winner`` the racer credited with a decided race (even one crossing
    the line in the post-deadline drain window), ``detail`` the deciding
    outcome's diagnostics, and ``regime`` the §5 classification of the
    change batch that triggered a re-solve (change responses only).
    """

    status: str
    assignment: Assignment | None = None
    fingerprint: str = ""
    source: str = ""
    winner: str | None = None
    wall_time: float = 0.0
    from_cache: bool = False
    session: str | None = None
    regime: str = ""
    detail: str = ""

    @property
    def satisfiable(self) -> bool | None:
        """Tri-state satisfiability (None = undecided)."""
        if self.status == SAT:
            return True
        if self.status == UNSAT:
            return False
        return None

    def with_context(self, *, session: str | None = None,
                     regime: str | None = None) -> "SolveResponse":
        """Copy with session/regime context filled in."""
        updates: dict = {}
        if session is not None:
            updates["session"] = session
        if regime is not None:
            updates["regime"] = regime
        return replace(self, **updates) if updates else self


@runtime_checkable
class Solver(Protocol):
    """Anything the portfolio can race.

    Implementations must be picklable (they cross a process boundary) and
    deterministic given (instance, seed).  An adapter that needs clause
    objects builds them itself (``packed.to_formula()``).

    The call contract, shared by every adapter and relied on by the
    differential test harness:

    * ``deadline`` is a **relative** wall-clock budget in seconds for
      this call, not an absolute timestamp (budgets survive pickling
      into worker processes).  On expiry the solver returns ``unknown``;
      it never raises.  ``None`` means unlimited.
    * ``seed`` makes any randomized choice deterministic: two calls with
      the same (instance, seed) must produce the same outcome.  Complete
      solvers may use it only for diversification (branching order);
      ``None`` selects each solver's legacy default order.
    * ``hint`` is a previous assignment used as a warm start / initial
      phase.  A hint must never change the *verdict*, only how fast a
      model is found; solvers are free to ignore it.
    * ``sat`` outcomes always carry a model verified against the exact
      kernel argument; ``unsat`` may only be returned when
      ``complete`` is True (the verdict is a proof); everything else —
      budget exhausted, deadline hit, internal error — is ``unknown``.
    """

    #: Display / telemetry name.
    name: str
    #: Whether an ``unsat`` verdict from this solver is a proof.
    complete: bool

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Solve *packed* within the wall-clock budget ``deadline``."""
        ...


def verified_sat(
    packed: PackedCNF,
    assignment: Assignment | None,
    solver: str,
    wall_time: float,
    detail: str = "",
    stats: dict | None = None,
) -> SolverOutcome:
    """Build a ``sat`` outcome, downgrading to ``unknown`` on a bad model.

    Every adapter funnels its satisfiable results through this check so a
    buggy backend can never poison the cache with a non-model.  The model
    is checked against the kernel the adapter was handed, over its flat
    arrays.
    """
    if assignment is not None and packed.is_satisfied(assignment):
        return SolverOutcome(SAT, assignment, solver, wall_time, detail, stats)
    return SolverOutcome(
        UNKNOWN, None, solver, wall_time,
        detail or "model failed verification", stats,
    )
