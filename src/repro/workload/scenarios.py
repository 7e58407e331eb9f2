"""Scenario generators: seeded, parameterized EC *request streams*.

The paper's premise is that engineering changes arrive as streams of
small edits against a solved base — yet until this subsystem the repo
could only exercise the engine with hand-rolled DIMACS families.  A
*scenario* here is a deterministic function ``(seed, tenants, changes)
-> list[WorkloadEvent]`` producing the typed requests the
:class:`~repro.service.service.SolverService` facade speaks: session
opens, engineering-change batches, re-queries, stateless solves, and
session closes.  The same stream can be executed in-process, shipped to
a ``repro serve`` daemon, recorded to a trace
(:mod:`repro.workload.trace`), or driven at load
(:mod:`repro.workload.runner`).

Determinism is a contract, not an accident: the same seed must produce a
wire-identical stream (the property suite asserts it via
:func:`repro.workload.trace.event_to_wire`), because traces, replay
verification, and benchmark trajectories all hinge on it.  Every
generator draws from one ``random.Random(seed)`` and never iterates an
unordered container.

Scenarios (all registered in :data:`SCENARIOS`):

``sat-tightening``
    per-tenant planted k-SAT sessions absorbing clause-adding changes
    that stay satisfiable under the planted witness — the hint-
    revalidation / CDCL-lead path of the §5 policy;
``sat-loosening``
    clause removals and fresh variables only — the O(1) revalidation
    fast path, no solver should ever launch after the opening solve;
``sat-mixed``
    interleaved tightening/loosening change sessions with sourceless
    re-queries and occasional ``ec_mode="force"`` full queries;
``coloring-churn``
    graph-coloring sessions (CNF-encoded: one variable per node/color,
    at-least-one per node, conflict clauses per edge) absorbing edge
    insertions (tightening) and deletions (loosening), the paper's
    canonical coloring EC;
``scheduling-precedence``
    time-indexed scheduling sessions (CNF-encoded start-step choices
    with exactly-one, unit-capacity, and precedence-forbidding clauses)
    absorbing precedence-edge insertions consistent with a planted
    schedule;
``tenant-churn``
    multi-tenant session churn — opens/closes, name reuse after close,
    and interleaved *fingerprint-colliding* vs distinct stateless
    solves, stressing the shared cache and the session table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_clause, random_planted_ksat
from repro.cnf.packed import PackedCNF
from repro.core.change import (
    AddClause,
    AddVariable,
    ChangeSet,
    RemoveClause,
)
from repro.errors import ReproError
from repro.service.requests import ChangeRequest, SolveRequest

#: Recognized :class:`WorkloadEvent` kinds (the service's typed ops).
EVENT_KINDS = ("solve", "change", "close_session", "solve_many")


@dataclass(frozen=True)
class WorkloadEvent:
    """One element of a workload stream.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        request: the typed record for ``solve`` / ``change`` events.
        session: target session name for ``close_session`` events.
        formulas: the batch of packed kernels for ``solve_many`` events.
        options: shared ``solve_many`` options (deadline/seed), or
            None for defaults.
        at: optional open-loop due time (seconds from stream start);
            replayed traces carry the recorded offsets here.
    """

    kind: str
    request: SolveRequest | ChangeRequest | None = None
    session: str | None = None
    formulas: tuple[PackedCNF, ...] = ()
    options: dict | None = None
    at: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r} (expected one of {EVENT_KINDS})"
            )

    @property
    def key(self) -> str | None:
        """Ordering key: events with the same key must run in order.

        Session-scoped events key on the session name (a change must not
        overtake the open that creates its session); stateless events
        are keyless and may run in any interleaving.
        """
        if self.kind == "close_session":
            return self.session
        if self.request is not None:
            return getattr(self.request, "session", None)
        return None


def _interleave(streams: list[list[WorkloadEvent]]) -> list[WorkloadEvent]:
    """Round-robin merge, so tenants genuinely interleave on the wire."""
    out: list[WorkloadEvent] = []
    cursors = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining:
        for i, stream in enumerate(streams):
            if cursors[i] < len(stream):
                out.append(stream[cursors[i]])
                cursors[i] += 1
                remaining -= 1
    return out


def _satisfied_clause(
    variables: list[int], witness, rng: random.Random, width: int = 3
) -> Clause:
    """A random clause guaranteed satisfied by the witness (so tightening
    changes never tip a scenario into UNSAT — the paper's trials "make
    sure that we did not make the instance non-satisfiable")."""
    for _ in range(1000):
        cl = random_clause(variables, min(width, len(variables)), rng)
        if cl.is_satisfied(witness):
            return cl
    raise ReproError("could not draw a witness-satisfied clause")  # pragma: no cover


# ----------------------------------------------------------------------
# SAT-domain change sessions
# ----------------------------------------------------------------------
def sat_tightening(
    *, seed: int = 0, tenants: int = 4, changes: int = 6, num_vars: int = 24
) -> list[WorkloadEvent]:
    """Clause-adding change sessions that stay satisfiable."""
    rng = random.Random(seed)
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        formula, witness = random_planted_ksat(num_vars, 3 * num_vars, rng=rng)
        name = f"sat-tight-{t}"
        variables = list(range(1, num_vars + 1))
        events = [
            WorkloadEvent(
                "solve", request=SolveRequest(formula=formula, session=name, seed=0)
            )
        ]
        for _ in range(changes):
            cl = _satisfied_clause(variables, witness, rng)
            events.append(
                WorkloadEvent(
                    "change",
                    request=ChangeRequest(name, ChangeSet([AddClause(cl)]), seed=0),
                )
            )
        events.append(
            WorkloadEvent("solve", request=SolveRequest(session=name, seed=0))
        )
        events.append(WorkloadEvent("close_session", session=name))
        streams.append(events)
    return _interleave(streams)


def sat_loosening(
    *, seed: int = 0, tenants: int = 4, changes: int = 6, num_vars: int = 24
) -> list[WorkloadEvent]:
    """Clause-removal / variable-addition sessions (O(1) re-solves)."""
    rng = random.Random(seed)
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        formula, _witness = random_planted_ksat(num_vars, 3 * num_vars, rng=rng)
        name = f"sat-loose-{t}"
        working = formula.copy()
        events = [
            WorkloadEvent(
                "solve", request=SolveRequest(formula=formula, session=name, seed=0)
            )
        ]
        for i in range(changes):
            if i % 3 == 2 or working.num_clauses <= 1:
                cs = ChangeSet([AddVariable()])
            else:
                victim = working.clauses[rng.randrange(working.num_clauses)]
                cs = ChangeSet([RemoveClause(victim)])
            working = cs.apply_to(working)
            events.append(
                WorkloadEvent("change", request=ChangeRequest(name, cs, seed=0))
            )
        events.append(WorkloadEvent("close_session", session=name))
        streams.append(events)
    return _interleave(streams)


def sat_mixed(
    *, seed: int = 0, tenants: int = 4, changes: int = 6, num_vars: int = 24
) -> list[WorkloadEvent]:
    """Mixed tightening/loosening sessions with re-queries and forces."""
    rng = random.Random(seed)
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        formula, witness = random_planted_ksat(num_vars, 3 * num_vars, rng=rng)
        name = f"sat-mixed-{t}"
        working = formula.copy()
        variables = list(range(1, num_vars + 1))
        events = [
            WorkloadEvent(
                "solve", request=SolveRequest(formula=formula, session=name, seed=0)
            )
        ]
        for i in range(changes):
            if rng.random() < 0.5:
                cs = ChangeSet([AddClause(_satisfied_clause(variables, witness, rng))])
            elif working.num_clauses > 1 and rng.random() < 0.8:
                cs = ChangeSet(
                    [RemoveClause(working.clauses[rng.randrange(working.num_clauses)])]
                )
            else:
                cs = ChangeSet([AddVariable()])
            working = cs.apply_to(working)
            ec_mode = "force" if i % 4 == 3 else "auto"
            events.append(
                WorkloadEvent(
                    "change",
                    request=ChangeRequest(name, cs, seed=0, ec_mode=ec_mode),
                )
            )
            if i % 3 == 1:
                events.append(
                    WorkloadEvent("solve", request=SolveRequest(session=name, seed=0))
                )
        events.append(WorkloadEvent("close_session", session=name))
        streams.append(events)
    return _interleave(streams)


# ----------------------------------------------------------------------
# graph-coloring change sessions (CNF-encoded)
# ----------------------------------------------------------------------
def _color_var(node: int, color: int, num_colors: int) -> int:
    """CNF variable for "node takes color" (colors are 0-based here)."""
    return node * num_colors + color + 1


def _conflict_clauses(u: int, v: int, num_colors: int) -> list[Clause]:
    """One clause per color forbidding a monochromatic edge."""
    return [
        Clause([-_color_var(u, c, num_colors), -_color_var(v, c, num_colors)])
        for c in range(num_colors)
    ]


def coloring_churn(
    *,
    seed: int = 0,
    tenants: int = 4,
    changes: int = 6,
    num_nodes: int = 10,
    num_colors: int = 3,
    num_edges: int = 16,
) -> list[WorkloadEvent]:
    """Edge-insertion/deletion sessions over CNF-encoded colorings.

    Each tenant gets a random k-colorable graph with a planted proper
    coloring; part of the edge set forms the base instance, the rest is
    held out as the insertion pool.  Inserting an edge adds its k
    conflict clauses (tightening — the paper's canonical coloring EC);
    deleting one removes them (loosening) and puts the edge back on the
    insertion pool.  Because only non-monochromatic-under-the-planting
    edges exist, every step stays satisfiable.
    """
    from repro.coloring.generators import random_colorable_graph

    rng = random.Random(seed)
    base_count = max(1, (2 * num_edges) // 3)
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        graph, _planted = random_colorable_graph(
            num_nodes, num_colors, num_edges, rng=rng
        )
        edges = [tuple(e) for e in graph.edges()]
        base, pool = edges[:base_count], list(edges[base_count:])
        clauses = [
            Clause([_color_var(n, c, num_colors) for c in range(num_colors)])
            for n in range(num_nodes)
        ]
        for u, v in base:
            clauses.extend(_conflict_clauses(u, v, num_colors))
        formula = CNFFormula(clauses, num_vars=num_nodes * num_colors)
        name = f"color-{t}"
        events = [
            WorkloadEvent(
                "solve", request=SolveRequest(formula=formula, session=name, seed=0)
            )
        ]
        present = list(base)
        for i in range(changes):
            if pool and (i % 2 == 0 or len(present) <= 2):
                u, v = pool.pop(0)
                cs = ChangeSet(
                    [AddClause(c) for c in _conflict_clauses(u, v, num_colors)]
                )
                present.append((u, v))
            else:
                u, v = present.pop(rng.randrange(len(present)))
                cs = ChangeSet(
                    [RemoveClause(c) for c in _conflict_clauses(u, v, num_colors)]
                )
                pool.append((u, v))
            events.append(
                WorkloadEvent("change", request=ChangeRequest(name, cs, seed=0))
            )
        events.append(WorkloadEvent("close_session", session=name))
        streams.append(events)
    return _interleave(streams)


# ----------------------------------------------------------------------
# scheduling change sessions (CNF-encoded)
# ----------------------------------------------------------------------
def _start_var(op: int, step: int, horizon: int) -> int:
    """CNF variable for "operation starts at control step"."""
    return op * horizon + step + 1


def _precedence_clauses(before: int, after: int, horizon: int) -> list[Clause]:
    """Forbid every (start-before >= start-after) step pair."""
    return [
        Clause([-_start_var(before, tb, horizon), -_start_var(after, ta, horizon)])
        for tb in range(horizon)
        for ta in range(horizon)
        if ta <= tb
    ]


def scheduling_precedence(
    *,
    seed: int = 0,
    tenants: int = 4,
    changes: int = 6,
    num_ops: int = 6,
    horizon: int = 6,
) -> list[WorkloadEvent]:
    """Precedence-edge change sessions over CNF-encoded schedules.

    The time-indexed formulation (the paper cites Gebotys & Elmasry for
    this ILP family) as pure CNF: exactly-one start step per operation,
    unit-capacity resource rows as pairwise conflicts, precedence as
    forbidden step pairs.  The planted schedule (operation *i* starts at
    step *i*) stays feasible because precedence edges are only inserted
    from earlier-planted to later-planted operations.
    """
    rng = random.Random(seed)
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        clauses = [
            Clause([_start_var(o, s, horizon) for s in range(horizon)])
            for o in range(num_ops)
        ]
        for o in range(num_ops):
            for s1 in range(horizon):
                for s2 in range(s1 + 1, horizon):
                    clauses.append(
                        Clause([-_start_var(o, s1, horizon), -_start_var(o, s2, horizon)])
                    )
        # Two unit-capacity resource types, operations alternating.
        for resource in (0, 1):
            ops = [o for o in range(num_ops) if o % 2 == resource]
            for i, a in enumerate(ops):
                for b in ops[i + 1:]:
                    for s in range(horizon):
                        clauses.append(
                            Clause([-_start_var(a, s, horizon), -_start_var(b, s, horizon)])
                        )
        formula = CNFFormula(clauses, num_vars=num_ops * horizon)
        name = f"sched-{t}"
        events = [
            WorkloadEvent(
                "solve", request=SolveRequest(formula=formula, session=name, seed=0)
            )
        ]
        candidates = [
            (a, b) for a in range(num_ops) for b in range(a + 1, num_ops)
        ]
        rng.shuffle(candidates)
        added: list[tuple[int, int]] = []
        for i in range(changes):
            if added and i % 4 == 3:
                a, b = added.pop(rng.randrange(len(added)))
                cs = ChangeSet(
                    [RemoveClause(c) for c in _precedence_clauses(a, b, horizon)]
                )
            elif candidates:
                a, b = candidates.pop(0)
                cs = ChangeSet(
                    [AddClause(c) for c in _precedence_clauses(a, b, horizon)]
                )
                added.append((a, b))
            else:  # pragma: no cover - needs changes > C(num_ops, 2)
                break
            events.append(
                WorkloadEvent("change", request=ChangeRequest(name, cs, seed=0))
            )
        events.append(WorkloadEvent("close_session", session=name))
        streams.append(events)
    return _interleave(streams)


# ----------------------------------------------------------------------
# multi-tenant churn
# ----------------------------------------------------------------------
def tenant_churn(
    *, seed: int = 0, tenants: int = 4, changes: int = 6, num_vars: int = 20
) -> list[WorkloadEvent]:
    """Session churn plus colliding/distinct stateless traffic.

    Tenants open a session over one of two *hot* instances (so their
    opening solves collide on the fp-v2 fingerprint and hit the shared
    cache), apply a few loosening changes, close, then reopen the *same
    name* over a distinct cold instance — the name-reuse path of the
    session table.  Between session events, stateless solves alternate
    between fresh copies of the hot instances (colliding: answered from
    cache) and freshly drawn distinct instances (cold: a real race).
    """
    rng = random.Random(seed)
    hot = [
        random_planted_ksat(num_vars, 3 * num_vars, rng=rng)[0] for _ in range(2)
    ]
    streams: list[list[WorkloadEvent]] = []
    for t in range(tenants):
        name = f"churn-{t}"
        base = hot[t % 2]
        working = base.copy()
        events = [
            WorkloadEvent(
                "solve",
                # A fresh object with identical content: the collision is
                # content-addressed, and concurrent workers must never
                # share one formula's lazily built packed kernel.
                request=SolveRequest(
                    formula=CNFFormula(base.clauses), session=name, seed=0
                ),
            )
        ]
        for i in range(max(1, changes // 2)):
            if i % 2 == 0 and working.num_clauses > 1:
                victim = working.clauses[rng.randrange(working.num_clauses)]
                cs = ChangeSet([RemoveClause(victim)])
            else:
                cs = ChangeSet([AddVariable()])
            working = cs.apply_to(working)
            events.append(
                WorkloadEvent("change", request=ChangeRequest(name, cs, seed=0))
            )
        events.append(WorkloadEvent("close_session", session=name))
        # Name reuse: a new tenant generation over a distinct instance.
        cold, _ = random_planted_ksat(num_vars, 3 * num_vars, rng=rng)
        events.append(
            WorkloadEvent(
                "solve", request=SolveRequest(formula=cold, session=name, seed=0)
            )
        )
        events.append(WorkloadEvent("close_session", session=name))
        # Stateless traffic: colliding (hot) vs distinct (cold) queries.
        for i in range(max(1, changes // 2)):
            if i % 2 == 0:
                stateless = CNFFormula(hot[(t + i) % 2].clauses)
            else:
                stateless, _ = random_planted_ksat(num_vars, 3 * num_vars, rng=rng)
            events.append(
                WorkloadEvent("solve", request=SolveRequest(formula=stateless, seed=0))
            )
        streams.append(events)
    return _interleave(streams)


#: Registry of scenario generators: name -> (seed, tenants, changes) -> stream.
SCENARIOS: dict[str, Callable[..., list[WorkloadEvent]]] = {
    "sat-tightening": sat_tightening,
    "sat-loosening": sat_loosening,
    "sat-mixed": sat_mixed,
    "coloring-churn": coloring_churn,
    "scheduling-precedence": scheduling_precedence,
    "tenant-churn": tenant_churn,
}


def build_scenario(
    name: str, *, seed: int = 0, tenants: int = 4, changes: int = 6
) -> list[WorkloadEvent]:
    """Build a named scenario stream (see :data:`SCENARIOS`).

    Raises:
        ReproError: unknown scenario name.
    """
    try:
        generator = SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r} (expected one of {sorted(SCENARIOS)})"
        ) from None
    return generator(seed=seed, tenants=tenants, changes=changes)
