"""Adapters giving every backend the uniform :class:`Solver` interface.

Each adapter is a small picklable dataclass wrapping one of the repo's
solvers behind one entry point, ``solve_packed(packed, *, deadline, seed,
hint)``, which takes the flat :class:`~repro.cnf.packed.PackedCNF`
kernel a race ships to its workers.  CDCL, DPLL and WalkSAT run on the
flat arrays directly; brute force and the two ILP routes first rule out
what the kernel alone decides (too many variables, an empty clause) and
only then build the clause objects they need (``packed.to_formula()``).
Satisfiable results are verified against the kernel before being
reported (see :func:`repro.engine.protocol.verified_sat`), and ``unsat``
is only emitted by complete solvers whose verdict is a proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cnf.assignment import Assignment
from repro.cnf.packed import PackedCNF
from repro.engine.protocol import SolverOutcome, UNKNOWN, UNSAT, verified_sat
from repro.errors import ReproError
from repro.ilp.status import SolveStatus
from repro.sat.brute import MAX_BRUTE_VARS, brute_force_solve
from repro.sat.cdcl import CDCLSolver
from repro.sat.dpll import dpll_solve_packed
from repro.sat.encoding import encode_sat
from repro.sat.walksat import walksat_solve_packed


@dataclass(frozen=True)
class CDCLAdapter:
    """Complete clause-learning search; the hint becomes the initial phase.

    The portfolio's default lead: on hard tightened EC instances its
    learned clauses dominate chronological DPLL by orders of magnitude,
    and on easy instances it costs the same unit propagation.
    """

    name: str = "cdcl"
    complete: bool = True
    max_conflicts: int = 0
    restart_base: int = 64

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Run CDCL under the engine contract."""
        t0 = time.perf_counter()
        res = CDCLSolver(
            max_conflicts=self.max_conflicts, restart_base=self.restart_base
        ).solve_packed(packed, polarity_hint=hint, deadline=deadline, seed=seed)
        wall = time.perf_counter() - t0
        # Structured search-effort counters ride every outcome (SAT,
        # UNSAT, or exhausted) so the engine can aggregate solver effort
        # and solve spans can annotate it — `detail` stays human-only.
        stats = {
            "propagations": res.propagations,
            "conflicts": res.conflicts,
            "restarts": res.restarts,
        }
        if res.satisfiable is True:
            return verified_sat(
                packed, res.assignment, self.name, wall,
                f"conflicts={res.conflicts} restarts={res.restarts}",
                stats,
            )
        if res.satisfiable is False:
            return SolverOutcome(
                UNSAT, None, self.name, wall, f"learned={res.learned}", stats
            )
        return SolverOutcome(
            UNKNOWN, None, self.name, wall, "budget exhausted", stats
        )


@dataclass(frozen=True)
class DPLLAdapter:
    """Complete DPLL search; the hint becomes the initial phase."""

    name: str = "dpll"
    complete: bool = True
    max_decisions: int = 0

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Run DPLL under the engine contract."""
        t0 = time.perf_counter()
        res = dpll_solve_packed(
            packed,
            polarity_hint=hint,
            max_decisions=self.max_decisions,
            deadline=deadline,
            seed=seed,
        )
        wall = time.perf_counter() - t0
        if res.satisfiable is True:
            return verified_sat(packed, res.assignment, self.name, wall)
        if res.satisfiable is False:
            return SolverOutcome(UNSAT, None, self.name, wall)
        return SolverOutcome(UNKNOWN, None, self.name, wall, "budget exhausted")


@dataclass(frozen=True)
class WalkSATAdapter:
    """Incomplete local search; fast on satisfiable instances."""

    name: str = "walksat"
    complete: bool = False
    max_flips: int = 200_000
    max_restarts: int = 10
    noise: float = 0.5
    use_hint: bool = True

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Run WalkSAT under the engine contract."""
        t0 = time.perf_counter()
        res = walksat_solve_packed(
            packed,
            max_flips=self.max_flips,
            max_restarts=self.max_restarts,
            noise=self.noise,
            initial=hint if self.use_hint else None,
            seed=0 if seed is None else seed,
            deadline=deadline,
        )
        wall = time.perf_counter() - t0
        if res.satisfiable is True:
            return verified_sat(
                packed, res.assignment, self.name, wall, f"flips={res.flips}"
            )
        if res.satisfiable is False:
            # Only for trivially-false formulas (empty clause) — still a proof.
            return SolverOutcome(UNSAT, None, self.name, wall)
        return SolverOutcome(UNKNOWN, None, self.name, wall, "budget exhausted")


@dataclass(frozen=True)
class BruteForceAdapter:
    """Exhaustive enumeration; only sensible for tiny formulas."""

    name: str = "brute"
    complete: bool = True
    max_vars: int = min(MAX_BRUTE_VARS, 16)

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Enumerate assignments under the engine contract."""
        t0 = time.perf_counter()
        if packed.num_vars > self.max_vars:
            return SolverOutcome(
                UNKNOWN, None, self.name, 0.0,
                f"{packed.num_vars} vars exceeds brute limit {self.max_vars}",
            )
        try:
            model = brute_force_solve(
                packed.to_formula(), deadline=deadline, seed=seed
            )
        except ReproError as exc:
            return SolverOutcome(
                UNKNOWN, None, self.name, time.perf_counter() - t0, str(exc)
            )
        wall = time.perf_counter() - t0
        if model is None:
            return SolverOutcome(UNSAT, None, self.name, wall)
        return verified_sat(packed, model, self.name, wall)


@dataclass(frozen=True)
class ExactILPAdapter:
    """The paper's route: SAT -> set cover -> 0-1 ILP, branch and bound."""

    name: str = "ilp-exact"
    complete: bool = True

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Solve the set-cover ILP encoding exactly."""
        from repro.ilp.solver import solve

        t0 = time.perf_counter()
        if packed.has_empty_clause():
            return SolverOutcome(UNSAT, None, self.name, 0.0, "empty clause")
        encoding = encode_sat(packed.to_formula())
        warm = encoding.values_from_assignment(hint) if hint is not None else None
        solution = solve(
            encoding.model,
            method="exact",
            warm_start=warm,
            deadline=deadline,
            seed=seed,
        )
        wall = time.perf_counter() - t0
        if solution.status.has_solution:
            return verified_sat(
                packed,
                encoding.decode(solution, default=False),
                self.name,
                wall,
                f"status={solution.status.value}",
            )
        if solution.status is SolveStatus.INFEASIBLE:
            return SolverOutcome(UNSAT, None, self.name, wall)
        return SolverOutcome(
            UNKNOWN, None, self.name, wall, f"status={solution.status.value}"
        )


@dataclass(frozen=True)
class HeuristicILPAdapter:
    """The ILP encoding solved by weighted iterative improvement."""

    name: str = "ilp-heuristic"
    complete: bool = False
    max_flips: int = 200_000
    max_restarts: int = 10

    def solve_packed(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolverOutcome:
        """Search the set-cover ILP encoding heuristically."""
        from repro.ilp.solver import solve

        t0 = time.perf_counter()
        if packed.has_empty_clause():
            return SolverOutcome(UNSAT, None, self.name, 0.0, "empty clause")
        encoding = encode_sat(packed.to_formula())
        warm = encoding.values_from_assignment(hint) if hint is not None else None
        solution = solve(
            encoding.model,
            method="heuristic",
            warm_start=warm,
            deadline=deadline,
            seed=0 if seed is None else seed,
            max_flips=self.max_flips,
            max_restarts=self.max_restarts,
            stop_on_first_feasible=True,
        )
        wall = time.perf_counter() - t0
        if solution.status.has_solution:
            return verified_sat(
                packed, encoding.decode(solution, default=False), self.name, wall
            )
        return SolverOutcome(UNKNOWN, None, self.name, wall, "budget exhausted")


#: Adapter constructors by configuration kind.
ADAPTERS = {
    "cdcl": CDCLAdapter,
    "dpll": DPLLAdapter,
    "walksat": WalkSATAdapter,
    "brute": BruteForceAdapter,
    "ilp-exact": ExactILPAdapter,
    "ilp-heuristic": HeuristicILPAdapter,
}


def build_adapter(kind: str, **params):
    """Instantiate the adapter for a configuration *kind*.

    Raises:
        ReproError: on an unknown kind.
    """
    try:
        cls = ADAPTERS[kind]
    except KeyError:
        raise ReproError(
            f"unknown solver kind {kind!r} (expected one of {sorted(ADAPTERS)})"
        ) from None
    return cls(**params)
