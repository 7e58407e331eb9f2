"""Solution and statistics containers returned by the solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ILPError
from repro.ilp.status import SolveStatus
from repro.ilp.variable import Variable


@dataclass
class SolveStats:
    """Machine-independent effort counters.

    The paper reports CPLEX wall-clock on a 1 GHz Pentium III; since our
    substrate is different, the benchmark harness reports *normalized*
    runtimes plus these counters, which are stable across machines.
    """

    nodes: int = 0                # branch-and-bound nodes expanded
    lp_solves: int = 0            # LP relaxations solved
    simplex_iterations: int = 0   # own-simplex pivots (HiGHS via milp reports none)
    presolve_fixed: int = 0       # variables fixed by presolve
    cuts_added: int = 0           # cutting planes added at the root
    heuristic_moves: int = 0      # local-search moves (heuristic solver)
    restarts: int = 0             # heuristic restarts
    wall_time: float = 0.0        # seconds, informational only

    def merge(self, other: "SolveStats") -> None:
        """Accumulate counters from a sub-solve."""
        self.nodes += other.nodes
        self.lp_solves += other.lp_solves
        self.simplex_iterations += other.simplex_iterations
        self.presolve_fixed += other.presolve_fixed
        self.cuts_added += other.cuts_added
        self.heuristic_moves += other.heuristic_moves
        self.restarts += other.restarts
        self.wall_time += other.wall_time


@dataclass
class Solution:
    """Result of solving an :class:`repro.ilp.model.ILPModel`."""

    status: SolveStatus
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)
    bound: float | None = None    # best dual bound when search was cut off

    def value(self, var: Variable | str) -> float:
        """Value of a variable (by object or name).

        Raises:
            ILPError: if the solution carries no assignment or the variable
                is not part of it.
        """
        if not self.status.has_solution:
            raise ILPError(f"no solution available (status={self.status.value})")
        name = var.name if isinstance(var, Variable) else var
        try:
            return self.values[name]
        except KeyError:
            raise ILPError(f"variable {name!r} not in solution") from None

    def rounded(self, var: Variable | str) -> int:
        """Integer value of a variable (nearest int)."""
        return int(round(self.value(var)))

    def binary_support(self, prefix: str = "") -> list[str]:
        """Names of variables at value 1 (optionally filtered by prefix)."""
        return sorted(
            name
            for name, val in self.values.items()
            if name.startswith(prefix) and round(val) == 1
        )

    def as_mapping(self) -> Mapping[str, float]:
        return dict(self.values)

    def __repr__(self) -> str:
        obj = "None" if self.objective is None else f"{self.objective:g}"
        return (
            f"Solution(status={self.status.value}, objective={obj}, "
            f"nodes={self.stats.nodes}, lps={self.stats.lp_solves})"
        )
