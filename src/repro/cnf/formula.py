"""Mutable CNF formulas with stable variable identifiers.

Engineering change is defined by the paper as adding/removing clauses and
adding/removing (*eliminating*) variables.  To make "how much of the old
solution survives" a well-posed question, variable identifiers must remain
stable across those edits, so :class:`CNFFormula` tracks an explicit set of
*active* variables rather than renumbering.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.literals import check_variable
from repro.cnf.packed import PackedCNF
from repro.errors import ClauseError, VariableError


class CNFFormula:
    """A conjunction of :class:`Clause` objects over a stable variable set.

    Args:
        clauses: iterable of clauses or iterables of literals.
        num_vars: if given, variables ``1..num_vars`` are active even when
            some do not occur in any clause (DIMACS headers allow this).

    The formula owns its clause list; clauses themselves are immutable.
    Duplicate clauses are allowed (DIMACS files contain them) but can be
    stripped with :meth:`deduplicated`.
    """

    def __init__(
        self,
        clauses: Iterable[Clause | Iterable[int]] = (),
        num_vars: int | None = None,
    ):
        self._clauses: list[Clause] = []
        self._variables: set[int] = set()
        # The flat-array kernel (and with it the fp-v2 digest state),
        # built on first use and incrementally *maintained* by every EC
        # edit after that.
        self._packed: PackedCNF | None = None
        for cl in clauses:
            self.add_clause(cl)
        if num_vars is not None:
            if num_vars < 0:
                raise VariableError(f"num_vars must be >= 0, got {num_vars}")
            highest = max(self._variables, default=0)
            if highest > num_vars:
                raise VariableError(
                    f"clauses mention v{highest} but num_vars is {num_vars}"
                )
            self._variables.update(range(1, num_vars + 1))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clause tuple (a snapshot; mutating the formula invalidates it)."""
        return tuple(self._clauses)

    @property
    def variables(self) -> tuple[int, ...]:
        """Sorted tuple of active variable identifiers."""
        return tuple(sorted(self._variables))

    @property
    def num_vars(self) -> int:
        """Number of active variables."""
        return len(self._variables)

    @property
    def num_clauses(self) -> int:
        """Number of clauses (duplicates counted)."""
        return len(self._clauses)

    @property
    def max_var(self) -> int:
        """Largest active variable id (0 for the empty formula)."""
        return max(self._variables, default=0)

    def clause(self, index: int) -> Clause:
        """The clause at position *index*."""
        return self._clauses[index]

    def packed(self) -> PackedCNF:
        """The flat-array kernel of this formula (built once, then cached).

        The kernel is *incrementally maintained*: every EC edit primitive
        below updates it in place (O(changed clauses) digest work, array
        splices for storage) instead of invalidating it, so a change
        chain never re-packs the formula.  Callers must treat the result
        as read-only; it is also handed to solvers and shipped to
        portfolio workers via :meth:`PackedCNF.to_bytes`.
        """
        if self._packed is None:
            self._packed = PackedCNF.from_formula(self)
        return self._packed

    # ------------------------------------------------------------------
    # mutation — the four EC edit primitives
    # ------------------------------------------------------------------
    def add_clause(self, clause: Clause | Iterable[int]) -> Clause:
        """Append a clause; its variables become active.  Returns the clause."""
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        if clause.is_empty():
            raise ClauseError("cannot add the empty clause to a formula")
        self._clauses.append(clause)
        self._variables.update(clause.variables)
        if self._packed is not None:
            self._packed.append_clause(clause.literals)
        return clause

    def remove_clause(self, clause: Clause | Iterable[int]) -> Clause:
        """Remove one occurrence of *clause*.

        Variables that no longer occur anywhere stay active (they become
        free / don't-care variables), matching the paper's semantics where
        deleting clauses only loosens the instance.
        """
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        try:
            index = self._clauses.index(clause)
        except ValueError:
            raise ClauseError(f"clause {clause!r} not present in formula") from None
        del self._clauses[index]
        if self._packed is not None:
            self._packed.remove_clause_at(index)
        return clause

    def remove_clause_at(self, index: int) -> Clause:
        """Remove and return the clause at position *index*."""
        size = len(self._clauses)
        try:
            clause = self._clauses.pop(index)
        except IndexError:
            raise ClauseError(f"no clause at index {index}") from None
        if self._packed is not None:
            self._packed.remove_clause_at(index if index >= 0 else size + index)
        return clause

    def add_variable(self, var: int | None = None) -> int:
        """Activate a new variable and return its id.

        With no argument a fresh id (``max_var + 1``) is allocated.  Adding a
        variable never invalidates an existing solution (the paper assigns
        it a don't-care value).  Free variables are excluded from the
        fingerprint: the kernel records the variable, its digest is unchanged.
        """
        if var is None:
            var = self.max_var + 1
        check_variable(var)
        if var in self._variables:
            raise VariableError(f"variable v{var} is already active")
        self._variables.add(var)
        if self._packed is not None:
            self._packed.add_variable(var)
        return var

    def remove_variable(self, var: int) -> int:
        """Eliminate *var*: strip its literals from every clause.

        Clauses reduced to the empty clause make the formula unsatisfiable;
        they are kept (as empty clauses are not allowed, a ``ClauseError``
        would hide the infeasibility), so we instead keep a ``Clause`` with
        no literals via the internal path and expose it through
        :meth:`has_empty_clause`.

        Returns the number of clauses that were shortened.
        """
        check_variable(var)
        if var not in self._variables:
            raise VariableError(f"variable v{var} is not active")
        touched = 0
        new_clauses: list[Clause] = []
        for cl in self._clauses:
            if cl.contains_variable(var):
                new_clauses.append(cl.without_variable(var))
                touched += 1
            else:
                new_clauses.append(cl)
        self._clauses = new_clauses
        self._variables.discard(var)
        if self._packed is not None:
            self._packed.eliminate_variable(var)
        return touched

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def has_empty_clause(self) -> bool:
        """True if variable elimination produced an empty (false) clause."""
        return any(cl.is_empty() for cl in self._clauses)

    def is_satisfied(self, assignment: Assignment) -> bool:
        """True if every clause has at least one true literal."""
        return all(cl.is_satisfied(assignment) for cl in self._clauses)

    def unsatisfied_clauses(self, assignment: Assignment) -> list[Clause]:
        """Clauses with no true literal under *assignment*."""
        return [cl for cl in self._clauses if not cl.is_satisfied(assignment)]

    def unsatisfied_indices(self, assignment: Assignment) -> list[int]:
        """Indices of clauses with no true literal under *assignment*."""
        return [i for i, cl in enumerate(self._clauses) if not cl.is_satisfied(assignment)]

    def satisfaction_levels(self, assignment: Assignment) -> list[int]:
        """Per-clause count of true literals (the paper's *k*)."""
        return [cl.satisfaction_level(assignment) for cl in self._clauses]

    # ------------------------------------------------------------------
    # structure queries used by the EC algorithms
    # ------------------------------------------------------------------
    def clauses_with_variable(self, var: int) -> list[int]:
        """Indices of clauses mentioning either polarity of *var*."""
        return [i for i, cl in enumerate(self._clauses) if cl.contains_variable(var)]

    def occurrence_counts(self) -> Counter[int]:
        """Counter mapping each literal to its number of occurrences."""
        counts: Counter[int] = Counter()
        for cl in self._clauses:
            counts.update(cl.literals)
        return counts

    def variable_occurrence_counts(self) -> Counter[int]:
        """Counter mapping each variable to its number of clause mentions."""
        counts: Counter[int] = Counter()
        for cl in self._clauses:
            counts.update(cl.variables)
        return counts

    def pure_literals(self) -> list[int]:
        """Literals whose complement never occurs (over occurring variables)."""
        occ = self.occurrence_counts()
        return sorted(
            (lit for lit in occ if -lit not in occ),
            key=lambda l: (abs(l), l < 0),
        )

    def unused_variables(self) -> list[int]:
        """Active variables that occur in no clause (free / don't-care)."""
        used: set[int] = set()
        for cl in self._clauses:
            used.update(cl.variables)
        return sorted(self._variables - used)

    def clause_length_histogram(self) -> Counter[int]:
        """Counter mapping clause length to number of clauses of that length."""
        return Counter(len(cl) for cl in self._clauses)

    def density(self) -> float:
        """Clause-to-variable ratio (0.0 for a formula with no variables)."""
        if not self._variables:
            return 0.0
        return len(self._clauses) / len(self._variables)

    # ------------------------------------------------------------------
    # copies and normal forms
    # ------------------------------------------------------------------
    def copy(self) -> "CNFFormula":
        """Deep-enough copy (clauses are immutable and shared).

        The packed kernel is carried along as an independent copy (it is
        mutable), so an EC change chain built from successive copies
        keeps its incremental fingerprint state.
        Copying the kernel is O(total literals) but pure C-level memcpy
        (array slices, one dict copy); the expensive part — re-hashing
        every clause digest — is what carrying the state avoids, and the
        per-edit *hash* work stays O(changed clauses).
        """
        out = CNFFormula()
        out._clauses = list(self._clauses)
        out._variables = set(self._variables)
        out._packed = self._packed.copy() if self._packed is not None else None
        return out

    def deduplicated(self) -> "CNFFormula":
        """Copy with duplicate clauses removed (first occurrence kept)."""
        seen: set[Clause] = set()
        out = CNFFormula()
        out._variables = set(self._variables)
        for cl in self._clauses:
            if cl not in seen:
                seen.add(cl)
                out._clauses.append(cl)
        return out

    def restricted_to_clauses(self, indices: Iterable[int]) -> "CNFFormula":
        """Sub-formula containing only the listed clause positions.

        The variable set shrinks to the variables of the kept clauses; this
        is what fast EC solves as the reduced instance ``F''``.
        """
        out = CNFFormula()
        for i in indices:
            out.add_clause(self._clauses[i])
        return out

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CNFFormula):
            return NotImplemented
        return (
            sorted(self._clauses, key=lambda c: c.literals)
            == sorted(other._clauses, key=lambda c: c.literals)
            and self._variables == other._variables
        )

    def __repr__(self) -> str:
        return f"CNFFormula(num_vars={self.num_vars}, num_clauses={self.num_clauses})"
