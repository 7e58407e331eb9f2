"""(Partial) truth assignments over DIMACS-style variables.

An :class:`Assignment` maps variable indices to booleans.  It may be
partial: variables absent from the mapping are *don't cares* (DC), which the
paper's fast-EC section exploits ("it can automatically be assigned a DC
value").
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.cnf.literals import check_variable
from repro.errors import AssignmentError


class Assignment:
    """A mutable partial mapping from variable index to truth value."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[int, bool] | Iterable[tuple[int, bool]] = ()):
        self._values: dict[int, bool] = {}
        items = values.items() if isinstance(values, Mapping) else values
        for var, val in items:
            self[var] = val

    @classmethod
    def _wrap(cls, values: dict[int, bool]) -> "Assignment":
        """Adopt *values*, already valid, without checking it again."""
        out = cls.__new__(cls)
        out._values = values
        return out

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Assignment":
        """Build an assignment from signed literals (e.g. DPLL model output).

        Validates while it builds, in one pass: a literal whose variable
        is not a positive ``int`` goes through :func:`check_variable`,
        which raises the usual error.

        >>> Assignment.from_literals([1, -2, 3]).as_dict()
        {1: True, 2: False, 3: True}
        """
        values: dict[int, bool] = {}
        for lit in literals:
            var = abs(lit)
            if type(var) is not int or var < 1:
                check_variable(var)
            values[var] = lit > 0
        return cls._wrap(values)

    @classmethod
    def all_false(cls, variables: Iterable[int]) -> "Assignment":
        """Assignment setting every listed variable to False."""
        return cls({check_variable(v): False for v in variables})

    @classmethod
    def all_true(cls, variables: Iterable[int]) -> "Assignment":
        """Assignment setting every listed variable to True."""
        return cls({check_variable(v): True for v in variables})

    def get(self, var: int, default: bool | None = None) -> bool | None:
        """Value of *var*, or *default* if the variable is a don't-care."""
        return self._values.get(var, default)

    def is_assigned(self, var: int) -> bool:
        """True if *var* has a concrete truth value."""
        return var in self._values

    def assigned_variables(self) -> tuple[int, ...]:
        """Sorted tuple of variables with concrete values."""
        return tuple(sorted(self._values))

    def flip(self, var: int) -> "Assignment":
        """Flip *var* in place and return self (for chaining).

        Raises:
            AssignmentError: if *var* is unassigned.
        """
        if var not in self._values:
            raise AssignmentError(f"cannot flip unassigned variable v{var}")
        self._values[var] = not self._values[var]
        return self

    def flipped(self, var: int) -> "Assignment":
        """Return a copy with *var* flipped."""
        return self.copy().flip(var)

    def unassign(self, var: int) -> "Assignment":
        """Remove *var* from the assignment (make it a don't-care)."""
        self._values.pop(var, None)
        return self

    def restricted_to(self, variables: Iterable[int]) -> "Assignment":
        """Copy keeping only the listed variables."""
        keep = set(variables)
        return Assignment({v: b for v, b in self._values.items() if v in keep})

    def merged_with(self, other: "Assignment") -> "Assignment":
        """Copy where *other*'s values override this assignment's values.

        This is the fast-EC "combine p and new solution p'" step.
        """
        merged = dict(self._values)
        merged.update(other._values)
        return Assignment(merged)

    def agreement_with(self, other: "Assignment") -> int:
        """Number of variables assigned identically in both assignments."""
        return sum(
            1
            for var, val in self._values.items()
            if other._values.get(var) is val
        )

    def agreement_fraction(self, other: "Assignment") -> float:
        """``agreement_with(other) / len(self)``; 1.0 for two empty maps."""
        if not self._values:
            return 1.0
        return self.agreement_with(other) / len(self._values)

    def to_literals(self) -> tuple[int, ...]:
        """Signed literal representation sorted by variable index."""
        return tuple(v if b else -v for v, b in sorted(self._values.items()))

    def as_dict(self) -> dict[int, bool]:
        """A plain dict copy of the mapping."""
        return dict(sorted(self._values.items()))

    def view(self) -> Mapping[int, bool]:
        """A read-only live view of the mapping, in insertion order (no
        copy): what array code reads the assignment through."""
        return MappingProxyType(self._values)

    def copy(self) -> "Assignment":
        """An independent copy (the mapping is valid already)."""
        return Assignment._wrap(self._values.copy())

    def __getitem__(self, var: int) -> bool:
        try:
            return self._values[var]
        except KeyError:
            raise AssignmentError(f"variable v{var} is unassigned") from None

    def __setitem__(self, var: int, value: bool) -> None:
        check_variable(var)
        if not isinstance(value, bool):
            raise AssignmentError(f"truth value for v{var} must be bool, got {value!r}")
        self._values[var] = value

    def __contains__(self, var: int) -> bool:
        return var in self._values

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        body = ", ".join(f"v{v}={int(b)}" for v, b in sorted(self._values.items()))
        return f"Assignment({{{body}}})"
