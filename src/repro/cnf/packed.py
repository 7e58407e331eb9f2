"""Flat-array CNF kernel: MiniSat-style packed clause storage.

Object-graph formulas (:class:`~repro.cnf.formula.CNFFormula` holding
:class:`~repro.cnf.clause.Clause` instances) are the right representation
for *editing* — stable variable ids, hashable clauses, per-clause
provenance — but the wrong one for *hot paths*: every solver entry
re-flattens the clauses into int lists, every portfolio race pickles the
whole object graph into each worker, and every fingerprint re-sorts and
re-hashes the clause set from scratch.

:class:`PackedCNF` is the flat kernel those paths consume instead:

* all clause literals live in one contiguous ``array('i')`` of DIMACS
  literals (``lits``), with a clause-offset index (``offsets``; clause
  *i* spans ``lits[offsets[i]:offsets[i + 1]]``) — the same layout the
  CDCL watcher scheme already assumes internally;
* it is built **once** per formula (``CNFFormula.packed()`` caches it)
  and **incrementally maintained** under the paper's EC edit primitives
  (add/remove clause, add/eliminate variable) instead of rebuilt;
* :meth:`to_bytes` / :meth:`from_bytes` give a compact wire format so
  portfolio workers receive raw array bytes, not a pickled object graph;
* an order-independent running combine of per-clause digests
  (deduplicated, so clause order and multiplicity never matter) powers
  the incremental ``fp-v2`` fingerprint in O(changed clauses) per edit.

Invariants (relied on throughout): each clause's literals are
duplicate-free and sorted by ``(variable, polarity)`` exactly as
:class:`Clause` normalizes them, so a tautology shows up as two adjacent
literals of the same variable; the active variable set is tracked
explicitly (free variables survive clause removal, matching the
formula's stable-identifier semantics).

Wire format (version 1, all integers little-endian)::

    magic   b"PCNF"                      4 bytes
    version u8 (= 1)                     1 byte
    counts  u64 x 3                      number of variables / clauses / literals
    vars    i32 x num_vars               sorted active variable ids
    offsets i32 x (num_clauses + 1)      clause start offsets (offsets[0] = 0)
    lits    i32 x num_lits               DIMACS literals, clause-major

Literals must fit in a signed 32-bit int (every DIMACS tool shares this
bound).
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import CNFError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cnf.assignment import Assignment
    from repro.cnf.formula import CNFFormula

#: Wire-format magic and version (see the module docstring).
_MAGIC = b"PCNF"
_WIRE_VERSION = 1
_HEADER = struct.Struct("<4sBQQQ")

#: Version tag mixed into every fp-v2 digest so a future normalization
#: change invalidates old fingerprints instead of colliding with them.
FP2_VERSION = b"repro-cnf-fp-v2"

#: Width of the additive digest combine, in bytes.  An order-independent
#: sum (AdHash-style incremental hashing) is *weaker* than the underlying
#: hash against engineered collisions: Wagner's generalized-birthday
#: attack finds k clauses whose digests sum to a target in roughly
#: ``2**(bits / (1 + log2 k))`` work, which for a 256-bit sum would be
#: far below the hash's own collision bound.  A 2048-bit modulus keeps
#: per-edit updates O(1) (one big-int add) while pushing that attack
#: past ~2**100 work for any plausible clause count.
_DIGEST_BYTES = 256
_DIGEST_MOD = 1 << (8 * _DIGEST_BYTES)


def clause_digest(lits: tuple[int, ...]) -> int:
    """The order-combinable 2048-bit digest of one normalized clause."""
    h = hashlib.shake_256(b"cl|")
    h.update(",".join(map(str, lits)).encode("ascii"))
    return int.from_bytes(h.digest(_DIGEST_BYTES), "big")


class PackedCNF:
    """A CNF formula as flat literal/offset arrays plus an active-var set.

    Build one with :meth:`from_formula` / :meth:`from_clauses` /
    :meth:`from_bytes`; mutate it only through the EC edit methods
    (:meth:`append_clause`, :meth:`remove_clause_at`,
    :meth:`eliminate_variable`, :meth:`add_variable`) so the offset
    index, empty-clause count, and digest state stay consistent.
    """

    __slots__ = (
        "lits",
        "offsets",
        "_varset",
        "_vars_sorted",
        "_num_empty",
        "_digest_counts",
        "_digest_sum",
    )

    def __init__(self) -> None:
        self.lits: array = array("i")
        self.offsets: array = array("i", [0])
        self._varset: set[int] = set()
        self._vars_sorted: tuple[int, ...] | None = ()
        self._num_empty: int = 0
        # Digest state is lazy: solve-only consumers never pay for it.
        # Once initialized it is maintained incrementally by every edit.
        self._digest_counts: dict[tuple[int, ...], int] | None = None
        self._digest_sum: int = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_formula(cls, formula: "CNFFormula") -> "PackedCNF":
        """Pack *formula* (clauses are already normalized by ``Clause``)."""
        out = cls()
        lits, offsets = out.lits, out.offsets
        empties = 0
        for cl in formula.clauses:
            cl_lits = cl.literals
            lits.extend(cl_lits)
            offsets.append(len(lits))
            if not cl_lits:
                empties += 1
        out._varset = set(formula.variables)
        out._vars_sorted = None
        out._num_empty = empties
        return out

    @classmethod
    def from_clauses(
        cls,
        clauses: Iterable[Iterable[int]],
        variables: Iterable[int] = (),
    ) -> "PackedCNF":
        """Pack raw literal iterables, normalizing each clause.

        Args:
            clauses: iterables of non-zero DIMACS literals (duplicates
                within a clause are dropped; tautologies are kept).
            variables: extra active variables beyond those occurring in
                the clauses (free / don't-care variables).
        """
        out = cls()
        for cl in clauses:
            norm = sorted({int(l) for l in cl}, key=lambda l: (abs(l), l < 0))
            if any(l == 0 for l in norm):
                raise CNFError("0 is not a valid literal")
            out.append_clause(norm)
        for v in variables:
            out._varset.add(int(v))
        out._vars_sorted = None
        return out

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_clauses(self) -> int:
        """Number of clauses (duplicates counted)."""
        return len(self.offsets) - 1

    @property
    def num_literals(self) -> int:
        """Total number of stored literals."""
        return len(self.lits)

    @property
    def variables(self) -> tuple[int, ...]:
        """Sorted tuple of active variable ids (cached)."""
        if self._vars_sorted is None:
            self._vars_sorted = tuple(sorted(self._varset))
        return self._vars_sorted

    @property
    def num_vars(self) -> int:
        """Number of active variables."""
        return len(self._varset)

    @property
    def max_var(self) -> int:
        """Largest active variable id (0 when there are none)."""
        return max(self._varset, default=0)

    def clause_bounds(self, index: int) -> tuple[int, int]:
        """The ``(start, end)`` span of clause *index* in :attr:`lits`."""
        return self.offsets[index], self.offsets[index + 1]

    def clause_literals(self, index: int) -> tuple[int, ...]:
        """The literal tuple of clause *index* (allocates; not a hot path)."""
        start, end = self.offsets[index], self.offsets[index + 1]
        return tuple(self.lits[start:end])

    def iter_clauses(self) -> Iterator[tuple[int, ...]]:
        """Yield every clause as a literal tuple (tests / conversion)."""
        for i in range(self.num_clauses):
            yield self.clause_literals(i)

    def has_empty_clause(self) -> bool:
        """True when some clause has no literals (trivially UNSAT)."""
        return self._num_empty > 0

    def is_tautology_at(self, index: int) -> bool:
        """True when clause *index* contains a variable in both polarities.

        Clause literals are sorted by ``(variable, polarity)``, so a
        tautological pair is always adjacent.
        """
        lits = self.lits
        start, end = self.offsets[index], self.offsets[index + 1]
        for k in range(start, end - 1):
            if lits[k] == -lits[k + 1]:
                return True
        return False

    def is_satisfied(self, assignment: "Assignment") -> bool:
        """True if every clause has at least one true literal.

        Mirrors ``CNFFormula.is_satisfied`` over the flat arrays so packed
        solver outcomes can be verified without materializing clauses.
        """
        lits, offsets = self.lits, self.offsets
        get = assignment.get
        for ci in range(len(offsets) - 1):
            for k in range(offsets[ci], offsets[ci + 1]):
                lit = lits[k]
                value = get(abs(lit))
                if value is not None and (value if lit > 0 else not value):
                    break
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # EC edit primitives (keep arrays, empties, and digests in sync)
    # ------------------------------------------------------------------
    def append_clause(self, lits: Iterable[int]) -> None:
        """Append one normalized clause; its variables become active."""
        norm = tuple(lits)
        self.lits.extend(norm)
        self.offsets.append(len(self.lits))
        if not norm:
            self._num_empty += 1
        for l in norm:
            v = abs(l)
            if v not in self._varset:
                self._varset.add(v)
                self._vars_sorted = None
        if self._digest_counts is not None:
            self._digest_add(norm)

    def remove_clause_at(self, index: int) -> None:
        """Remove clause *index* (variables stay active, as in the formula)."""
        if not 0 <= index < self.num_clauses:
            raise CNFError(f"no clause at index {index}")
        start, end = self.offsets[index], self.offsets[index + 1]
        width = end - start
        removed = tuple(self.lits[start:end]) if self._digest_counts is not None else None
        if width == 0:
            self._num_empty -= 1
        del self.lits[start:end]
        del self.offsets[index + 1]
        if width:
            offsets = self.offsets
            for j in range(index + 1, len(offsets)):
                offsets[j] -= width
        if removed is not None:
            self._digest_discard(removed)

    def add_variable(self, var: int) -> None:
        """Activate *var* (a loosening change; no clause is touched)."""
        if var not in self._varset:
            self._varset.add(var)
            self._vars_sorted = None

    def eliminate_variable(self, var: int) -> int:
        """Strip every literal of *var* and deactivate it.

        Clauses keep their positions; ones reduced to zero literals are
        counted as empty (the instance becomes trivially UNSAT), matching
        ``CNFFormula.remove_variable``.  Returns the number of clauses
        shortened.
        """
        lits, offsets = self.lits, self.offsets
        new_lits = array("i")
        new_offsets = array("i", [0])
        digests = self._digest_counts is not None
        touched = 0
        for ci in range(len(offsets) - 1):
            start, end = offsets[ci], offsets[ci + 1]
            kept_from = len(new_lits)
            hit = False
            for k in range(start, end):
                lit = lits[k]
                if abs(lit) == var:
                    hit = True
                else:
                    new_lits.append(lit)
            new_offsets.append(len(new_lits))
            if hit:
                touched += 1
                if len(new_lits) == kept_from:
                    self._num_empty += 1
                if digests:
                    self._digest_discard(tuple(lits[start:end]))
                    self._digest_add(tuple(new_lits[kept_from:]))
        self.lits = new_lits
        self.offsets = new_offsets
        self._varset.discard(var)
        self._vars_sorted = None
        return touched

    # ------------------------------------------------------------------
    # incremental fp-v2 digest state
    # ------------------------------------------------------------------
    def _init_digests(self) -> None:
        counts: dict[tuple[int, ...], int] = {}
        total = 0
        for cl in self.iter_clauses():
            n = counts.get(cl, 0)
            counts[cl] = n + 1
            if n == 0:
                total = (total + clause_digest(cl)) % _DIGEST_MOD
        self._digest_counts = counts
        self._digest_sum = total

    def _digest_add(self, key: tuple[int, ...]) -> None:
        counts = self._digest_counts
        n = counts.get(key, 0)
        counts[key] = n + 1
        if n == 0:
            self._digest_sum = (self._digest_sum + clause_digest(key)) % _DIGEST_MOD

    def _digest_discard(self, key: tuple[int, ...]) -> None:
        counts = self._digest_counts
        n = counts[key]
        if n == 1:
            del counts[key]
            self._digest_sum = (self._digest_sum - clause_digest(key)) % _DIGEST_MOD
        else:
            counts[key] = n - 1

    def fingerprint(self) -> str:
        """Hex fp-v2 fingerprint of the deduplicated clause set.

        The first call initializes the per-clause digest state in
        O(clauses); every EC edit afterwards maintains it in O(changed
        clauses), so re-fingerprinting along a change chain is O(1) per
        query.  Clause order, clause multiplicity, and free variables
        never matter, and the empty clause is distinguished.
        """
        if self._digest_counts is None:
            self._init_digests()
        h = hashlib.sha256(FP2_VERSION)
        h.update(len(self._digest_counts).to_bytes(8, "big"))
        h.update(self._digest_sum.to_bytes(_DIGEST_BYTES, "big"))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # copies and conversions
    # ------------------------------------------------------------------
    def copy(self) -> "PackedCNF":
        """An independent copy (array slicing + dict copy — all C-speed)."""
        out = PackedCNF()
        out.lits = array("i", self.lits)
        out.offsets = array("i", self.offsets)
        out._varset = set(self._varset)
        out._vars_sorted = self._vars_sorted
        out._num_empty = self._num_empty
        if self._digest_counts is not None:
            out._digest_counts = dict(self._digest_counts)
            out._digest_sum = self._digest_sum
        return out

    def to_formula(self) -> "CNFFormula":
        """Materialize a :class:`CNFFormula` for the consumers that need
        clause objects: brute force, the set-cover ILP route, and a
        session opened from wire bytes.  The packed kernel of the result
        is this object's copy, so converting back is free."""
        from repro.cnf.clause import Clause
        from repro.cnf.formula import CNFFormula

        out = CNFFormula()
        out._clauses = [
            Clause(cl, allow_tautology=True) for cl in self.iter_clauses()
        ]
        out._variables = set(self._varset)
        out._packed = self.copy()
        return out

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the compact wire format (see module docstring)."""
        variables = array("i", self.variables)
        header = _HEADER.pack(
            _MAGIC, _WIRE_VERSION, len(variables), self.num_clauses, len(self.lits)
        )
        parts = [header, variables.tobytes(), self.offsets.tobytes(), self.lits.tobytes()]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PackedCNF":
        """Deserialize a :meth:`to_bytes` payload.

        Raises:
            CNFError: on a bad magic, version, length or offset index, or
                a 0 literal (unsorted or repeated literals are accepted).
        """
        if len(payload) < _HEADER.size:
            raise CNFError("packed CNF payload truncated (no header)")
        magic, version, nvars, nclauses, nlits = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise CNFError(f"bad packed CNF magic {magic!r}")
        if version != _WIRE_VERSION:
            raise CNFError(f"unsupported packed CNF version {version}")
        item = array("i").itemsize
        expected = _HEADER.size + item * (nvars + nclauses + 1 + nlits)
        if len(payload) != expected:
            raise CNFError(
                f"packed CNF payload is {len(payload)} bytes, expected {expected}"
            )
        out = cls()
        pos = _HEADER.size
        variables = array("i")
        variables.frombytes(payload[pos : pos + item * nvars])
        pos += item * nvars
        offsets = array("i")
        offsets.frombytes(payload[pos : pos + item * (nclauses + 1)])
        pos += item * (nclauses + 1)
        lits = array("i")
        lits.frombytes(payload[pos:])
        # The offset index must be internally consistent, not just the
        # right length: solvers trust these spans blindly, and a mangled
        # clause set could otherwise produce a silently wrong (trusted,
        # never model-verified) UNSAT verdict instead of a parse error.
        if offsets[0] != 0 or offsets[-1] != nlits:
            raise CNFError(
                "packed CNF offsets inconsistent with the literal count"
            )
        if 0 in lits:
            raise CNFError("packed CNF payload holds the literal 0")
        empties = 0
        for i in range(nclauses):
            if offsets[i] > offsets[i + 1]:
                raise CNFError("packed CNF clause offsets are not monotonic")
            if offsets[i] == offsets[i + 1]:
                empties += 1
        out.lits = lits
        out.offsets = offsets
        out._varset = set(variables)
        out._vars_sorted = tuple(variables)
        out._num_empty = empties
        return out

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_clauses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedCNF):
            return NotImplemented
        return (
            self.lits == other.lits
            and self.offsets == other.offsets
            and self._varset == other._varset
        )

    def __repr__(self) -> str:
        return (
            f"PackedCNF(num_vars={self.num_vars}, "
            f"num_clauses={self.num_clauses}, num_literals={self.num_literals})"
        )
