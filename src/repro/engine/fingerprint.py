"""Canonical, content-addressed CNF formula fingerprints (fp-v2).

The solution cache must recognize "the same instance" across sessions,
clause reorderings, literal reorderings, and duplicated clauses — all of
which are artifacts of how a formula was built, not of what it means.  The
fingerprint therefore digests the *normalized clause set*:

* each clause contributes its literal tuple (already deduplicated and
  order-normalized by :class:`~repro.cnf.clause.Clause`);
* the clause collection is deduplicated, and the per-clause digests are
  combined order-independently, so neither clause order nor
  multiplicity matters;
* free variables (active but occurring in no clause) are excluded: they
  are don't-cares and cannot affect satisfiability, which also makes the
  fingerprint stable under the DIMACS round-trip (the format cannot
  express gaps in the variable range).

Two formulas with equal fingerprints are satisfied by exactly the same
assignments over their clause variables, so a cached model for one is a
model for the other.

fp-v2 is a 2048-bit modular sum of per-clause SHAKE-256 digests (see
:mod:`repro.cnf.packed` for the collision-resistance rationale),
maintained *incrementally* by the formula's packed kernel: each EC edit
updates the running digest in O(changed clauses), so re-fingerprinting
along a change chain is O(1) per query.  A kernel with no digest state
yet first asks a bounded process-wide memo keyed by a SHA-256 of its
clause sequence, so a repeated wire request (or the router's key for
it) costs one C-level hash instead of one digest per clause; the memo
never changes a value.  :func:`fingerprint_v2_scratch`
recomputes it from the clause objects — the incremental path's oracle
and the from-scratch baseline of ``repro bench engine``.  The digest is
tagged with its version, so a future normalization change invalidates
old (e.g. disk-cached) fingerprints instead of colliding with them.
"""

from __future__ import annotations

import hashlib

from repro.cnf.formula import CNFFormula
from repro.cnf.packed import FP2_VERSION, _DIGEST_BYTES, _DIGEST_MOD, clause_digest


def fingerprint_v2(formula: CNFFormula) -> str:
    """Hex fp-v2 fingerprint, served from the incremental digest state.

    The first call on a formula builds the packed kernel's per-clause
    digest multiset in O(clauses); afterwards every EC edit maintains it
    in O(changed clauses), so a change chain pays O(1) per re-query.

    Invariants (property-tested in ``tests/engine/test_fingerprint.py``
    against :func:`fingerprint_v2_scratch`):

    * permuting clauses or literals never changes the fingerprint;
    * duplicate clauses never change the fingerprint;
    * ``fingerprint_v2(parse_dimacs(to_dimacs(f))) == fingerprint_v2(f)``.
    """
    return formula.packed().fingerprint()


def fingerprint_v2_scratch(formula: CNFFormula) -> str:
    """fp-v2 recomputed from scratch — the incremental path's oracle."""
    distinct = {cl.literals for cl in formula.clauses}
    total = 0
    for lits in distinct:
        total = (total + clause_digest(lits)) % _DIGEST_MOD
    h = hashlib.sha256(FP2_VERSION)
    h.update(len(distinct).to_bytes(8, "big"))
    h.update(total.to_bytes(_DIGEST_BYTES, "big"))
    return h.hexdigest()
