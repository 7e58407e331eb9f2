"""The packed flat-array kernel: construction, sync, wire format, digests.

The load-bearing property is **incremental consistency**: a
:class:`PackedCNF` built once and maintained through a randomized EC
mutation chain must stay literally identical (arrays, variables, empty
count, fingerprint) to a kernel rebuilt from scratch off the mutated
formula — and fp-v2 must equal its from-scratch oracle after every edit.
"""

from __future__ import annotations

import random

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.packed import PackedCNF
from repro.engine.fingerprint import fingerprint_v2, fingerprint_v2_scratch
from repro.errors import CNFError


def assert_in_sync(formula: CNFFormula, packed: PackedCNF) -> None:
    """The incrementally maintained kernel equals a from-scratch rebuild."""
    rebuilt = PackedCNF.from_formula(formula)
    assert packed.lits == rebuilt.lits
    assert packed.offsets == rebuilt.offsets
    assert packed.variables == rebuilt.variables
    assert packed.has_empty_clause() == rebuilt.has_empty_clause()
    assert packed.fingerprint() == rebuilt.fingerprint()


class TestConstruction:
    def test_from_formula_layout(self):
        f = CNFFormula([[1, -2], [3], [-1, 2, -3]])
        p = PackedCNF.from_formula(f)
        assert p.num_clauses == 3
        assert list(p.offsets) == [0, 2, 3, 6]
        assert p.clause_literals(0) == (1, -2)
        assert p.clause_literals(1) == (3,)
        assert p.clause_literals(2) == (-1, 2, -3)
        assert p.variables == (1, 2, 3)

    def test_free_variables_carried(self):
        f = CNFFormula([[1, 2]], num_vars=5)
        p = PackedCNF.from_formula(f)
        assert p.variables == (1, 2, 3, 4, 5)

    def test_from_clauses_normalizes(self):
        p = PackedCNF.from_clauses([[2, -1, 2]])
        assert p.clause_literals(0) == (-1, 2)

    def test_to_formula_round_trip(self):
        f = random_ksat(8, 30, k=3, rng=1)
        g = PackedCNF.from_formula(f).to_formula()
        assert f == g

    def test_tautology_detection(self):
        p = PackedCNF.from_clauses([[1, -1, 2], [1, 2]])
        assert p.is_tautology_at(0) and not p.is_tautology_at(1)

    def test_is_satisfied_matches_formula(self):
        f = random_ksat(6, 20, k=3, rng=2)
        p = PackedCNF.from_formula(f)
        for seed in range(10):
            rng = random.Random(seed)
            a = Assignment({v: bool(rng.getrandbits(1)) for v in f.variables})
            assert p.is_satisfied(a) == f.is_satisfied(a)


class TestWireFormat:
    def test_round_trip(self):
        f = random_ksat(10, 40, k=3, rng=3)
        f.add_variable()                           # a free variable
        p = f.packed()
        q = PackedCNF.from_bytes(p.to_bytes())
        assert q == p
        assert q.variables == p.variables
        assert list(q.iter_clauses()) == list(p.iter_clauses())

    def test_round_trip_preserves_empty_clause(self):
        f = CNFFormula([[1], [1, 2]])
        f.remove_variable(1)                       # first clause empties
        q = PackedCNF.from_bytes(f.packed().to_bytes())
        assert q.has_empty_clause()

    def test_bad_magic_rejected(self):
        with pytest.raises(CNFError, match="magic|truncated"):
            PackedCNF.from_bytes(b"XXXX" + bytes(32))

    def test_truncated_rejected(self):
        payload = PackedCNF.from_formula(CNFFormula([[1, 2]])).to_bytes()
        with pytest.raises(CNFError, match="bytes|truncated"):
            PackedCNF.from_bytes(payload[:-2])

    def test_inconsistent_offsets_rejected(self):
        from array import array

        p = PackedCNF.from_formula(CNFFormula([[1, 2], [2, 3]]))
        good = p.to_bytes()
        # Corrupt the offset index in place: right length, wrong content.
        item = array("i").itemsize
        offsets_at = len(good) - item * (p.num_clauses + 1 + p.num_literals)
        mangled = bytearray(good)
        mangled[offsets_at : offsets_at + item] = array("i", [1]).tobytes()
        with pytest.raises(CNFError, match="offsets"):
            PackedCNF.from_bytes(bytes(mangled))

    def test_non_monotonic_offsets_rejected(self):
        from array import array

        p = PackedCNF.from_formula(CNFFormula([[1, 2], [2, 3]]))
        good = p.to_bytes()
        item = array("i").itemsize
        offsets_at = len(good) - item * (p.num_clauses + 1 + p.num_literals)
        mangled = bytearray(good)
        middle = offsets_at + item                   # offsets[1]: 2 -> 5 (> offsets[2] = 4)
        mangled[middle : middle + item] = array("i", [5]).tobytes()
        with pytest.raises(CNFError, match="monotonic"):
            PackedCNF.from_bytes(bytes(mangled))

    def test_zero_literal_rejected(self):
        from array import array

        good = PackedCNF.from_formula(CNFFormula([[1, 2], [2, 3]])).to_bytes()
        mangled = bytearray(good)
        item = array("i").itemsize
        mangled[-item:] = array("i", [0]).tobytes()  # last literal: 3 -> 0
        with pytest.raises(CNFError, match="literal 0"):
            PackedCNF.from_bytes(bytes(mangled))

    def test_unsorted_and_repeated_literals_accepted(self):
        from array import array

        good = PackedCNF.from_formula(CNFFormula([[1, 2], [2, 3]])).to_bytes()
        mangled = bytearray(good)
        item = array("i").itemsize
        mangled[-4 * item:] = array("i", [2, 1, 3, 3]).tobytes()
        assert list(PackedCNF.from_bytes(bytes(mangled)).lits) == [2, 1, 3, 3]

    def test_empty_formula_round_trip(self):
        q = PackedCNF.from_bytes(PackedCNF.from_formula(CNFFormula()).to_bytes())
        assert q.num_clauses == 0 and q.num_vars == 0

    def test_fingerprint_survives_wire(self):
        f = random_ksat(9, 35, k=3, rng=4)
        p = f.packed()
        assert PackedCNF.from_bytes(p.to_bytes()).fingerprint() == p.fingerprint()


class TestIncrementalMaintenance:
    def test_add_clause_maintains(self):
        f = CNFFormula([[1, 2]])
        p = f.packed()
        f.add_clause([2, -3])
        assert p is f.packed()                     # maintained, not rebuilt
        assert_in_sync(f, p)

    def test_remove_clause_maintains(self):
        f = CNFFormula([[1, 2], [2, 3], [1, 2]])
        p = f.packed()
        f.remove_clause([2, 3])
        assert_in_sync(f, p)

    def test_remove_clause_at_negative_index(self):
        f = CNFFormula([[1, 2], [2, 3], [-1, 3]])
        p = f.packed()
        f.remove_clause_at(-2)
        assert_in_sync(f, p)

    def test_remove_variable_maintains(self):
        f = CNFFormula([[1, 2], [2, 3], [-2, -3], [1, 3]])
        p = f.packed()
        f.remove_variable(3)
        assert_in_sync(f, p)

    def test_elimination_to_empty_clause_tracked(self):
        f = CNFFormula([[1], [1, 2]])
        p = f.packed()
        f.remove_variable(1)
        assert p.has_empty_clause()
        assert_in_sync(f, p)

    def test_copy_is_independent(self):
        f = CNFFormula([[1, 2], [2, 3]])
        f.packed()
        g = f.copy()
        g.add_clause([-1, -3])
        assert f.packed().num_clauses == 2
        assert g.packed().num_clauses == 3
        assert_in_sync(f, f.packed())
        assert_in_sync(g, g.packed())

    @pytest.mark.parametrize("chain_seed", range(8))
    def test_randomized_mutation_chain_stays_in_sync(self, chain_seed):
        """The kernel tracks add/remove clause + add/eliminate variable."""
        rng = random.Random(chain_seed)
        f = random_ksat(rng.randint(4, 9), rng.randint(6, 25), k=3, rng=rng)
        p = f.packed()
        for _ in range(30):
            op = rng.randrange(4)
            if op == 0:
                vs = rng.sample(list(f.variables), k=min(3, f.num_vars))
                f.add_clause(Clause(v if rng.random() < 0.5 else -v for v in vs))
            elif op == 1 and f.num_clauses > 1:
                f.remove_clause_at(rng.randrange(f.num_clauses))
            elif op == 2:
                f.add_variable()
            elif op == 3 and f.num_vars > 2:
                victim = rng.choice(list(f.variables))
                try:
                    f.remove_variable(victim)
                except Exception:  # pragma: no cover - never empties here
                    raise
            assert p is f.packed()
            # fp-v2 incremental state equals the from-scratch oracle at
            # *every* step, not just at the end.
            assert fingerprint_v2(f) == fingerprint_v2_scratch(f)
        assert_in_sync(f, p)


class TestFingerprintV2:
    def test_clause_order_invariant(self):
        a = CNFFormula([[1, 2], [2, 3], [-1, 3]])
        b = CNFFormula([[-1, 3], [1, 2], [2, 3]])
        assert fingerprint_v2(a) == fingerprint_v2(b)

    def test_duplicate_invariant(self):
        a = CNFFormula([[1, 2], [2, 3]])
        b = CNFFormula([[1, 2], [2, 3], [1, 2], [1, 2]])
        assert fingerprint_v2(a) == fingerprint_v2(b)

    def test_free_variables_excluded(self):
        assert fingerprint_v2(CNFFormula([[1, 2]])) == fingerprint_v2(
            CNFFormula([[1, 2]], num_vars=7)
        )

    def test_content_sensitivity(self):
        assert fingerprint_v2(CNFFormula([[1, 2]])) != fingerprint_v2(
            CNFFormula([[1, -2]])
        )

    def test_empty_clause_distinguished(self):
        plain = CNFFormula([[1, 2]])
        emptied = CNFFormula([[3], [1, 2]])
        emptied.remove_variable(3)
        assert fingerprint_v2(plain) != fingerprint_v2(emptied)

    def test_dedup_then_removal_of_one_duplicate(self):
        """Removing one of two identical clauses must not drop the digest."""
        f = CNFFormula([[1, 2], [1, 2], [2, 3]])
        fp_before = fingerprint_v2(f)
        f.remove_clause([1, 2])
        assert fingerprint_v2(f) == fp_before          # one copy remains
        assert fingerprint_v2(f) == fingerprint_v2_scratch(f)
        f.remove_clause([1, 2])
        assert fingerprint_v2(f) != fp_before          # now really gone
        assert fingerprint_v2(f) == fingerprint_v2_scratch(f)
