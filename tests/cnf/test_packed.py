"""The packed flat-array kernel: construction, sync, wire format, digests.

The load-bearing property is **incremental consistency**: a
:class:`PackedCNF` built once and maintained through a randomized EC
mutation chain must stay literally identical (arrays, variables, empty
count, fingerprint) to a kernel rebuilt from scratch off the mutated
formula — and fp-v2 must equal its from-scratch oracle after every edit.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cnf import packed as packed_mod
from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.cnf.packed import PackedCNF
from repro.engine.fingerprint import fingerprint_v2, fingerprint_v2_scratch
from repro.errors import CNFError


def raw_payload(clauses, declared) -> bytes:
    """A wire payload holding exactly these clause literals (unsorted,
    repeated, anything) and this variable declaration."""
    lits: list[int] = []
    offsets = [0]
    for cl in clauses:
        lits.extend(cl)
        offsets.append(len(lits))
    header = packed_mod._HEADER.pack(
        b"PCNF", 1, len(declared), len(clauses), len(lits)
    )
    return header + b"".join(
        array("i", part).tobytes() for part in (declared, offsets, lits)
    )


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
        payload = p.to_bytes()
        for blob in (payload, bytearray(payload), memoryview(payload)):
            q = PackedCNF.from_bytes(blob)
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
        # Every int32 difference of these offsets is non-negative once it
        # wraps (2**31 - 1, then -2**31 - 1 -> 2**31 - 1, then 6).
        wrapping = packed_mod._HEADER.pack(b"PCNF", 1, 4, 3, 4) + b"".join(
            array("i", part).tobytes()
            for part in ([1, 2, 3, 4], [0, 2**31 - 1, -2, 4], [1, 2, 3, 4])
        )
        with pytest.raises(CNFError, match="monotonic"):
            PackedCNF.from_bytes(wrapping)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 6) | st.integers(-(2**31), 2**31 - 1), max_size=6),
        st.integers(0, 6),
    )
    @example([2**31 - 1, -2], 4)
    def test_offset_index_decodes_exactly_when_monotonic(self, inner, nlits):
        """Any int32 offset index from 0 to the literal count decodes
        exactly when it never decreases (judged on Python ints, which
        cannot wrap), and then every clause spans its offsets."""
        offsets = [0, *inner, nlits]
        declared = list(range(1, nlits + 1))
        payload = packed_mod._HEADER.pack(
            b"PCNF", 1, nlits, len(offsets) - 1, nlits
        ) + b"".join(
            array("i", part).tobytes() for part in (declared, offsets, declared)
        )
        widths = [b - a for a, b in zip(offsets, offsets[1:])]
        if min(widths) < 0:
            with pytest.raises(CNFError, match="monotonic"):
                PackedCNF.from_bytes(payload)
            return
        kernel = PackedCNF.from_bytes(payload)
        assert [len(cl) for cl in kernel.iter_clauses()] == widths
        assert kernel.has_empty_clause() == (0 in widths)

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

    @pytest.mark.parametrize(
        "declared, error",
        [
            ([], "undeclared"),                    # none of 1-3 declared
            ([1, 2], "undeclared"),                # 3 left out
            ([1, 3, 2], "strictly increasing"),
            ([1, 2, 2, 3], "strictly increasing"),
            ([0, 1, 2, 3], "strictly increasing"),
            ([-4, 1, 2, 3], "strictly increasing"),
            # 3 -> -2**31 wraps to a positive int32 difference.
            ([1, 2, 3, -(2**31)], "strictly increasing"),
        ],
    )
    def test_malformed_variable_declaration_rejected(self, declared, error):
        with pytest.raises(CNFError, match=error):
            PackedCNF.from_bytes(raw_payload([[1, -2], [2, 3]], declared))

    def test_literal_naming_a_variable_past_int32_rejected(self):
        # -2**31 names variable 2**31, which no int32 declaration holds.
        with pytest.raises(CNFError, match="undeclared"):
            PackedCNF.from_bytes(raw_payload([[-(2**31), 1]], [1, 2**31 - 1]))

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
        _mutate_in_sync(f, f.packed(), rng)

    @pytest.mark.parametrize("chain_seed", range(8))
    def test_mutation_chain_after_a_memo_answer(self, chain_seed, fresh_fp_memo):
        """A kernel the fingerprint memo answered carries no digest state;
        edits after that must still track the oracle at every step."""
        rng = random.Random(chain_seed)
        base = random_ksat(rng.randint(4, 9), rng.randint(6, 25), k=3, rng=rng)
        payload = base.packed().to_bytes()
        PackedCNF.from_bytes(payload).fingerprint()        # seen once
        f = PackedCNF.from_bytes(payload).to_formula()
        p = f.packed()
        assert fingerprint_v2(f) == fingerprint_v2_scratch(f)
        assert p._digest_counts is None                    # a memo answer
        _mutate_in_sync(f, p, rng)


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_wire_round_trip_along_edit_chains(self, chain_seed):
        """Every kernel an edit chain reaches declares all its clause
        variables, strictly increasing, so ``from_bytes`` takes it back
        (``_mutate_in_sync`` round-trips the kernel after every edit)."""
        rng = random.Random(chain_seed)
        f = random_ksat(rng.randint(4, 9), rng.randint(6, 25), k=3, rng=rng)
        _mutate_in_sync(f, f.packed(), rng)


def _mutate_in_sync(f: CNFFormula, p: PackedCNF, rng: random.Random) -> None:
    """Run 30 random EC edits on *f*, checking its kernel *p* throughout:
    the fingerprint, the wire round trip, and the model check against the
    formula's, each after every edit."""
    for step in range(30):
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
        assert PackedCNF.from_bytes(p.to_bytes()) == p
        # A model of its own stream, so the edits stay those of the seed.
        coin = random.Random(step)
        model = Assignment({v: coin.random() < 0.5 for v in f.variables})
        assert p.is_satisfied(model) == f.is_satisfied(model)
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


class TestFingerprintMemo:
    """The process-wide fp-v2 memo keyed by the clause sequence."""

    def test_clause_boundaries_are_part_of_the_key(self, fresh_fp_memo):
        a = PackedCNF.from_clauses([[1, 2], [3]])
        b = PackedCNF.from_clauses([[1], [2, 3]])
        assert a.lits == b.lits                    # the same literal stream
        fa, fb = a.fingerprint(), b.fingerprint()
        assert fa != fb
        assert len(fresh_fp_memo) == 2
        assert PackedCNF.from_bytes(a.to_bytes()).fingerprint() == fa
        assert PackedCNF.from_bytes(b.to_bytes()).fingerprint() == fb

    def test_memo_keeps_the_newest_entries_up_to_its_bound(
        self, fresh_fp_memo, monkeypatch
    ):
        monkeypatch.setattr(packed_mod, "_FP_MEMO_MAX", 8)
        payloads = [
            random_ksat(6, 10 + i, k=3, rng=i).packed().to_bytes() for i in range(20)
        ]
        fps = [PackedCNF.from_bytes(b).fingerprint() for b in payloads]
        assert len(set(fps)) == 20
        assert list(fresh_fp_memo.values()) == fps[-8:]
        # An evicted kernel is recomputed from its digests, correctly.
        again = PackedCNF.from_bytes(payloads[0])
        assert again.fingerprint() == fps[0]
        assert again._digest_counts is not None
        assert fps[0] == fingerprint_v2_scratch(again.to_formula())
        assert list(fresh_fp_memo.values()) == fps[-7:] + fps[:1]

    def test_concurrent_decodes_agree_with_the_oracle(self, fresh_fp_memo, monkeypatch):
        """4 threads over 16 payloads, half seen before and half new, with a
        bound below the working set so evictions race the lock-free gets."""
        bound = 12
        monkeypatch.setattr(packed_mod, "_FP_MEMO_MAX", bound)
        formulas = [random_ksat(10, 30 + i, k=3, rng=100 + i) for i in range(16)]
        payloads = [f.packed().to_bytes() for f in formulas]
        oracle = [fingerprint_v2_scratch(f) for f in formulas]
        for payload in payloads[:8]:
            PackedCNF.from_bytes(payload).fingerprint()
        wrong: list[int] = []
        sizes: list[int] = []

        def worker(t: int) -> None:
            for i in range(200):
                j = (7 * t + i) % len(payloads)
                if PackedCNF.from_bytes(payloads[j]).fingerprint() != oracle[j]:
                    wrong.append(j)
                sizes.append(len(fresh_fp_memo))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []
        assert len(sizes) == 800 and max(sizes) <= bound


#: Literals over variables 1-6; a clause may be empty, tautological or
#: repeat a literal, in any order.
_LITERAL = st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v]))
_CLAUSES = st.lists(st.lists(_LITERAL, max_size=5), max_size=8)
#: Variables an assignment may hold: clause variables, variables no clause
#: uses, and ids past int32 and int64.
_ASSIGNABLE = [1, 2, 3, 4, 5, 6, 7, 11, 2**31 - 1, 2**31, 2**40, 2**63, 2**70]


@st.composite
def _assignments(draw):
    variables = draw(st.lists(st.sampled_from(_ASSIGNABLE), unique=True))
    values = draw(
        st.lists(st.booleans(), min_size=len(variables), max_size=len(variables))
    )
    return Assignment(dict(zip(variables, values)))


class TestKernelCheck:
    """``PackedCNF.is_satisfied`` against ``CNFFormula.is_satisfied``, and
    the array kernel's memory and buffer safety."""

    @settings(max_examples=300, deadline=None)
    @given(_CLAUSES, _assignments())
    @example([], Assignment())                              # no clauses
    @example([], Assignment({3: True}))
    @example([[1], []], Assignment({1: True}))              # an empty clause
    @example([[1, -1]], Assignment())                       # a tautology
    @example([[2, 1, 2], [2, 1, 2]], Assignment({1: False, 2: True}))
    @example([[1, 2]], Assignment({1: True, 2**70: False}))  # past int64
    @example([[1, 2]], Assignment({2**70: True, 2**64: True}))
    def test_agrees_with_the_formula(self, clauses, assignment):
        # A formula gets an empty clause only by eliminating a variable,
        # as an EC edit does: stand 99 in for each, then eliminate it.
        formula = CNFFormula(
            [Clause(cl or [99], allow_tautology=True) for cl in clauses]
        )
        if [] in clauses:
            formula.remove_variable(99)
        expected = formula.is_satisfied(assignment)
        assert formula.packed().is_satisfied(assignment) is expected
        # The wire keeps literals as sent: repeats and any order.
        declared = sorted({abs(lit) for cl in clauses for lit in cl})
        sent = PackedCNF.from_bytes(raw_payload(clauses, declared))
        assert sent.is_satisfied(assignment) is expected

    def test_variable_2_31_minus_1_allocates_no_table(self):
        big = 2**31 - 1
        payload = PackedCNF.from_clauses([[1, -big], [2, big]]).to_bytes()
        models = (Assignment({1: True, big: True}), Assignment({1: False, big: True}))
        tracemalloc.start()
        try:
            kernel = PackedCNF.from_bytes(payload)
            verdicts = [kernel.is_satisfied(m) for m in models]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdicts == [True, False]
        assert peak < 1 << 20

    def test_the_largest_literal_is_not_mistaken_for_the_end(self):
        big = 2**31 - 1
        kernel = PackedCNF.from_bytes(PackedCNF.from_clauses([[big]]).to_bytes())
        assert kernel.is_satisfied(Assignment({big: True})) is True
        assert kernel.is_satisfied(Assignment({big: False})) is False
        assert kernel.is_satisfied(Assignment()) is False

    def test_edits_after_a_check_meet_no_locked_buffer(self, monkeypatch):
        kernel = PackedCNF.from_clauses([[1, 2], [-1, 3]])
        model = Assignment({1: True, 3: True})
        assert kernel.is_satisfied(model)
        kernel.append_clause((-3,))
        assert not kernel.is_satisfied(model)
        kernel.remove_clause_at(2)
        kernel.eliminate_variable(2)
        assert kernel.is_satisfied(model)

        # A check that raises keeps its frame alive in the traceback: even
        # then no array of the kernel may stay exported.
        def fail(assignment):
            raise RuntimeError("mid-check")

        monkeypatch.setattr(packed_mod, "_true_literals", fail)
        with pytest.raises(RuntimeError) as raised:
            kernel.is_satisfied(model)
        kernel.append_clause((-1, 3))
        kernel.remove_clause_at(0)
        assert raised.traceback                     # still holds the frame
