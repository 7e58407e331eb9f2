"""Fast-lane perf smoke: the packed path must not regress the object path.

Not a benchmark — a guard.  The packed entry points exist to make the
hot paths cheaper, so the CI-size DIMACS families must solve off a
prebuilt kernel at least as fast as from a cold object graph (which
pays the same solve *plus* kernel construction), within a generous noise
margin, and the wire transport must stay cheaper than pickling the
object graph.  A repeated wire request must digest each clause once,
not once per decode, and a wire cache hit must read and copy its model
with no per-variable Python call (counts, so they cannot flake on a slow
host).  The full comparison with real numbers lives in ``repro bench engine``
(experiment 6, nightly lane).
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.bench.registry import load_instance
from repro.cnf import assignment as assignment_mod
from repro.cnf import packed as packed_mod
from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.engine.adapters import CDCLAdapter
from repro.engine.config import EngineConfig
from repro.service.requests import SolveRequest
from repro.service.service import SolverService

#: CI-tier families the smoke test covers (kept tiny: two rows, one solver).
_FAMILIES = ("par8-1-c", "ii8a1")

#: The packed path may be at most this much slower than the object path
#: before the smoke test fails.  Both sides are sub-millisecond at CI
#: sizes, so a single scheduler hiccup can invert them; the margin only
#: needs to catch a real structural regression (an accidental re-pack or
#: copy in the hot path shows up as 2x+), while exact behavioral parity
#: is asserted separately on the solvers' deterministic work counters.
_NOISE_MARGIN = 3.0


def _best_of(n: int, fn, *args, **kwargs) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("name", _FAMILIES)
def test_packed_and_object_paths_do_identical_work(name):
    """The flake-proof parity check: identical deterministic search.

    The object entry point is a thin wrapper over the packed core, so
    with the same seed both paths must take the *same* decisions and hit
    the same conflicts — a counter mismatch means the paths diverged
    (a re-pack bug, a clause-order change), with zero timing noise.
    """
    from repro.sat.cdcl import cdcl_solve, cdcl_solve_packed

    inst = load_instance(name, "ci")
    obj = cdcl_solve(CNFFormula(inst.formula.clauses), seed=0)
    pak = cdcl_solve_packed(inst.formula.packed(), seed=0)
    assert obj.satisfiable is pak.satisfiable is True
    assert (obj.decisions, obj.propagations, obj.conflicts) == (
        pak.decisions, pak.propagations, pak.conflicts,
    )
    assert obj.assignment.as_dict() == pak.assignment.as_dict()


@pytest.mark.parametrize("name", _FAMILIES)
def test_packed_solve_no_regression_vs_object(name):
    inst = load_instance(name, "ci")
    packed = inst.formula.packed()
    adapter = CDCLAdapter()

    verdicts = set()
    # One cold formula per round (built outside the timer), packed inside
    # every timed call the way the object path pays it.
    colds = [CNFFormula(inst.formula.clauses) for _ in range(3)]

    def solve_cold():
        verdicts.add(adapter.solve_packed(colds.pop().packed(), seed=0).status)

    def solve_packed():
        verdicts.add(adapter.solve_packed(packed, seed=0).status)

    t_object = _best_of(3, solve_cold)
    t_packed = _best_of(3, solve_packed)

    assert verdicts == {"sat"}, f"{name}: paths disagree ({verdicts})"
    assert t_packed <= t_object * _NOISE_MARGIN, (
        f"{name}: packed path regressed — {t_packed * 1e3:.2f}ms packed vs "
        f"{t_object * 1e3:.2f}ms object"
    )


@pytest.mark.parametrize("name", _FAMILIES)
def test_wire_transport_cheaper_than_pickle(name):
    inst = load_instance(name, "ci")
    cold = CNFFormula(inst.formula.clauses)
    packed = inst.formula.packed()

    payload = packed.to_bytes()
    blob = pickle.dumps(cold)
    assert len(payload) < len(blob), (
        f"{name}: wire payload ({len(payload)}B) not smaller than the "
        f"pickled object graph ({len(blob)}B)"
    )

    # The true ratio is ~10x in pickle's disfavour; the noise margin only
    # absorbs scheduler hiccups on microsecond-scale timings.
    t_pickle = _best_of(3, lambda: pickle.loads(pickle.dumps(cold)))
    t_wire = _best_of(3, lambda: PackedCNF.from_bytes(packed.to_bytes()))
    assert t_wire <= t_pickle * _NOISE_MARGIN, (
        f"{name}: wire round trip ({t_wire * 1e6:.0f}us) slower than "
        f"pickle round trip ({t_pickle * 1e6:.0f}us)"
    )


@pytest.mark.parametrize("name", _FAMILIES)
def test_repeated_decodes_digest_each_clause_once(name, fresh_fp_memo, monkeypatch):
    """20 decodes of one payload, each fingerprinted: the fingerprint memo
    answers every decode after the first, so the per-clause digest runs
    once per distinct clause (without the memo: 20 times that)."""
    inst = load_instance(name, "ci")
    payload = inst.formula.packed().to_bytes()
    calls = 0
    digest = packed_mod.clause_digest

    def counting_digest(lits):
        nonlocal calls
        calls += 1
        return digest(lits)

    monkeypatch.setattr(packed_mod, "clause_digest", counting_digest)
    fps = {PackedCNF.from_bytes(payload).fingerprint() for _ in range(20)}
    assert len(fps) == 1
    distinct = len(set(PackedCNF.from_bytes(payload).iter_clauses()))
    assert calls == distinct, f"{name}: {calls} clause digests for {distinct} clauses"


@pytest.mark.parametrize("name", _FAMILIES)
def test_wire_cache_hits_make_no_per_variable_calls(name, monkeypatch):
    """20 cache hits served from wire bytes: the cache's model copy
    validates no variable again and the cached-model check reads no
    variable one at a time (before the array check, each hit made one
    ``check_variable`` call per model variable and hundreds of
    ``Assignment.get`` calls)."""
    inst = load_instance(name, "ci")
    payload = inst.formula.packed().to_bytes()
    calls = {"check_variable": 0, "get": 0}
    check, get = assignment_mod.check_variable, Assignment.get

    def counting_check(var):
        calls["check_variable"] += 1
        return check(var)

    def counting_get(self, var, default=None):
        calls["get"] += 1
        return get(self, var, default)

    with SolverService(EngineConfig(jobs=1)) as service:
        assert service.solve(SolveRequest(packed_bytes=payload, seed=0)).status == "sat"
        monkeypatch.setattr(assignment_mod, "check_variable", counting_check)
        monkeypatch.setattr(Assignment, "get", counting_get)
        hits = [
            service.solve(SolveRequest(packed_bytes=payload, seed=0))
            for _ in range(20)
        ]
        counted = dict(calls)
    assert [h.source for h in hits] == ["cache"] * 20
    assert counted == {"check_variable": 0, "get": 0}
    assert all(inst.formula.is_satisfied(h.assignment) for h in hits)
