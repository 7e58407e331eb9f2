"""Fast-lane perf smoke: the packed path must not regress the object path.

Not a benchmark — a guard.  The packed entry points exist to make the
hot paths cheaper, so the CI-size DIMACS families must solve off a
prebuilt kernel at least as fast as from a cold object graph (which
pays the same solve *plus* kernel construction), within a generous noise
margin, and the wire transport must stay cheaper than pickling the
object graph.  The full comparison with real numbers lives in
``repro bench engine`` (experiment 6, nightly lane).
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.bench.registry import load_instance
from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.engine.adapters import CDCLAdapter

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
