"""Differential fuzzing: five independent solvers must agree.

The repo's cheapest correctness oracle is its own solver diversity: CDCL,
DPLL, brute force, and the paper's exact ILP route are four *independent*
complete deciders, and WalkSAT a fifth incomplete witness-finder.  This
harness fuzzes seeded CNF instances from :mod:`repro.cnf.generators` and
:mod:`repro.cnf.families` and hard-fuses their verdicts (in the spirit of
hard-decision fusion across independent deciders): any definitive
disagreement, or any returned "model" that does not satisfy the formula,
is a bug in at least one solver.

On failure the offending instance is shrunk (greedy clause removal while
the disagreement persists) and printed as DIMACS so the repro case can be
pasted straight into ``repro solve``.

Instance count: ``REPRO_FUZZ_INSTANCES`` (default 200 — the CI fast
lane).  The ``slow``-marked nightly variant runs a deeper sweep with a
different seed stream; enable it with ``REPRO_FUZZ_NIGHTLY=1`` and
``pytest -m slow``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.dimacs import to_dimacs
from repro.cnf.families import f_instance, ii_instance, jnh_instance, parity_instance
from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.cnf.generators import (
    pigeonhole,
    random_ksat,
    random_mixed_width,
    random_planted_ksat,
    unsat_parity_pair,
)
from repro.engine.adapters import (
    BruteForceAdapter,
    CDCLAdapter,
    DPLLAdapter,
    ExactILPAdapter,
    WalkSATAdapter,
)
from repro.engine.protocol import SAT, UNSAT

#: The five solvers under differential test.  WalkSAT runs with a small
#: budget: on UNSAT instances it can only ever answer unknown, and the
#: harness needs throughput, not witnesses.
SOLVERS = (
    CDCLAdapter(),
    DPLLAdapter(),
    BruteForceAdapter(),
    ExactILPAdapter(),
    WalkSATAdapter(max_flips=2_000, max_restarts=2),
)

_COMPLETE = tuple(s.name for s in SOLVERS if s.complete)


def _instances(count: int, stream: int):
    """Yield (name, formula, seed) triples covering every generator family.

    The yielded seed both generated the instance and seeds every solver
    on it, so the (name, seed) pair printed on failure reproduces the
    case exactly.  Sizes stay at or below the brute-force limit (16
    variables) so all five solvers can participate in every verdict.
    """
    families = (parity_instance, ii_instance, jnh_instance, f_instance)
    for i in range(count):
        seed = stream * 1_000_003 + i
        rng = random.Random(seed)
        kind = i % 8
        if kind == 0:
            f, _ = random_planted_ksat(rng.randint(4, 12), rng.randint(8, 40), rng=rng)
            yield f"planted-{i}", f, seed
        elif kind == 1:
            # Near the phase transition: a healthy SAT/UNSAT mix.
            n = rng.randint(3, 10)
            yield f"threshold-{i}", random_ksat(n, int(n * 4.3), k=min(3, n), rng=rng), seed
        elif kind == 2:
            # Over-constrained: mostly UNSAT.
            n = rng.randint(3, 8)
            yield f"dense-{i}", random_ksat(n, n * 7, k=min(3, n), rng=rng), seed
        elif kind == 3:
            widths = {1: 0.1, 2: 0.4, 3: 0.4, 4: 0.1}
            n = rng.randint(4, 12)
            yield f"mixed-{i}", random_mixed_width(n, rng.randint(6, 30), widths, rng=rng), seed
        elif kind == 4:
            maker = families[(i // 8) % len(families)]
            inst = maker(rng.randint(6, 14), rng.randint(12, 40), seed=rng)
            yield f"{inst.family}-{i}", inst.formula, seed
        elif kind == 5:
            yield f"php-{i}", pigeonhole(rng.randint(2, 3)), seed
        elif kind == 6:
            yield f"parity-unsat-{i}", unsat_parity_pair(rng.randint(2, 4), rng=rng), seed
        else:
            # Unit-heavy shallow instances stress the propagation paths,
            # with inactive padding variables in the DIMACS header.
            n = rng.randint(2, 8)
            f = random_ksat(n, rng.randint(2, 3 * n), k=min(2, n), rng=rng)
            f.add_variable()
            yield f"units-{i}", f, seed


def _disagreement(formula: CNFFormula, seed: int) -> str | None:
    """One line describing a solver inconsistency, or None if all agree."""
    verdicts: dict[str, str] = {}
    for solver in SOLVERS:
        out = solver.solve_packed(formula.packed(), seed=seed, deadline=30.0)
        verdicts[solver.name] = out.status
        if out.status == SAT:
            # Re-verify independently of the adapters' own check: a model
            # claim that does not satisfy the formula is itself a bug.
            if out.assignment is None or not formula.is_satisfied(out.assignment):
                return f"{solver.name} claimed sat with a non-model"
        if out.status == UNSAT and not solver.complete:
            if formula.num_clauses and not formula.has_empty_clause():
                return f"incomplete {solver.name} claimed unsat"
    definitive = {verdicts[name] for name in _COMPLETE if verdicts[name] != "unknown"}
    if len(definitive) > 1:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        return f"complete solvers disagree: {pairs}"
    if not definitive:
        return "no complete solver produced a verdict"
    if verdicts["walksat"] == SAT and UNSAT in definitive:
        return "walksat found a model for an instance proven unsat"
    return None


def _shrink(formula: CNFFormula, seed: int) -> CNFFormula:
    """Greedy clause removal preserving the disagreement."""
    current = formula
    improved = True
    while improved:
        improved = False
        for idx in reversed(range(current.num_clauses)):
            candidate = current.copy()
            candidate.remove_clause_at(idx)
            if _disagreement(candidate, seed) is not None:
                current = candidate
                improved = True
    return current


def _run_sweep(count: int, stream: int) -> None:
    for name, formula, seed in _instances(count, stream):
        problem = _disagreement(formula, seed)
        if problem is not None:
            shrunk = _shrink(formula, seed)
            pytest.fail(
                f"solver disagreement on {name} (seed={seed}): {problem}\n"
                f"shrunk repro ({shrunk.num_vars} vars, "
                f"{shrunk.num_clauses} clauses):\n{to_dimacs(shrunk)}"
            )


def test_differential_cross_solver_agreement():
    """All five solvers agree on every seeded instance (CI fast lane)."""
    count = int(os.environ.get("REPRO_FUZZ_INSTANCES", "200"))
    _run_sweep(count, stream=1)


#: The packed-capable solvers fuzzed for object/packed path equality.
_PACKED_SOLVERS = tuple(
    s for s in SOLVERS if s.name in ("cdcl", "dpll", "walksat")
)


def _packed_mismatch(formula: CNFFormula, seed: int) -> str | None:
    """One line describing an object/packed divergence, or None.

    The formula's own kernel (``formula.packed()``) is raced against a
    fresh pack round-tripped through the wire format, so this also fuses
    the portfolio's worker transport path into the differential harness:
    both must produce the *same verdict and the same model* (any
    difference is a kernel-maintenance or wire-format bug).
    """
    packed = PackedCNF.from_bytes(PackedCNF.from_formula(formula).to_bytes())
    for solver in _PACKED_SOLVERS:
        obj = solver.solve_packed(formula.packed(), seed=seed, deadline=30.0)
        pak = solver.solve_packed(packed, seed=seed, deadline=30.0)
        if obj.status != pak.status:
            return f"{solver.name}: object={obj.status} packed={pak.status}"
        if (obj.assignment is None) != (pak.assignment is None):
            return f"{solver.name}: only one path produced a model"
        if obj.assignment is not None and (
            obj.assignment.as_dict() != pak.assignment.as_dict()
        ):
            return f"{solver.name}: object and packed models differ"
    return None


def test_differential_packed_vs_object_paths():
    """A formula's own kernel and a fresh pack's wire round trip agree on
    verdict *and* model.

    Runs over the same seeded instance stream as the cross-solver sweep
    (stream 1), so a failure here and a failure there point at the same
    reproducible (name, seed) pair.
    """
    count = int(os.environ.get("REPRO_FUZZ_INSTANCES", "200"))
    for name, formula, seed in _instances(count, stream=1):
        problem = _packed_mismatch(formula, seed)
        if problem is not None:
            pytest.fail(
                f"packed/object divergence on {name} (seed={seed}): {problem}\n"
                f"instance ({formula.num_vars} vars, "
                f"{formula.num_clauses} clauses):\n{to_dimacs(formula)}"
            )


def _service_mismatch(direct, routed, name: str, seed: int) -> str | None:
    """One line describing a service/engine divergence, or None."""
    if direct.status != routed.status:
        return (
            f"engine={direct.status} service={routed.status} "
            f"on {name} (seed={seed})"
        )
    if (direct.assignment is None) != (routed.assignment is None):
        return f"only one route produced a model on {name} (seed={seed})"
    if direct.assignment is not None and (
        direct.assignment.as_dict() != routed.assignment.as_dict()
    ):
        return f"engine and service models differ on {name} (seed={seed})"
    return None


def test_differential_service_vs_direct_engine():
    """The SolverService facade is a pass-through, not a reinterpretation.

    Over the same seeded instance stream as the cross-solver sweep, a
    request routed through the service must produce the *same verdict
    and the same model* as a direct PortfolioEngine call with identical
    parameters.  Both engines run single-job with a quick slice big
    enough that the deterministic CDCL lead decides every CI-size
    instance, so any divergence is a facade bug, not scheduling noise.
    """
    from repro.engine.cache import SolutionCache
    from repro.engine.config import EngineConfig
    from repro.engine.engine import PortfolioEngine
    from repro.service.requests import SolveRequest
    from repro.service.service import SolverService

    count = int(os.environ.get("REPRO_FUZZ_INSTANCES", "200"))
    # Caches that hold nothing: every query on both sides is a race.
    engine = PortfolioEngine(
        jobs=1, quick_slice=30.0, cache=SolutionCache(max_entries=0)
    )
    service = SolverService(EngineConfig(jobs=1, quick_slice=30.0, cache="none"))
    with engine, service:
        for name, formula, seed in _instances(count, stream=1):
            direct = engine.solve(formula.packed(), seed=seed)
            routed = service.solve(SolveRequest(formula=formula, seed=seed))
            problem = _service_mismatch(direct, routed, name, seed)
            if problem is not None:
                pytest.fail(
                    f"service/engine divergence: {problem}\n"
                    f"instance ({formula.num_vars} vars, "
                    f"{formula.num_clauses} clauses):\n{to_dimacs(formula)}"
                )


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_FUZZ_NIGHTLY") != "1",
    reason="nightly differential sweep (set REPRO_FUZZ_NIGHTLY=1)",
)
def test_differential_nightly_sweep():
    """The deeper nightly sweep: a fresh seed stream, 5x the instances."""
    count = int(os.environ.get("REPRO_FUZZ_INSTANCES", "200")) * 5
    _run_sweep(count, stream=2)
