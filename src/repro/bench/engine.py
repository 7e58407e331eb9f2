"""Engine comparison bench: sequential vs portfolio vs cached-incremental.

``python -m repro.bench.engine`` (or ``python -m repro bench engine``)
runs three experiments per benchmark row:

1. **sequential** — each single solver configuration (CDCL, DPLL,
   WalkSAT, the paper's exact ILP route) run alone; the per-row minimum
   is the "best single sequential solver" baseline;
2. **portfolio** — the raw race of a
   :class:`~repro.engine.engine.PortfolioEngine`'s own portfolio, with
   warmed workers and no quick slice (no fingerprint, no cache);
3. **successive-change** — a chain of loosening engineering changes
   re-solved (a) from scratch with the best sequential solver and (b)
   through an :class:`~repro.engine.session.IncrementalSession`, whose
   revalidation path answers in O(clauses).

plus two suite-level comparisons isolating clause learning:

4. **tightening chain** — a successive-change chain of clause-adding
   engineering changes that assembles the contradictory dual parity
   system of :func:`repro.cnf.generators.unsat_parity_pair` one XOR
   group at a time; every step is re-solved by chronological DPLL and by
   CDCL (previous solution as phase hint), so the chain ends in the
   UNSAT-heavy regime the paper's EC trials fear most;
5. **UNSAT refutation** — pinned provably-unsatisfiable families (dual
   parity pair, near-threshold random 3-SAT) refuted by both solvers.

and two packed-kernel comparisons (the flat-array substrate):

6. **packed vs object** — per row: (a) each packed-capable solver run
   from a cold object graph (packed inside the timed call) vs straight
   off a prebuilt :class:`~repro.cnf.packed.PackedCNF`; (b) the
   per-race worker-transport cost — pickled ``CNFFormula`` object graph
   vs ``PackedCNF.to_bytes`` wire bytes, round-tripped (bytes and
   latency); (c) fingerprint maintenance across an 8-change EC chain —
   fp-v2 recomputed from scratch per edit vs the incrementally
   maintained fp-v2 digest;
7. **batch** — ``PortfolioEngine.solve_many`` over the suite with every
   instance duplicated: one pool warm-up, intra-batch fingerprint
   dedup.

and one service-layer comparison:

8. **service** — (a) multi-tenant throughput: one
   :class:`~repro.service.service.SolverService` hosting a named
   session per instance (solve + loosening change + re-solve, all over
   one shared pool and cache) vs constructing a fresh engine per query;
   (b) persistent-cache hit latency: the suite solved cold through a
   disk-backed service, then re-solved by a *second* service over the
   same cache directory (the daemon-restart story) — every warm query
   must be answered without any solver.

Options::

    --tier ci|paper     instance sizes (default: REPRO_BENCH_SCALE or ci)
    --block small|large|all
    --rows N            first N rows of the block (default 4)
    --jobs N            portfolio pool width (default 4)
    --rounds N          timing repetitions, best-of (default 3)
    --changes N         successive loosening changes per row (default 8)
    --out PATH          also write a JSON artifact (BENCH_engine.json)
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import time
from dataclasses import asdict, dataclass, field

from repro.bench.registry import BenchInstance, load_instance, suite
from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import parity_pair_steps, random_ksat, unsat_parity_pair
from repro.cnf.packed import PackedCNF
from repro.core.change import AddClause, AddVariable, ChangeSet, RemoveClause
from repro.engine.adapters import (
    CDCLAdapter,
    DPLLAdapter,
    ExactILPAdapter,
    WalkSATAdapter,
)
from repro.engine.engine import PortfolioEngine
from repro.engine.fingerprint import fingerprint_v2, fingerprint_v2_scratch
from repro.engine.session import IncrementalSession
from repro.errors import ReproError
from repro.sat.dpll import dpll_solve

_MIN_TIME = 1e-9

#: Single-solver baselines raced by the sequential experiment.
_SEQUENTIAL = (CDCLAdapter(), DPLLAdapter(), WalkSATAdapter(), ExactILPAdapter())

#: Per-step wall-clock cap for the CDCL-vs-DPLL comparisons (a solver
#: that cannot refute within this budget is recorded at the cap).
_VERSUS_DEADLINE = 60.0


def _best_of(rounds: int, fn, *args, **kwargs):
    """(best wall seconds, last result) over *rounds* calls."""
    best = float("inf")
    result = None
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return max(best, _MIN_TIME), result


@dataclass
class EngineBenchRow:
    """One row of the engine comparison."""

    name: str
    num_vars: int
    num_clauses: int
    sequential: dict[str, float] = field(default_factory=dict)
    best_sequential: float = 0.0
    best_solver: str = ""
    portfolio: float = 0.0
    portfolio_winner: str = ""
    portfolio_ratio: float = 0.0          # portfolio / best sequential
    cached_hit: float = 0.0               # repeated-query cache lookup
    scratch_resolve: float = 0.0          # successive changes, from scratch
    incremental_resolve: float = 0.0      # successive changes, via session
    incremental_speedup: float = 0.0
    incremental_solver_calls: int = 0
    changes: int = 0


def bench_row(
    inst: BenchInstance,
    engine: PortfolioEngine,
    racer: PortfolioEngine,
    rounds: int = 3,
    changes: int = 8,
    seed: int = 0,
) -> EngineBenchRow:
    """Run the three experiments on one benchmark instance.

    *racer* runs experiment 2 (warmed workers, no quick slice); *engine*
    serves the cache hit and the change chain.
    """
    row = EngineBenchRow(inst.name, inst.num_vars, inst.num_clauses)
    packed = inst.formula.packed()

    # 1. single-solver sequential baselines.
    for adapter in _SEQUENTIAL:
        wall, out = _best_of(rounds, adapter.solve_packed, packed, seed=seed)
        if out.status == "sat":
            row.sequential[adapter.name] = wall
    if not row.sequential:
        raise ReproError(f"no sequential solver decided {inst.name}")
    row.best_solver = min(row.sequential, key=row.sequential.get)
    row.best_sequential = row.sequential[row.best_solver]

    # 2. the raw portfolio race (no cache; workers already warm).
    wall, race = _best_of(rounds, racer.portfolio.solve, packed, seed=seed)
    if race.outcome.status != "sat":
        raise ReproError(f"portfolio did not decide {inst.name}")
    row.portfolio = wall
    row.portfolio_winner = race.winner
    row.portfolio_ratio = row.portfolio / row.best_sequential

    # ... and the repeated-query path through the fingerprint cache.
    engine.solve(packed, seed=seed)                     # populate
    row.cached_hit, cres = _best_of(rounds, engine.solve, packed, seed=seed)
    assert cres.from_cache

    # 3. successive-change chain: loosening edits, re-solved K times.
    rng = random.Random(seed)
    session = IncrementalSession(inst.formula, engine=engine)
    session.solve(seed=seed)
    change_sets = []
    working = inst.formula.copy()
    for i in range(changes):
        if working.num_clauses <= 1:
            break
        victim = rng.choice(working.clauses)
        cs = ChangeSet([RemoveClause(victim)])
        if i % 3 == 2:
            cs.add(AddVariable())
        working = cs.apply_to(working)
        change_sets.append(cs)
    row.changes = len(change_sets)

    calls_before = session.solver_calls
    t_inc = 0.0
    scratch_formulas = []
    for cs in change_sets:
        session.apply_changes(cs)
        scratch_formulas.append(session.formula)
        t0 = time.perf_counter()
        session.resolve(seed=seed)
        t_inc += time.perf_counter() - t0
    row.incremental_resolve = max(t_inc, _MIN_TIME)
    row.incremental_solver_calls = session.solver_calls - calls_before

    t_scratch = 0.0
    for modified in scratch_formulas:
        t0 = time.perf_counter()
        res = dpll_solve(modified)
        t_scratch += time.perf_counter() - t0
        assert res.satisfiable
    row.scratch_resolve = max(t_scratch, _MIN_TIME)
    row.incremental_speedup = row.scratch_resolve / row.incremental_resolve
    return row


@dataclass
class VersusRow:
    """One CDCL-vs-DPLL comparison (chain step sum or one refutation)."""

    name: str
    num_vars: int
    num_clauses: int
    dpll: float = 0.0
    cdcl: float = 0.0
    cdcl_speedup: float = 0.0            # dpll / cdcl
    dpll_verdict: str = ""
    cdcl_verdict: str = ""
    steps: int = 0                        # > 0 only for change chains


def parity_change_chain(
    num_inputs: int, seed: int = 0
) -> tuple[CNFFormula, Assignment, list[ChangeSet]]:
    """A tightening EC chain ending in the dual-parity contradiction.

    The base instance carries one complete XOR accumulator chain over
    *num_inputs* inputs plus its final parity unit — satisfiable, with a
    planted witness.  Each :class:`ChangeSet` then adds one XOR group of
    a second accumulator chain over the same inputs, and the last change
    asserts the opposite final parity, tipping the instance into UNSAT.
    Applying every change set reproduces
    :func:`repro.cnf.generators.unsat_parity_pair` exactly (both wrap
    :func:`repro.cnf.generators.parity_pair_steps`).

    Returns:
        (base formula, witness for the base, ordered change sets).
    """
    base, witness, groups = parity_pair_steps(num_inputs, rng=seed)
    changes = [ChangeSet([AddClause(cl) for cl in group]) for group in groups]
    return base, witness, changes


def _timed_verdict(adapter, formula, hint, seed: int) -> tuple[float, str]:
    """(wall seconds, status) for one capped adapter run."""
    t0 = time.perf_counter()
    out = adapter.solve_packed(
        formula.packed(), deadline=_VERSUS_DEADLINE, seed=seed, hint=hint
    )
    return max(time.perf_counter() - t0, _MIN_TIME), out.status


def bench_tightening_chain(num_inputs: int, seed: int = 0) -> VersusRow:
    """Experiment 4: re-solve every chain step with DPLL and with CDCL.

    Both solvers see identical formulas and the same (increasingly stale)
    witness hint; the final steps are where clause learning pays — the
    modified instance is unsatisfiable and chronological DPLL re-derives
    the same parity conflict exponentially often.
    """
    base, witness, changes = parity_change_chain(num_inputs, seed=seed)
    row = VersusRow(f"ec-chain-k{num_inputs}", 0, 0, steps=len(changes))
    for adapter in (DPLLAdapter(), CDCLAdapter()):
        formula = base
        total = 0.0
        verdict = ""
        for cs in changes:
            formula = cs.apply_to(formula)
            wall, verdict = _timed_verdict(adapter, formula, witness, seed)
            total += wall
        if isinstance(adapter, DPLLAdapter):
            row.dpll, row.dpll_verdict = total, verdict
        else:
            row.cdcl, row.cdcl_verdict = total, verdict
        row.num_vars = formula.num_vars
        row.num_clauses = formula.num_clauses
    if row.cdcl_verdict != "unsat":
        # A censored (capped) CDCL time would fake the speedup this bench
        # exists to guard; fail loudly instead.
        raise ReproError(
            f"CDCL failed to refute the final {row.name} step within the cap"
        )
    row.cdcl_speedup = row.dpll / row.cdcl
    return row


def unsat_family_instances(tier: str) -> list[tuple[str, CNFFormula]]:
    """The pinned provably-UNSAT comparison instances for a tier."""
    if tier == "paper":
        pairs = [
            ("par-unsat-k20", unsat_parity_pair(20, rng=1)),
            ("rand-unsat-150", random_ksat(150, 690, k=3, rng=2)),
        ]
    else:
        pairs = [
            ("par-unsat-k14", unsat_parity_pair(14, rng=1)),
            ("rand-unsat-110", random_ksat(110, 510, k=3, rng=2)),
        ]
    return pairs


def bench_unsat_row(name: str, formula: CNFFormula, seed: int = 0) -> VersusRow:
    """Experiment 5: one UNSAT-family refutation, DPLL vs CDCL."""
    row = VersusRow(name, formula.num_vars, formula.num_clauses)
    row.dpll, row.dpll_verdict = _timed_verdict(DPLLAdapter(), formula, None, seed)
    row.cdcl, row.cdcl_verdict = _timed_verdict(CDCLAdapter(), formula, None, seed)
    if row.cdcl_verdict != "unsat":
        raise ReproError(f"CDCL failed to refute {name} within the cap")
    row.cdcl_speedup = row.dpll / row.cdcl
    return row


#: Packed-capable solvers compared in experiment 6.
_PACKED_SOLVERS = (CDCLAdapter(), DPLLAdapter(), WalkSATAdapter())


@dataclass
class PackedRow:
    """One packed-vs-object comparison row (experiment 6)."""

    name: str
    num_vars: int
    num_clauses: int
    #: Per-solver wall seconds: cold object graph (entry re-packs) vs a
    #: prebuilt packed kernel, and their ratio.
    solver_object: dict[str, float] = field(default_factory=dict)
    solver_packed: dict[str, float] = field(default_factory=dict)
    solver_speedup: dict[str, float] = field(default_factory=dict)
    #: Per-race worker-transport cost: pickled object graph vs wire bytes.
    transport_pickle_bytes: int = 0
    transport_packed_bytes: int = 0
    transport_bytes_ratio: float = 0.0     # pickle / packed
    transport_pickle_time: float = 0.0     # dumps + loads round trip
    transport_packed_time: float = 0.0     # to_bytes + from_bytes round trip
    transport_speedup: float = 0.0         # pickle time / packed time
    #: Fingerprint maintenance across an EC change chain: per-edit
    #: from-scratch fp-v2 vs the incrementally maintained fp-v2.
    fp_changes: int = 0
    fp_scratch_time: float = 0.0
    fp_incremental_time: float = 0.0
    fp_speedup: float = 0.0


def _fp_change_chain(
    base: CNFFormula, changes: int, rng: random.Random
) -> list[ChangeSet]:
    """An EC chain alternating clause removals and random clause adds."""
    from repro.cnf.clause import Clause

    sets: list[ChangeSet] = []
    working = base.copy()
    for i in range(changes):
        if i % 2 == 0 and working.num_clauses > 1:
            cs = ChangeSet([RemoveClause(rng.choice(working.clauses))])
        else:
            vs = rng.sample(list(working.variables), k=min(3, working.num_vars))
            cs = ChangeSet(
                [AddClause(Clause(v if rng.random() < 0.5 else -v for v in vs))]
            )
        working = cs.apply_to(working)
        sets.append(cs)
    return sets


def bench_packed_row(
    inst: BenchInstance, rounds: int = 3, changes: int = 8, seed: int = 0
) -> PackedRow:
    """Experiment 6 on one instance (loaded fresh, so nothing is pre-packed)."""
    row = PackedRow(inst.name, inst.num_vars, inst.num_clauses)

    # (a) per-solver solve time: cold object graph vs prebuilt kernel.
    # A fresh formula per round is packed inside the timed call, exactly
    # what every pre-kernel solve paid.
    packed = inst.formula.packed()
    for adapter in _PACKED_SOLVERS:
        colds = [CNFFormula(inst.formula.clauses) for _ in range(max(1, rounds))]
        t_obj = float("inf")
        for cold in colds:
            t0 = time.perf_counter()
            adapter.solve_packed(cold.packed(), seed=seed)
            t_obj = min(t_obj, time.perf_counter() - t0)
        t_pak, _ = _best_of(rounds, adapter.solve_packed, packed, seed=seed)
        row.solver_object[adapter.name] = max(t_obj, _MIN_TIME)
        row.solver_packed[adapter.name] = t_pak
        row.solver_speedup[adapter.name] = row.solver_object[adapter.name] / t_pak

    # (b) worker-transport cost: what one racer receives per race.  The
    # object path pickles the clause-object graph (pre-kernel wire
    # format); the packed path ships raw array bytes.
    cold = CNFFormula(inst.formula.clauses)
    blob = pickle.dumps(cold)
    payload = packed.to_bytes()
    row.transport_pickle_bytes = len(blob)
    row.transport_packed_bytes = len(payload)
    row.transport_bytes_ratio = len(blob) / len(payload)
    row.transport_pickle_time, _ = _best_of(
        rounds, lambda: pickle.loads(pickle.dumps(cold))
    )
    row.transport_packed_time, _ = _best_of(
        rounds, lambda: PackedCNF.from_bytes(packed.to_bytes())
    )
    row.transport_speedup = row.transport_pickle_time / row.transport_packed_time

    # (c) fingerprint maintenance across an EC change chain: fp-v2
    # re-digesting every clause per edit (scratch) vs the incrementally
    # maintained per-clause digest combine.
    chain = _fp_change_chain(inst.formula, changes, random.Random(seed))
    row.fp_changes = len(chain)
    t_scratch = float("inf")
    t_inc = float("inf")
    # Digest state is built directly, once: fingerprint() answers a
    # clause sequence this process has fingerprinted before (earlier
    # experiments, earlier rounds) from its memo, which builds none.
    base = CNFFormula(inst.formula.clauses)
    base.packed()._init_digests()
    for _ in range(max(1, rounds)):
        scratch = CNFFormula(inst.formula.clauses)
        t0 = time.perf_counter()
        for cs in chain:
            scratch = cs.apply_to(scratch)
            fingerprint_v2_scratch(scratch)
        t_scratch = min(t_scratch, time.perf_counter() - t0)

        inc = base                          # apply_to copies: base stays put
        t0 = time.perf_counter()
        for cs in chain:
            inc = cs.apply_to(inc)
            fingerprint_v2(inc)
        t_inc = min(t_inc, time.perf_counter() - t0)
    row.fp_scratch_time = max(t_scratch, _MIN_TIME)
    row.fp_incremental_time = max(t_inc, _MIN_TIME)
    row.fp_speedup = row.fp_scratch_time / row.fp_incremental_time
    return row


def run_packed_bench(
    names: list[str], tier: str, rounds: int = 3, changes: int = 8, seed: int = 0
) -> list[PackedRow]:
    """Experiment 6 over freshly loaded instances (no warm kernels)."""
    return [
        bench_packed_row(
            load_instance(name, tier), rounds=rounds, changes=changes, seed=seed
        )
        for name in names
    ]


def bench_batch(
    instances: list[BenchInstance], jobs: int = 4, seed: int = 0
) -> dict:
    """Experiment 7: ``solve_many`` over the suite with every row doubled."""
    formulas: list[CNFFormula] = []
    for inst in instances:
        formulas.append(CNFFormula(inst.formula.clauses))
        formulas.append(CNFFormula(inst.formula.clauses))   # intra-batch dup
    with PortfolioEngine(jobs=jobs) as engine:
        t0 = time.perf_counter()
        results = engine.solve_many([f.packed() for f in formulas], seed=seed)
        wall = time.perf_counter() - t0
        counters = engine.counters()
        return {
            "instances": len(formulas),
            "wall_time": wall,
            "races": counters["races"],
            "cache_hits": counters["cache_hits"],
            "batch_dedups": counters["batch_dedups"],
            "undecided": sum(1 for r in results if r.status == "unknown"),
        }


def bench_service(
    instances: list[BenchInstance], jobs: int = 4, seed: int = 0
) -> dict:
    """Experiment 8: the service layer (see the module docstring)."""
    import tempfile

    from repro.core.change import RemoveClause
    from repro.engine.config import EngineConfig
    from repro.service.requests import ChangeRequest, SolveRequest
    from repro.service.service import SolverService

    # (a) shared pool: one service, one named session per instance, each
    # tenant running solve -> loosening change -> re-solve.
    t0 = time.perf_counter()
    with SolverService(EngineConfig(jobs=jobs)) as service:
        for i, inst in enumerate(instances):
            name = f"tenant-{i}"
            service.solve(SolveRequest(
                formula=CNFFormula(inst.formula.clauses), session=name,
                seed=seed,
            ))
            victim = service.session(name).formula.clauses[0]
            service.change(ChangeRequest(
                name, ChangeSet([RemoveClause(victim)]), seed=seed,
            ))
        shared_races = service.engine.counters()["races"]
    shared_wall = max(time.perf_counter() - t0, _MIN_TIME)

    # ... vs a fresh engine per query (what per-call construction costs:
    # no shared cache, no shared pool, the pre-service default).
    t0 = time.perf_counter()
    for inst in instances:
        original = CNFFormula(inst.formula.clauses)
        with PortfolioEngine(jobs=jobs) as engine:
            engine.solve(original.packed(), seed=seed)
        loosened = original.copy()
        loosened.remove_clause_at(0)
        with PortfolioEngine(jobs=jobs) as engine:
            engine.solve(loosened.packed(), seed=seed)
    percall_wall = max(time.perf_counter() - t0, _MIN_TIME)

    # (b) persistent backend: cold solves, then a second service over the
    # same cache directory — the daemon-restart path must be hit-only.
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        with SolverService(EngineConfig(
            jobs=jobs, cache="disk", cache_dir=tmp
        )) as service:
            for inst in instances:
                service.solve(SolveRequest(
                    formula=CNFFormula(inst.formula.clauses), seed=seed
                ))
        cold_wall = max(time.perf_counter() - t0, _MIN_TIME)

        t0 = time.perf_counter()
        with SolverService(EngineConfig(
            jobs=jobs, cache="disk", cache_dir=tmp
        )) as service:
            for inst in instances:
                service.solve(SolveRequest(
                    formula=CNFFormula(inst.formula.clauses), seed=seed
                ))
            disk_hits = service.engine.cache.stats.hits
            warm_solver_calls = service.engine.counters()["solver_calls"]
        hit_wall = max(time.perf_counter() - t0, _MIN_TIME)
    if warm_solver_calls:
        raise ReproError(
            "disk-backed re-solve launched solvers; the persistent cache "
            "is not serving across service restarts"
        )

    return {
        "sessions": len(instances),
        "shared_wall": shared_wall,
        "shared_races": shared_races,
        "percall_wall": percall_wall,
        "shared_speedup": percall_wall / shared_wall,
        "disk_cold_wall": cold_wall,
        "disk_hit_wall": hit_wall,
        "disk_hits": disk_hits,
        "disk_speedup": cold_wall / hit_wall,
    }


def format_packed_table(rows: list[PackedRow]) -> str:
    """Render the packed-vs-object comparison as an aligned text table."""
    header = (
        f"{'packed-vs-object':<14} {'vars':>5} {'cls':>5} "
        f"{'cdcl':>6} {'dpll':>6} {'wsat':>6} "
        f"{'wire-x':>7} {'wire-t':>7} {'fp-x':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<14} {r.num_vars:>5} {r.num_clauses:>5} "
            f"{r.solver_speedup.get('cdcl', 0):>5.1f}x "
            f"{r.solver_speedup.get('dpll', 0):>5.1f}x "
            f"{r.solver_speedup.get('walksat', 0):>5.1f}x "
            f"{r.transport_bytes_ratio:>6.1f}x "
            f"{r.transport_speedup:>6.1f}x "
            f"{r.fp_speedup:>6.1f}x"
        )
    return "\n".join(lines)


def run_engine_bench(
    instances: list[BenchInstance],
    jobs: int = 4,
    rounds: int = 3,
    changes: int = 8,
    seed: int = 0,
) -> list[EngineBenchRow]:
    """The comparison over a suite, sharing one engine and one warmed
    racing engine."""
    with PortfolioEngine(jobs=jobs) as engine, PortfolioEngine(
        jobs=jobs, quick_slice=0.0
    ) as racer:
        racer.warm_up()
        return [
            bench_row(inst, engine, racer, rounds=rounds, changes=changes, seed=seed)
            for inst in instances
        ]


def format_versus_table(rows: list[VersusRow], title: str) -> str:
    """Render the CDCL-vs-DPLL comparisons as an aligned text table."""
    header = (
        f"{title:<18} {'vars':>5} {'cls':>6} {'steps':>5} "
        f"{'dpll':>9} {'cdcl':>9} {'cdcl-speedup':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<18} {r.num_vars:>5} {r.num_clauses:>6} "
            f"{(r.steps or '-'):>5} "
            f"{r.dpll * 1e3:>8.2f}m {r.cdcl * 1e3:>8.2f}m "
            f"{r.cdcl_speedup:>11.1f}x"
        )
    return "\n".join(lines)


def format_engine_table(rows: list[EngineBenchRow]) -> str:
    """Render the comparison as an aligned text table."""
    header = (
        f"{'instance':<12} {'vars':>5} {'cls':>5} "
        f"{'best-seq':>9} {'(solver)':<14} {'portfolio':>9} {'ratio':>6} "
        f"{'cache-hit':>9} {'inc-speedup':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<12} {r.num_vars:>5} {r.num_clauses:>5} "
            f"{r.best_sequential * 1e3:>8.2f}m {('(' + r.best_solver + ')'):<14} "
            f"{r.portfolio * 1e3:>8.2f}m {r.portfolio_ratio:>6.2f} "
            f"{r.cached_hit * 1e3:>8.3f}m {r.incremental_speedup:>10.1f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry: print the table and optionally write the JSON artifact."""
    parser = argparse.ArgumentParser(description="Engine comparison bench")
    parser.add_argument("--tier", choices=("ci", "paper"), default=None)
    parser.add_argument("--block", choices=("small", "large", "all"), default="small")
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--changes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write a JSON artifact here")
    args = parser.parse_args(argv)

    instances = suite(args.block, tier=args.tier)[: args.rows]
    rows = run_engine_bench(
        instances, jobs=args.jobs, rounds=args.rounds,
        changes=args.changes, seed=args.seed,
    )
    print(format_engine_table(rows))

    total_calls = sum(r.incremental_solver_calls for r in rows)
    print(
        f"\nincremental chains launched {total_calls} solver runs over "
        f"{sum(r.changes for r in rows)} changes (loosening => revalidation)"
    )

    # Experiments 4 + 5: clause learning vs chronological backtracking.
    from repro.bench.registry import current_tier

    tier = args.tier or current_tier()
    chain_inputs = 22 if tier == "paper" else 16
    chain_row = bench_tightening_chain(chain_inputs, seed=args.seed)
    unsat_rows = [
        bench_unsat_row(name, formula, seed=args.seed)
        for name, formula in unsat_family_instances(tier)
    ]
    print()
    print(format_versus_table([chain_row], "tightening-chain"))
    print()
    print(format_versus_table(unsat_rows, "unsat-family"))

    # Experiments 6 + 7: the packed flat-array substrate.
    packed_names = [inst.name for inst in instances]
    packed_rows = run_packed_bench(
        packed_names, tier, rounds=args.rounds, changes=args.changes,
        seed=args.seed,
    )
    print()
    print(format_packed_table(packed_rows))
    batch = bench_batch(instances, jobs=args.jobs, seed=args.seed)
    print(
        f"\nbatch: {batch['instances']} queries -> {batch['races']} races, "
        f"{batch['batch_dedups']} intra-batch dedups, "
        f"{batch['cache_hits']} cache hits, {batch['wall_time']:.3f}s"
    )

    # Experiment 8: the service layer (shared pool + persistent cache).
    service = bench_service(instances, jobs=args.jobs, seed=args.seed)
    print(
        f"\nservice: {service['sessions']} tenants, shared-pool "
        f"{service['shared_wall']:.3f}s vs per-call "
        f"{service['percall_wall']:.3f}s "
        f"({service['shared_speedup']:.1f}x); disk-cache hits "
        f"{service['disk_hit_wall'] * 1e3:.1f}ms vs cold "
        f"{service['disk_cold_wall'] * 1e3:.1f}ms "
        f"({service['disk_speedup']:.1f}x, {service['disk_hits']} hits)"
    )
    if args.out:
        import os

        artifact = {
            "bench": "engine",
            "tier": tier,
            "jobs": args.jobs,
            "rounds": args.rounds,
            "cores": os.cpu_count(),
            "rows": [asdict(r) for r in rows],
            "tightening_chain": asdict(chain_row),
            "unsat_rows": [asdict(r) for r in unsat_rows],
            "packed_rows": [asdict(r) for r in packed_rows],
            "batch": batch,
            "service": service,
        }
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
