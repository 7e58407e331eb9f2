"""The CDCL-vs-DPLL comparisons of the engine bench (fast sizes)."""

from repro.bench.engine import (
    VersusRow,
    bench_unsat_row,
    format_versus_table,
    parity_change_chain,
    unsat_family_instances,
)
from repro.sat.cdcl import cdcl_solve


class TestParityChangeChain:
    def test_base_is_satisfied_by_witness(self):
        base, witness, changes = parity_change_chain(6, seed=3)
        assert base.is_satisfied(witness)
        assert len(changes) == 6

    def test_all_steps_sat_until_the_contradiction(self):
        base, witness, changes = parity_change_chain(6, seed=3)
        formula = base
        for cs in changes[:-1]:
            formula = cs.apply_to(formula)
            # Intermediate steps stay consistent with the planted witness.
            assert formula.is_satisfied(witness)
        formula = changes[-1].apply_to(formula)
        assert not formula.is_satisfied(witness)
        assert cdcl_solve(formula, seed=0).satisfiable is False

    def test_chain_is_deterministic(self):
        a = parity_change_chain(6, seed=3)
        b = parity_change_chain(6, seed=3)
        assert a[0] == b[0]
        assert [len(cs) for cs in a[2]] == [len(cs) for cs in b[2]]

    def test_full_chain_reproduces_unsat_parity_pair(self):
        from repro.cnf.generators import unsat_parity_pair

        base, _witness, changes = parity_change_chain(6, seed=3)
        formula = base
        for cs in changes:
            formula = cs.apply_to(formula)
        assert formula == unsat_parity_pair(6, rng=3)


class TestUnsatRows:
    def test_pinned_instances_are_unsat(self):
        for name, formula in unsat_family_instances("ci"):
            assert cdcl_solve(formula, seed=0).satisfiable is False, name

    def test_bench_unsat_row_records_both_verdicts(self):
        from repro.cnf.generators import unsat_parity_pair

        row = bench_unsat_row("tiny", unsat_parity_pair(6, rng=1))
        assert row.dpll_verdict == "unsat" and row.cdcl_verdict == "unsat"
        assert row.dpll > 0 and row.cdcl > 0 and row.cdcl_speedup > 0

    def test_versus_table_renders(self):
        row = VersusRow("x", 10, 20, dpll=0.1, cdcl=0.01, cdcl_speedup=10.0)
        table = format_versus_table([row], "unsat-family")
        assert "x" in table and "10.0x" in table


class TestServiceExperiment:
    def test_bench_service_smoke(self):
        """Experiment 8 at toy sizes: the disk-backed re-solve path must
        be hit-only, and the shared-pool path must race once per tenant
        (the loosening re-solves are revalidated, never raced)."""
        from repro.bench.engine import bench_service
        from repro.bench.registry import BenchInstance
        from repro.cnf.generators import random_planted_ksat

        instances = []
        for i in range(2):
            f, w = random_planted_ksat(10, 30, rng=50 + i)
            instances.append(
                BenchInstance(f"svc-{i}", "ci", f, w, "planted")
            )
        result = bench_service(instances, jobs=1, seed=0)
        assert result["sessions"] == 2
        assert result["disk_hits"] == 2
        assert result["shared_wall"] > 0 and result["disk_speedup"] > 0
        # One race per tenant's initial solve; the loosening change is
        # answered by the session's O(1) revalidation path.
        assert result["shared_races"] == 2


class TestPerRowExperiments:
    def test_bench_row_smoke(self):
        """Experiments 1-3 once on a small planted row: the raw race on
        warmed workers names its winner, the repeated query is a cache
        hit, and the loosening chain launches no solver."""
        from repro.bench.engine import bench_row
        from repro.bench.registry import BenchInstance
        from repro.cnf.generators import random_planted_ksat
        from repro.engine.engine import PortfolioEngine

        f, w = random_planted_ksat(16, 56, rng=7)
        inst = BenchInstance("row", "ci", f, w, "planted")
        with PortfolioEngine(jobs=1) as engine, PortfolioEngine(
            jobs=2, quick_slice=0
        ) as racer:
            racer.warm_up()
            row = bench_row(inst, engine, racer, rounds=1, changes=4, seed=0)
        assert row.portfolio_winner
        assert row.portfolio > 0 and row.best_sequential > 0
        assert row.cached_hit > 0
        assert row.changes == 4
        assert row.incremental_solver_calls == 0
