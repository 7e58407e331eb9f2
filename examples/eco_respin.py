"""Fast EC as an ECO respin: late netlist changes with minimal re-solve.

Run:  python examples/eco_respin.py

Scenario (the paper's motivation): a design has been verified and signed
off — its SAT model is solved.  Late in the flow an engineering change
order (ECO) arrives: a few signals are removed and new constraints are
added.  Re-running the full solve would be expensive; fast EC (§6 of the
paper, Figure 2) extracts the affected cone and re-solves only that.
"""

import time

from repro.cnf.families import jnh_instance
from repro.cnf.mutations import table2_trial
from repro.core.fast import fast_ec
from repro.sat.encoding import encode_sat
from repro.ilp.solver import solve


def main() -> None:
    # A jnh-style constraint system standing in for a signed-off design.
    inst = jnh_instance(30, 180, seed=11, name="design")
    formula, witness = inst.formula, inst.witness
    print(f"design model: {formula.num_vars} signals, "
          f"{formula.num_clauses} constraints")

    # Baseline: the original sign-off solve through the ILP route.
    t0 = time.perf_counter()
    encoding = encode_sat(formula)
    solution = solve(encoding.model, method="exact", time_limit=60)
    original = encoding.decode(solution, default=False)
    t_full = time.perf_counter() - t0
    print(f"original sign-off solve: {t_full:.2f}s "
          f"({solution.stats.nodes} B&B nodes)\n")

    # The ECO: three signals removed, ten new constraints (Table 2 setup).
    modified, log = table2_trial(formula, original, rng=7)
    print(f"ECO arrives: {log.summary()}")
    print(f"old solution still valid? {modified.is_satisfied(original)}")

    # Fast EC instead of a full re-solve.
    t0 = time.perf_counter()
    result = fast_ec(modified, original, method="exact")
    t_fast = time.perf_counter() - t0
    assert result.succeeded
    print(f"\nfast EC re-solved only {result.instance.num_vars} signals / "
          f"{result.instance.num_clauses} constraints "
          f"(of {modified.num_vars}/{modified.num_clauses})")
    print(f"fast EC time: {t_fast:.3f}s  "
          f"(normalized {t_fast / max(t_full, 1e-9):.4f} of the original solve)")
    untouched = (
        len(set(modified.variables) - set(result.instance.affected_variables))
    )
    print(f"signals untouched by the respin: {untouched}")
    assert modified.is_satisfied(result.assignment)
    print("\nOK: the ECO landed without re-opening the whole design.")


if __name__ == "__main__":
    main()
