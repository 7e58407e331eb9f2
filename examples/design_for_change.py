"""Enabling EC in depth: quantifying design-for-change on SAT.

Run:  python examples/design_for_change.py

Compares four policies on the same instance:

1. plain solve (set-cover objective, no EC awareness);
2. enabling EC, objective form, sound ("acyclic") support;
3. enabling EC, constraint form, paper-style ("chained") support;
4. the planted reference witness.

For each solution we report the k-satisfaction census, the fraction of
2-satisfied clauses, and the elimination robustness — then stress-test
all four against the same batch of random clause additions, counting how
often fast EC can repair locally (small affected set) vs globally.
"""

import random

from repro.cnf.analysis import flexibility_report
from repro.cnf.families import f_instance
from repro.cnf.generators import random_clause
from repro.core.enabling import EnablingOptions, enable_ec
from repro.core.fast import simplify_instance
from repro.sat.encoding import encode_sat
from repro.ilp.solver import solve


def stress(formula, assignment, trials=25, seed=0):
    """Average affected-set size over random single-clause additions."""
    rng = random.Random(seed)
    sizes = []
    for _ in range(trials):
        modified = formula.copy()
        modified.add_clause(random_clause(formula.variables, 3, rng))
        inst = simplify_instance(modified, assignment)
        sizes.append(0 if inst.already_satisfied else inst.num_vars)
    return sum(sizes) / len(sizes)


def main() -> None:
    inst = f_instance(20, 75, seed=9, name="design")
    formula, plant = inst.formula, inst.witness
    print(f"instance: {formula.num_vars} vars, {formula.num_clauses} clauses\n")

    solutions = {}
    enc = encode_sat(formula)
    plain = enc.decode(solve(enc.model, time_limit=60), default=False)
    solutions["plain solve"] = plain
    solutions["enable OF acyclic"] = enable_ec(
        formula, EnablingOptions(mode="objective", support="acyclic")
    ).assignment
    solutions["enable SC chained"] = enable_ec(
        formula, EnablingOptions(mode="constraints", support="chained")
    ).assignment
    solutions["planted witness"] = plant

    header = f"{'policy':<20} {'2-sat':>6} {'robust':>7} {'avg affected':>13}"
    print(header)
    print("-" * len(header))
    for name, assignment in solutions.items():
        rep = flexibility_report(formula, assignment)
        affected = stress(formula, assignment)
        print(
            f"{name:<20} {rep.fraction_2_satisfied:>6.2f} "
            f"{rep.robustness:>7.2f} {affected:>13.1f}"
        )
    print(
        "\nMore 2-satisfied clauses -> smaller affected sets -> cheaper "
        "future engineering change; exactly the paper's enabling-EC claim."
    )


if __name__ == "__main__":
    main()
