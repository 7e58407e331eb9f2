"""ilp-ec set-up: interpreter start to the first answered op.

Usage (from the checkout root): ``python3 perfbench/ilp_first_op.py SEED``.
Imports the program, answers the seed's set-up trial with
``preserving_ec``, checks the answer and prints ``ok``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(seed: int) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, workloads

    trial = inputs.setup_trial(seed)
    result = workloads.ilp_answer(trial, *workloads.ilp_op(trial))
    answer = result.assignment.as_dict() if result.assignment is not None else {}
    if not inputs.satisfies(trial.clauses, answer):
        raise SystemExit("the first ilp-ec answer does not satisfy its formula")
    print("ok")


if __name__ == "__main__":
    main(int(sys.argv[1]))
