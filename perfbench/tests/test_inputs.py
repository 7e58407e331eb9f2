"""The benchmark's seeded inputs: deterministic, and always satisfiable."""

import itertools
import json
from dataclasses import asdict

import pytest

from perfbench import inputs


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=asdict).encode()


def sessions(seed, conn, count=6):
    return list(itertools.islice(inputs.session_stream(seed, conn), count))


@pytest.fixture(scope="module")
def trials():
    return inputs.ilp_trials(7)


def test_same_seed_gives_byte_identical_inputs(trials):
    assert dump(inputs.working_set(7)) == dump(inputs.working_set(7))
    assert dump(sessions(7, 0)) == dump(sessions(7, 0))
    assert dump(trials) == dump(inputs.ilp_trials(7))
    assert dump(inputs.setup_trial(7)) == dump(inputs.setup_trial(7))
    hot = list(itertools.islice(inputs.hot_order(7), 500))
    assert hot == list(itertools.islice(inputs.hot_order(7), 500))
    assert set(hot) == set(range(inputs.WORKING_SET))


def test_other_seeds_and_connections_differ():
    assert dump(inputs.working_set(7)) != dump(inputs.working_set(8))
    assert dump(sessions(7, 0)) != dump(sessions(7, 1))


def test_working_set_is_planted_and_normal():
    for inst in inputs.working_set(3):
        assert len(inst.clauses) == inputs.SERVING_CLAUSES
        assert len(set(inst.clauses)) == len(inst.clauses)
        assert inputs.satisfies(inst.clauses, inst.witness)
        assert all(cl == inputs.normal(cl) for cl in inst.clauses)


def test_every_session_change_keeps_the_witness_satisfying():
    for plan in sessions(11, 0) + sessions(11, 1):
        clauses = list(plan.instance.clauses)
        added = set()
        for kind, arg in plan.ops:
            if kind == "add":
                assert arg not in clauses and arg not in added
                added.add(arg)
                clauses.append(arg)
            elif kind == "remove":
                assert arg in plan.instance.clauses
                clauses.remove(arg)
            elif kind == "add-var":
                assert arg > inputs.SESSION_VARS
            assert inputs.satisfies(clauses, plan.instance.witness)
        assert len(plan.ops) == inputs.SESSION_OPS


def test_every_ilp_trial_is_satisfiable_by_its_witness(trials):
    kinds = {t.kind for t in trials}
    assert kinds == {"fast", "preserving"}
    for trial in trials + [inputs.setup_trial(7)]:
        assert inputs.satisfies(trial.clauses, trial.witness)
        assert set(trial.witness) == set(trial.variables)
        assert all(abs(l) in trial.witness for cl in trial.clauses for l in cl)
        if trial.kind == "fast":
            # Every Table-2 op takes Figure 2's re-solve path.
            assert not inputs.satisfies(trial.clauses, trial.original)
            assert len(trial.variables) == inputs.FAST_SIZE[0] - 3
        else:
            assert len(trial.variables) == inputs.PRESERVING_SIZE[0]


def test_checker_and_agreement():
    assert inputs.satisfies([(1, -2)], {1: False, 2: False})
    assert not inputs.satisfies([(1, -2)], {1: False, 2: True})
    assert not inputs.satisfies([(1,)], {})        # unassigned is not true
    assert inputs.agreement_pct({1: True, 2: False}, {1: True, 2: True}, [1, 2]) == 50.0
    assert inputs.agreement_pct({}, {1: True}, [1]) == 100.0
