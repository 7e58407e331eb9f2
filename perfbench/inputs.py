"""Seeded inputs owned by the benchmark, and its own answer checker.

Everything a workload sends is generated here from the run's ``--seed``,
with nothing but :mod:`random`: planted 3-SAT instances, per-session
change streams, and the Table-2/Table-3 engineering-change trials.  The
program's own generators and mutators are deliberately not used, so a
change to them cannot silently change the workload.

Clauses are tuples of DIMACS literals in the program's normal form
(sorted by variable, positive literal first).  An assignment is a
``{var: bool}`` dict.  Every generated formula carries a planted witness
that satisfies it, so no input needs a solver to be known satisfiable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Size of one serving instance: ``par8-1-c``'s 64 variables and ~250
#: clauses, the size of the ROADMAP's serving baseline.
SERVING_VARS = 64
SERVING_CLAUSES = 254
#: Distinct instances in the wire-hot / routed-hot working set.
WORKING_SET = 16

#: (variables, clauses) of the ILP-route base instances.  Every LP stays
#: under ``default_backend``'s 40,000 cutoff (the preserving encoding has
#: 2 x vars columns and about clauses + vars rows), so the own simplex
#: runs.  Table-3 trials re-solve the whole changed formula.  Table-2
#: trials re-solve Figure 2's sub-instance, which on random 3-SAT often
#: grows to nearly the whole formula; their smaller bases keep the
#: heaviest branch-and-bound op near 0.2 s, so a run's throughput does
#: not hang on how many second-long ops its seed happened to draw.
PRESERVING_SIZE = (24, 100)
FAST_SIZE = (16, 67)
#: Base instances and trials per base instance of each kind: more
#: trials than a run gets through, so no trial repeats within a run.
ILP_BASES = 300
FAST_TRIALS_PER_BASE = 1
PRESERVING_TRIALS_PER_BASE = 2
#: Variables on which a base instance's alternative witness (the one
#: that keeps every trial satisfiable) differs from the original.
ALT_FLIPS = 3


def normal(lits) -> tuple[int, ...]:
    """A clause in the program's normal form."""
    return tuple(sorted(set(lits), key=lambda lit: (abs(lit), lit < 0)))


def clause_satisfied(clause, model: dict) -> bool:
    """True if some literal of *clause* is true under *model*."""
    return any(model.get(abs(lit)) is (lit > 0) for lit in clause)


def satisfies(clauses, model: dict) -> bool:
    """True if *model* satisfies every clause (unassigned = not true)."""
    true = {v if b else -v for v, b in model.items()}
    return all(not true.isdisjoint(cl) for cl in clauses)


def agreement_pct(reference: dict, answer: dict, variables) -> float:
    """Share (in %) of *variables* on which *answer* keeps *reference*."""
    comparable = [v for v in variables if v in reference]
    if not comparable:
        return 100.0
    kept = sum(1 for v in comparable if answer.get(v) is reference[v])
    return 100.0 * kept / len(comparable)


def random_clause(rng: random.Random, variables: list[int], width: int = 3):
    chosen = rng.sample(variables, width)
    return normal(v if rng.random() < 0.5 else -v for v in chosen)


def random_model(rng: random.Random, variables) -> dict:
    return {v: rng.random() < 0.5 for v in variables}


def planted(rng, num_vars: int, num_clauses: int, witnesses, twice=None) -> list:
    """Distinct random 3-clauses over 1..num_vars, each satisfied by
    every witness, and by two literals under *twice* when given (so
    eliminating any one variable leaves *twice* satisfying)."""
    variables = list(range(1, num_vars + 1))
    seen: set = set()
    clauses: list = []
    while len(clauses) < num_clauses:
        cl = random_clause(rng, variables)
        if cl in seen or not all(clause_satisfied(cl, w) for w in witnesses):
            continue
        if twice is not None and sum(twice[abs(l)] is (l > 0) for l in cl) < 2:
            continue
        seen.add(cl)
        clauses.append(cl)
    return clauses


@dataclass
class Instance:
    """A planted instance: its clauses and the witness that satisfies it."""

    clauses: list
    witness: dict

    @property
    def variables(self) -> list[int]:
        return sorted(self.witness)


def planted_instance(rng: random.Random, num_vars: int, num_clauses: int) -> Instance:
    witness = random_model(rng, range(1, num_vars + 1))
    return Instance(planted(rng, num_vars, num_clauses, [witness]), witness)


def working_set(seed: int) -> list[Instance]:
    """The wire-hot / routed-hot working set."""
    rng = random.Random(f"{seed}:working-set")
    return [planted_instance(rng, SERVING_VARS, SERVING_CLAUSES)
            for _ in range(WORKING_SET)]


def hot_order(seed: int):
    """Endless indices into the working set, in the order the hot loop
    sends them."""
    rng = random.Random(f"{seed}:hot-order")
    while True:
        yield rng.randrange(WORKING_SET)


# ----------------------------------------------------------------------
# ec-stream: sessions of single-clause changes
# ----------------------------------------------------------------------
#: Size of a session's opening instance: ``par8-1-c``'s 64 variables
#: at a lower clause ratio, so every CDCL re-solve ends well inside the
#: engine's 50 ms quick slice even on a loaded host.
SESSION_VARS = 64
SESSION_CLAUSES = 224
#: Ops per session after the opening solve.
SESSION_OPS = 48
#: Op mix after the open: kind -> weight.  Adds balance removals, so the
#: formula size stays flat along a session.
SESSION_MIX = (("add", 42), ("remove", 42), ("add-var", 8), ("query", 8))


@dataclass
class SessionPlan:
    """One session: its opening instance and its ops in order.

    Each op is ``(kind, arg)``: ``("add", clause)`` adds a clause the
    planted witness satisfies, ``("remove", clause)`` removes a clause of
    the opening instance, ``("add-var", var)`` activates a fresh
    variable, ``("query", None)`` re-queries the session without a
    source.
    """

    name: str
    instance: Instance
    ops: list = field(default_factory=list)


def session_plan(rng: random.Random, name: str) -> SessionPlan:
    instance = planted_instance(rng, SESSION_VARS, SESSION_CLAUSES)
    witness = instance.witness
    variables = instance.variables
    present = list(instance.clauses)
    removable = list(instance.clauses)
    seen = set(instance.clauses)
    next_var = SESSION_VARS + 1
    kinds = [k for k, _ in SESSION_MIX]
    weights = [w for _, w in SESSION_MIX]
    ops: list = []
    for _ in range(SESSION_OPS):
        kind = rng.choices(kinds, weights)[0]
        if kind == "add":
            # A clause never seen in this session: every state after an
            # add is new, so a re-solve never finds its answer cached.
            while True:
                cl = random_clause(rng, variables)
                if cl not in seen and clause_satisfied(cl, witness):
                    break
            seen.add(cl)
            present.append(cl)
            ops.append(("add", cl))
        elif kind == "remove":
            # Only opening clauses are removed, so no state repeats.
            cl = removable.pop(rng.randrange(len(removable)))
            present.remove(cl)
            ops.append(("remove", cl))
        elif kind == "add-var":
            ops.append(("add-var", next_var))
            next_var += 1
        else:
            ops.append(("query", None))
    return SessionPlan(name, instance, ops)


def session_stream(seed: int, conn: int):
    """Endless session plans for one connection (lazily generated)."""
    rng = random.Random(f"{seed}:ec-stream:{conn}")
    index = 0
    while True:
        yield session_plan(rng, f"pb-{seed}-{conn}-{index}")
        index += 1


# ----------------------------------------------------------------------
# ilp-ec: Table-2 (Fast EC) and Table-3 (Preserving EC) trials
# ----------------------------------------------------------------------
@dataclass
class Trial:
    """One EC trial: the changed formula and the original assignment.

    ``kind`` is ``"fast"`` (answered by ``fast_ec``) or ``"preserving"``
    (answered by ``preserving_ec``).  ``variables`` are the active
    variables of the changed formula (fresh ones included); ``witness``
    satisfies ``clauses``, which proves the trial satisfiable.
    """

    kind: str
    clauses: list
    variables: list
    original: dict
    witness: dict


def _eliminate(rng, clauses, variables, witness, count, attempts: int = 50):
    """Eliminate *count* variables so that *witness* still satisfies the
    shortened clauses (and so none empties)."""
    for _ in range(attempts):
        order = list(variables)
        rng.shuffle(order)
        kept, gone = clauses, set()
        for var in order:
            if len(gone) == count:
                break
            trial = [tuple(l for l in cl if abs(l) != var) for cl in kept]
            if all(trial) and satisfies(trial, witness):
                kept, gone = trial, gone | {var}
        if len(gone) == count:
            return kept, [v for v in variables if v not in gone]
    raise ValueError("no variable set keeps the witness satisfying")


def _added_clauses(rng, variables, witness, existing, count):
    seen = set(existing)
    out = []
    while len(out) < count:
        cl = random_clause(rng, variables)
        if cl not in seen and clause_satisfied(cl, witness):
            seen.add(cl)
            out.append(cl)
    return out


def fast_trial(rng, base: list, original: dict, alt: dict) -> Trial:
    """Table 2: eliminate 3 variables, add 10 clauses.

    The alternative witness *alt* keeps the trial satisfiable; trials the
    original assignment still satisfies are redrawn, so every op takes
    Figure 2's re-solve path.
    """
    variables = sorted(original)
    for _ in range(1000):
        clauses, survivors = _eliminate(rng, base, variables, alt, 3)
        clauses = [normal(cl) for cl in clauses]
        clauses += _added_clauses(rng, survivors, alt, clauses, 10)
        if not satisfies(clauses, original):
            witness = {v: alt[v] for v in survivors}
            return Trial("fast", clauses, survivors, original, witness)
    raise ValueError("no table-2 trial breaks the original assignment")


def preserving_trial(rng, base: list, original: dict, alt: dict) -> Trial:
    """Table 3: +-5 variables, +-5 clauses."""
    variables = sorted(original)
    kept = list(base)
    for _ in range(5):
        kept.pop(rng.randrange(len(kept)))
    clauses, survivors = _eliminate(rng, kept, variables, alt, 5)
    clauses = [normal(cl) for cl in clauses]
    fresh = list(range(max(variables) + 1, max(variables) + 6))
    witness = {v: alt[v] for v in survivors}
    witness.update(random_model(rng, fresh))
    active = survivors + fresh
    clauses += _added_clauses(rng, active, witness, clauses, 5)
    return Trial("preserving", clauses, active, original, witness)


def _ilp_base(rng, num_vars: int, num_clauses: int):
    """(clauses, original, alternative witness) of one base instance."""
    original = random_model(rng, range(1, num_vars + 1))
    # The alternative witness differs from the original on a few
    # variables: the change stays local, as EC assumes.
    flips = set(rng.sample(sorted(original), ALT_FLIPS))
    alt = {v: b != (v in flips) for v, b in original.items()}
    return planted(rng, num_vars, num_clauses, [original], twice=alt), original, alt


def setup_trial(seed: int) -> Trial:
    """The op a fresh interpreter answers first (ilp-ec's setup_s)."""
    rng = random.Random(f"{seed}:ilp-setup")
    return preserving_trial(rng, *_ilp_base(rng, *PRESERVING_SIZE))


def ilp_trials(seed: int) -> list[Trial]:
    """The ilp-ec trial set: Fast-EC and Preserving-EC trials on fresh
    base instances, in a seeded order."""
    rng = random.Random(f"{seed}:ilp-ec")
    trials: list[Trial] = []
    for _ in range(ILP_BASES):
        base = _ilp_base(rng, *FAST_SIZE)
        trials += [fast_trial(rng, *base) for _ in range(FAST_TRIALS_PER_BASE)]
        base = _ilp_base(rng, *PRESERVING_SIZE)
        trials += [preserving_trial(rng, *base)
                   for _ in range(PRESERVING_TRIALS_PER_BASE)]
    rng.shuffle(trials)
    return trials
