"""The four closed-loop workloads.

Each ``run_*`` function drives the program for ``ctx.seconds`` and
returns a :class:`Run`: per-op latencies measured at the client (from
the call to the response), ops attempted and failed, path-guard trips,
set-up times and peak memory, plus the exact counters the traced run
reports.  Answers are checked after the timed loop, against the
benchmark's own copy of every input; a wrong answer is a failed op.

Path guards: every run diffs the program's own counters and fails when a
time-dependent branch flipped -- the worker pool started (a quick-slice
timeout fanned out), an ILP op hit a limit, or an ILP op's LP-call and
B&B-node counts differ when it is solved again.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs, spans
from perfbench.procs import Layout, child_env, peak_rss_mb

#: Times the program's processes are set up per run; setup_s is the median.
SETUP_BOOTS = 3
#: Connections of ec-stream (the box's vCPU count).
EC_CONNECTIONS = 2
#: Sources a solver-decided answer may carry (the quick slice's CDCL).
SOLVER_SOURCES = ("cdcl",)


@dataclass
class Context:
    root: Path
    rundir: Path
    seed: int
    seconds: float
    recorder: "spans.Recorder | None" = None   # set for the traced phase


@dataclass
class Run:
    latencies: list = field(default_factory=list)   # seconds, one per op
    wall: float = 0.0                               # measured wall time
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)    # first few, for stderr
    trips: list = field(default_factory=list)       # path-guard trips
    preserved: list = field(default_factory=list)   # % per checked answer
    setup: list = field(default_factory=list)       # seconds per boot
    rss_mb: float = 0.0
    exact: dict = field(default_factory=dict)       # per-layer exact numbers
    ops: list = field(default_factory=list)         # op ids (traced phase)
    span_files: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: run metadata only, telling a
    drifted host apart from a program change.  Never a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(400_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def compact(response):
    """``(status, source, model literals)`` of an answer: all the checker
    needs, kept as untracked tuples so holding a run's answers until the
    timed loop ends adds no garbage-collector work to the loop."""
    if isinstance(response, Exception) or isinstance(response, bool):
        return response
    lits = response.assignment.to_literals() if response.assignment is not None else ()
    return (response.status, response.source, lits)


def model_of(lits) -> dict:
    return {abs(lit): lit > 0 for lit in lits}


def _diff(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _engine_diff(before: list, after: list) -> dict:
    """Engine and cache counters summed over daemons, after - before."""
    out: dict = {}
    for b, a in zip(before, after):
        for k, v in a["engine"].items():
            out[k] = out.get(k, 0) + v - b["engine"].get(k, 0)
        for k in ("hits", "misses"):
            out["lookup_" + k] = out.get("lookup_" + k, 0) + _diff(a["cache"], b["cache"], k)
    return out


def _pool_guard(run: Run, health: list, diff: dict) -> None:
    for h in health:
        if h["engine"]["pool"]["pool_alive"]:
            run.trips.append("the worker pool started: a quick slice fanned out")
    if diff.get("solver_calls", 0) != diff.get("races", 0):
        run.trips.append(
            f"{diff.get('solver_calls')} solver calls for {diff.get('races')} "
            "races: some race went past the quick slice")


def _serving_exact(run: Run, diff: dict, ops: int, retried: int) -> None:
    n = max(1, ops)
    lookups = diff.get("lookup_hits", 0) + diff.get("lookup_misses", 0)
    run.exact.update({
        "client.retries": retried / n,
        "cache.hit_ratio": diff.get("lookup_hits", 0) / lookups if lookups else 0.0,
        "engine.cache_hits": diff.get("cache_hits", 0) / n,
        "engine.revalidations": diff.get("revalidations", 0) / n,
        "engine.races": diff.get("races", 0) / n,
        "engine.solver_calls": diff.get("solver_calls", 0) / n,
        "engine.inflight_joins": diff.get("inflight_joins", 0) / n,
        "cdcl.conflicts": diff.get("conflicts", 0) / n,
    })


def _set_up(ctx: Context, run: Run, boots: int, shape: dict, connect, warm):
    """Start the layout *boots* times, each time connecting, pinging and
    warming up; keeps the last one running and records every set-up time.
    A layout whose set-up fails is stopped before the error propagates."""
    layout = clients = None
    for boot in range(boots):
        if layout is not None:
            for client in clients:
                client.close()
            layout.stop()
        layout = Layout(ctx.root, ctx.rundir, traced=ctx.recorder is not None,
                        tag=f"b{boot}", **shape)
        t0 = time.perf_counter()
        try:
            layout.start()
            clients = connect(layout)
            clients[0].ping()
            warm(clients)
        except BaseException:
            layout.stop()
            raise
        run.setup.append(time.perf_counter() - t0)
    return layout, clients


# ----------------------------------------------------------------------
# wire-hot and routed-hot: cache hits over one connection
# ----------------------------------------------------------------------
def run_hot(ctx: Context, *, routed: bool, boots: int) -> Run:
    from repro import CNFFormula, ServiceClient, SolveRequest

    run = Run()
    working = inputs.working_set(ctx.seed)
    payloads = [CNFFormula(inst.clauses).packed().to_bytes() for inst in working]
    refs: list = [None] * len(working)

    def warm(client) -> None:
        for i, payload in enumerate(payloads):
            status, _source, lits = compact(client.solve(SolveRequest(packed_bytes=payload)))
            model = model_of(lits)
            if status != "sat" or not inputs.satisfies(working[i].clauses, model):
                raise RuntimeError(f"warm-up answer {i} is wrong: {status}")
            refs[i] = model

    layout, (client,) = _set_up(
        ctx, run, boots, dict(nodes=2 if routed else 1, routed=routed),
        lambda layout: [ServiceClient(layout.address)],
        lambda clients: warm(clients[0]),
    )
    admins = [ServiceClient(a) for a in layout.node_addresses]
    try:
        stats0 = [a.stats() for a in admins]
        router0 = client.cluster_health()["router"] if routed else {}
        order = inputs.hot_order(ctx.seed)
        sent: list = []
        lat = run.latencies
        rec = ctx.recorder
        deadline = time.perf_counter() + ctx.seconds
        start = time.perf_counter()
        while time.perf_counter() < deadline:
            i = next(order)
            request = SolveRequest(packed_bytes=payloads[i])
            if rec is not None:
                op = len(sent)
                rec.op = op
                index = rec.begin(spans.ROOT)
            t0 = time.perf_counter()
            try:
                response = client.solve(request)
            except Exception as exc:  # a failed op, not a crashed run
                response = exc
            lat.append(time.perf_counter() - t0)
            if rec is not None:
                rec.end(index)
                rec.op = None
                run.ops.append(op)
            sent.append((i, compact(response)))
        run.wall = time.perf_counter() - start
        stats1 = [a.stats() for a in admins]
        health = [a.health() for a in admins]
        router1 = client.cluster_health()["router"] if routed else {}
        run.rss_mb = layout.rss_mb()
        retried = client.retried
    finally:
        for a in admins:
            a.close()
        client.close()
        layout.stop()
        run.span_files = layout.span_files

    run.attempted = len(sent)
    for i, answer in sent:
        if isinstance(answer, Exception):
            run.fail(f"op raised {answer!r}")
            continue
        status, source, lits = answer
        model = model_of(lits)
        if status != "sat" or not inputs.satisfies(working[i].clauses, model):
            run.fail(f"instance {i}: wrong answer ({status})")
        elif source != "cache":
            run.fail(f"instance {i}: answered by {source!r}, not the cache")
        else:
            run.preserved.append(inputs.agreement_pct(refs[i], model, refs[i]))
    diff = _engine_diff(stats0, stats1)
    _pool_guard(run, health, diff)
    if diff.get("cache_hits") != run.attempted:
        run.trips.append(f"{diff.get('cache_hits')} engine cache hits for "
                         f"{run.attempted} hot requests")
    if routed:
        if _diff(router1, router0, "failovers"):
            run.trips.append("the router failed over")
        run.exact["router.failovers"] = _diff(router1, router0, "failovers")
    _serving_exact(run, diff, run.attempted, retried)
    return run


# ----------------------------------------------------------------------
# ec-stream: sessions of single-clause changes on two connections
# ----------------------------------------------------------------------
def _session_ops(plan: inputs.SessionPlan):
    """(kind, request) for the open, every change and the close."""
    from repro import (AddClause, AddVariable, ChangeRequest, ChangeSet, Clause,
                       CNFFormula, RemoveClause, SolveRequest)

    payload = CNFFormula(plan.instance.clauses).packed().to_bytes()
    yield "open", SolveRequest(packed_bytes=payload, session=plan.name)
    for kind, arg in plan.ops:
        if kind == "query":
            yield kind, SolveRequest(session=plan.name)
            continue
        change = {"add": lambda: AddClause(Clause(arg)),
                  "remove": lambda: RemoveClause(Clause(arg)),
                  "add-var": lambda: AddVariable(arg)}[kind]()
        yield kind, ChangeRequest(session=plan.name, changes=ChangeSet([change]))
    yield "close", plan.name


def _check_session(run: Run, plan: inputs.SessionPlan, answers: list) -> int:
    """Replay *plan* against the answers it got; returns solver answers."""
    clauses = list(plan.instance.clauses)
    variables = list(plan.instance.variables)
    model: dict = {}
    solved = 0
    kinds = ["open"] + [k for k, _ in plan.ops] + ["close"]
    args = [None] + [a for _, a in plan.ops] + [None]
    for kind, arg, answer in zip(kinds, args, answers):
        if isinstance(answer, Exception):
            run.fail(f"{plan.name} {kind}: raised {answer!r}")
            return solved
        if kind == "close":
            if answer is not True:
                run.fail(f"{plan.name}: close found no session")
            continue
        status, source, lits = answer
        expected = "revalidation"
        if kind == "add":
            clauses.append(arg)
            if not inputs.clause_satisfied(arg, model):
                expected = "solver"
        elif kind == "remove":
            clauses.remove(arg)
        elif kind == "add-var":
            variables.append(arg)
        elif kind == "open":
            expected = "solver"
        new = model_of(lits)
        source_ok = (source in SOLVER_SOURCES if expected == "solver"
                     else source == expected)
        if status != "sat" or not inputs.satisfies(clauses, new):
            run.fail(f"{plan.name} {kind}: wrong answer ({status})")
        elif not source_ok:
            run.fail(f"{plan.name} {kind}: answered by {source!r}, "
                     f"expected {expected}")
        else:
            if kind != "open":
                run.preserved.append(inputs.agreement_pct(model, new, model))
            solved += expected == "solver"
        model = new
    return solved


def run_ec_stream(ctx: Context, *, boots: int) -> Run:
    from repro import ServiceClient

    run = Run()

    def drive(client, plans, deadline, lat, done, rec, ids):
        """One connection's closed loop: whole sessions, op by op."""
        for plan in plans:
            answers: list = []
            done.append((plan, answers))
            for kind, request in _session_ops(plan):
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if rec is not None:
                    op = next(ids)
                    rec.op = op
                    index = rec.begin(spans.ROOT)
                t0 = time.perf_counter()
                try:
                    if kind == "close":
                        answer = client.close_session(request)
                    elif kind in ("open", "query"):
                        answer = client.solve(request)
                    else:
                        answer = client.change(request)
                except Exception as exc:  # a failed op, not a crashed run
                    answer = exc
                lat.append(time.perf_counter() - t0)
                if rec is not None:
                    rec.end(index)
                    rec.op = None
                    run.ops.append(op)
                answers.append(compact(answer))
            if deadline is None:
                return

    warm_checked = Run()

    def warm(clients) -> None:
        """One throwaway session per connection."""
        answered: list = []
        for c, client in enumerate(clients):
            plan = next(inputs.session_stream(f"{ctx.seed}-warm", c))
            drive(client, [plan], None, [], answered, None, None)
        for plan, answers in answered:
            _check_session(warm_checked, plan, answers)
        if warm_checked.failed:
            raise RuntimeError(f"warm-up sessions failed: {warm_checked.failures}")

    layout, clients = _set_up(
        ctx, run, boots, {},
        lambda layout: [ServiceClient(layout.address) for _ in range(EC_CONNECTIONS)],
        warm,
    )
    try:
        admin = clients[0]
        stats0 = [admin.stats()]
        ids = iter(range(10**9))
        lats = [[] for _ in clients]
        done = [[] for _ in clients]
        deadline = time.perf_counter() + ctx.seconds
        threads = [
            threading.Thread(target=drive, args=(
                client, inputs.session_stream(ctx.seed, c), deadline, lats[c],
                done[c], ctx.recorder, ids))
            for c, client in enumerate(clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        run.wall = time.perf_counter() - start
        stats1 = [admin.stats()]
        health = [admin.health()]
        run.rss_mb = layout.rss_mb()
        retried = sum(c.retried for c in clients)
    finally:
        for c in clients:
            c.close()
        layout.stop()
        run.span_files = layout.span_files

    run.latencies = [x for lat in lats for x in lat]
    run.attempted = len(run.latencies)
    solved = changes = revalidated = 0
    for conn_done in done:
        for plan, answers in conn_done:
            solved += _check_session(run, plan, answers)
            for (kind, _), answer in zip(plan.ops, answers[1:]):
                if kind in ("add", "remove", "add-var") and isinstance(answer, tuple):
                    changes += 1
                    revalidated += answer[1] in ("revalidation", "cache")
    diff = _engine_diff(stats0, stats1)
    _pool_guard(run, health, diff)
    if diff.get("races") != solved:
        run.trips.append(f"{diff.get('races')} engine races for {solved} "
                         "solver-answered ops")
    _serving_exact(run, diff, run.attempted, retried)
    run.exact["session.revalidation_ratio"] = revalidated / changes if changes else 0.0
    return run


# ----------------------------------------------------------------------
# ilp-ec: the paper's Fast-EC and Preserving-EC route, in process
# ----------------------------------------------------------------------
def ilp_op(trial: inputs.Trial):
    """The op's inputs as program objects (built outside the timed span)."""
    from repro import Assignment, CNFFormula

    formula = CNFFormula(trial.clauses)
    for var in trial.variables:
        if var not in formula.variables:
            formula.add_variable(var)
    return formula, Assignment(trial.original)


def ilp_answer(trial: inputs.Trial, formula, original):
    from repro import fast_ec, preserving_ec

    if trial.kind == "fast":
        return fast_ec(formula, original)
    return preserving_ec(formula, original)


def ilp_record(result) -> tuple:
    """``(answer literals, status, (nodes, LP solves, pivots), sub-instance
    clauses)`` of an EC result, as untracked tuples (see :func:`compact`)."""
    answer = result.assignment.to_literals() if result.assignment is not None else ()
    status = result.solution.status.value if result.solution is not None else None
    st = result.stats
    instance = getattr(result, "instance", None)
    return (answer, status, (st.nodes, st.lp_solves, st.simplex_iterations),
            instance.num_clauses if instance is not None else 0)


def ilp_setup_times(ctx: Context, boots: int) -> list:
    """Interpreter start to the first answered op, *boots* times."""
    times = []
    for _ in range(boots):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/ilp_first_op.py", str(ctx.seed)],
            cwd=ctx.root, env=child_env(ctx.root), capture_output=True, text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ok":
            raise RuntimeError(f"ilp first op failed: {proc.stderr[-2000:]}")
        times.append(elapsed)
    return times


def run_ilp_ec(ctx: Context, *, boots: int) -> Run:
    run = Run()
    run.setup = ilp_setup_times(ctx, boots)
    trials = inputs.ilp_trials(ctx.seed)
    # Warm-up: imports and lazy initialisation happen before timing.
    warm = inputs.setup_trial(ctx.seed)
    ilp_answer(warm, *ilp_op(warm))
    rec = ctx.recorder
    results: list = []
    start = time.perf_counter()
    deadline = start + ctx.seconds
    while time.perf_counter() < deadline:
        k = len(results)
        trial = trials[k % len(trials)]
        formula, original = ilp_op(trial)
        if rec is not None:
            rec.op = k
            index = rec.begin(spans.ROOT)
        t0 = time.perf_counter()
        try:
            result = ilp_record(ilp_answer(trial, formula, original))
        except Exception as exc:  # a failed op, not a crashed run
            result = exc
        run.latencies.append(time.perf_counter() - t0)
        if rec is not None:
            rec.end(index)
            rec.op = None
            run.ops.append(k)
        results.append(result)
    run.wall = time.perf_counter() - start
    run.rss_mb = peak_rss_mb([os.getpid()])
    run.attempted = len(results)

    sub_pct: list = []
    nodes: list = []
    for k, result in enumerate(results):
        trial = trials[k % len(trials)]
        if isinstance(result, Exception):
            run.fail(f"ilp op {k} raised {result!r}")
            continue
        lits, status, counts, sub_clauses = result
        answer = model_of(lits)
        if not inputs.satisfies(trial.clauses, answer):
            run.fail(f"ilp op {k} ({trial.kind}): answer does not satisfy")
            continue
        if status != "optimal":
            run.trips.append(f"ilp op {k} ({trial.kind}) ended {status}")
        if k >= len(trials) and isinstance(results[k - len(trials)], tuple) and \
                results[k - len(trials)][2] != counts:
            run.trips.append(f"ilp op {k}: counts {counts} differ from the "
                             "same trial's earlier solve")
        nodes.append(counts[0])
        if trial.kind == "fast":
            sub_pct.append(100.0 * sub_clauses / len(trial.clauses))
        else:
            run.preserved.append(
                inputs.agreement_pct(trial.original, answer, trial.variables))
    # Solve again a seeded sample of the ops just timed (untimed): the
    # same trial must take the same LP calls and B&B nodes.
    for k in random.Random(f"{ctx.seed}:recheck").sample(
            range(len(results)), min(3, len(results))):
        if isinstance(results[k], tuple):
            trial = trials[k % len(trials)]
            again = ilp_record(ilp_answer(trial, *ilp_op(trial)))[2]
            if again != results[k][2]:
                run.trips.append(f"ilp op {k}: counts {again} on a second solve, "
                                 f"{results[k][2]} timed")
    run.exact.update({
        "fast.subinstance_pct": statistics.mean(sub_pct) if sub_pct else 0.0,
        "bb.nodes": statistics.mean(nodes) if nodes else 0.0,
    })
    return run
