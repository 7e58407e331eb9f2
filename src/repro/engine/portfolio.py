"""Race N solver configurations; first definitive answer wins.

Strategy (classic parallel-portfolio with a twist for serial hardware):

1. **Quick slice** — the lead configuration (CDCL by default) runs
   *in-process* for a short budget.  Easy instances — the vast
   majority in an EC workload — are decided here at sequential-solver
   speed, with zero pool overhead.  This is what keeps the portfolio "no
   slower than the best single sequential solver" even on one core.
2. **Fan-out** — undecided instances are raced on up to ``jobs`` forked
   worker processes that the portfolio owns, each fed one racer at a
   time over its own :mod:`multiprocessing` pipe.  A racer receives the
   instance as the packed kernel's raw wire bytes
   (:meth:`~repro.cnf.packed.PackedCNF.to_bytes` — flat literal arrays
   plus a clause-offset index), not a pickled ``CNFFormula`` object
   graph; deserialization is a couple of C-level array copies, and
   every adapter's ``solve_packed`` entry point takes the kernel.

The workers are **shared between concurrent races**.  A race leases idle
workers, sends them racers in line-up order and waits on their pipes.
Racer *i* is sent no earlier than *i* × ``stagger`` after fan-out, so on
oversubscribed hardware the lead runs nearly uncontended and a race
decided early never starts its later racers.  A race running alone may
fill every worker; N concurrent races each keep ``jobs / N`` racers in
flight, so no query buries the others' leads.

A running racer cannot be interrupted.  One still running when its race
is decided stays on its worker as an *orphan* until its answer is read;
the winner never waits for it.  A race that has a racer running takes
only idle or new workers, so back-to-back races never fork; a race with
none running that finds no worker kills the oldest orphan and forks its
replacement, so no race waits behind a decided race's losers.  A worker
that dies loses only its own racer: the next lease forks a replacement,
and a race left without a trusted answer solves solo in-process.  The
``deadline`` is enforced inside each racer and by the parent's wait.

An ``unsat`` outcome only wins if its solver is complete; ``sat``
outcomes are verified models (see :mod:`repro.engine.adapters`), so the
race can never return a wrong answer, only ``unknown``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro import faults
from repro.cnf.assignment import Assignment
from repro.cnf.packed import PackedCNF
from repro.engine.config import (
    DEFAULT_QUICK_SLICE,
    SolverConfig,
    default_portfolio_configs,
)
from repro.engine.protocol import SAT, SolverOutcome, UNKNOWN, UNSAT
from repro.obs import tracing

#: How long (seconds) a race cut by its *deadline* still waits for its
#: running racers: a definitive answer arriving inside it still wins.
DRAIN = 0.1

#: How often (seconds) a race short of workers retries its lease.
_LEASE_POLL = 0.05

#: Held from a worker's pipe to its fork, so no other portfolio's worker
#: inherits the child's end: the parent sees a worker die as EOF only
#: once every copy of that end is closed.
_FORK_LOCK = threading.Lock()


def _worker_main(conn, parent: int) -> None:
    """A worker's life: answer each racer sent over *conn* until it closes.

    SIGTERM's default action comes back first.  A forked worker inherits
    its parent's handlers, and ``repro serve`` handles SIGTERM as
    "drain"; a worker that kept that handler would outlive a
    ``terminate()``.  Then a thread starts that exits the worker once
    *parent* dies: orphans of a SIGKILLed daemon would otherwise wait on
    their pipe forever, holding its inherited listening socket.
    (``PR_SET_PDEATHSIG`` fires when the forking *thread* exits, and a
    daemon forks from a per-connection handler thread.)  Only then does
    the worker send its ready message.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_with_parent, args=(parent,),
        name="repro-parent-watch", daemon=True,
    ).start()
    try:
        conn.send(None)
        while True:
            conn.send(_race_entry(*conn.recv()))
    except (EOFError, OSError):      # the parent closed the pipe
        pass


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once it is re-parented (polled every 0.5 s)."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def run_packed(
    config: SolverConfig,
    packed: PackedCNF,
    *,
    deadline: float | None = None,
    seed: int | None = None,
    hint: Assignment | None = None,
) -> SolverOutcome:
    """Run one configuration on a packed kernel — the one racer entry,
    in pool workers and in-process alike.

    Any crash maps to an ``unknown`` outcome: a crashed racer must not
    kill the race.  The effective solver seed is
    ``(seed or 0) + config.seed_offset`` so a single race seed still
    diversifies identical adapters.
    """
    t0 = time.perf_counter()
    try:
        effective = (0 if seed is None else seed) + config.seed_offset
        return config.build().solve_packed(
            packed, deadline=deadline, seed=effective, hint=hint
        )
    except Exception as exc:  # a crashed racer must not kill the race
        return SolverOutcome(
            UNKNOWN, None, config.name, time.perf_counter() - t0, f"error: {exc!r}"
        )


def _race_entry(
    config: SolverConfig,
    payload: bytes,
    deadline: float | None,
    seed: int | None,
    hint: Assignment | None,
) -> SolverOutcome:
    """Worker-side entry: the fault points, then the solver.

    *payload* is the packed kernel's wire bytes — two array copies to
    deserialize, no clause objects.  Under an installed plan,
    ``worker.kill`` SIGKILLs this worker (the crash the solo fallback
    exists for) and ``worker.hang`` sleeps the point's ``delay``
    (default 5 s), then returns undecided.
    """
    t0 = time.perf_counter()
    if faults.fire("worker.kill") is not None:
        os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no excuses
    hang = faults.fire("worker.hang")
    if hang is not None:
        time.sleep(hang.delay or 5.0)
        return SolverOutcome(
            UNKNOWN, None, config.name, time.perf_counter() - t0, "chaos: hang"
        )
    packed = PackedCNF.from_bytes(payload)
    return run_packed(
        config, packed, deadline=_left(deadline, t0), seed=seed, hint=hint
    )


def _left(budget: float | None, since: float) -> float | None:
    """Seconds left of *budget* counted from ``perf_counter`` time
    *since* (``None``: no limit)."""
    if budget is None:
        return None
    return max(0.0, budget - (time.perf_counter() - since))


def _trusted(config: SolverConfig, out: SolverOutcome) -> bool:
    """Can the race stop on this outcome?

    A ``sat`` always can (models are verified); an ``unsat`` only counts
    as a proof when the producing configuration is complete.
    """
    if out.status == SAT:
        return True
    return out.status == UNSAT and config.complete


@dataclass
class PortfolioResult:
    """What a race produced.

    ``launched`` counts the solver runs the race started: the quick
    slice, every racer sent to a worker, and the solo fallback.  Racers
    never sent (the race ended first) are not counted.
    """

    outcome: SolverOutcome
    winner: str | None
    launched: int
    wall_time: float
    outcomes: list[SolverOutcome] = field(default_factory=list)
    via_quick_slice: bool = False
    #: Per-worker payload size in bytes (0 when the race never fanned out
    #: to the pool — quick-slice wins and sequential scans ship nothing).
    transport_bytes: int = 0


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self) -> None:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else methods[0])
        with _FORK_LOCK:
            self.conn, child = ctx.Pipe()
            self.proc = ctx.Process(
                target=_worker_main, args=(child, os.getpid()),
                name="repro-racer", daemon=True,
            )
            try:
                self.proc.start()
            finally:
                child.close()
        try:
            self.conn.recv()         # ready: its SIGTERM default is back
        except (EOFError, OSError):
            self.kill()
            raise

    def kill(self) -> None:
        """SIGKILL the worker (a no-op once it is gone) and reap it."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class Portfolio:
    """A reusable racer over a fixed list of solver configurations.

    Thread-safe: any number of threads may call :meth:`solve`
    concurrently; distinct races share the portfolio's workers.  See the
    module docstring for the lease policy.

    Args:
        configs: race line-up (default: :func:`default_portfolio_configs`).
        jobs: worker count; ``<= 1`` runs the line-up sequentially
            in-process (first definitive answer wins).  Default:
            ``min(4, os.cpu_count())``.
        quick_slice: in-process lead-solver budget in seconds before
            fanning out (0 disables the quick slice).

    Workers are forked on demand and reused across calls; use the
    portfolio as a context manager (or call :meth:`close`) to kill them.
    """

    def __init__(
        self,
        configs: list[SolverConfig] | None = None,
        jobs: int | None = None,
        quick_slice: float = DEFAULT_QUICK_SLICE,
    ):
        self.configs = list(configs) if configs is not None else default_portfolio_configs()
        cores = os.cpu_count() or 1
        self.jobs = min(4, cores) if jobs is None else jobs
        self.quick_slice = quick_slice
        #: Delay between racer sends: 0 when every worker has a core.
        self.stagger = 0.0 if cores >= max(self.jobs, 2) else 0.05
        self.total_launched = 0
        #: Races a dead worker left undecided that the parent then solved
        #: solo in-process instead of returning ``unknown`` (cumulative).
        self.solo_fallbacks = 0
        # One lock/condition guards the worker lists, the generation and
        # the active-race count.  It is never held while a racer runs.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: set[_Worker] = set()   # every live worker
        self._idle: list[_Worker] = []
        self._orphans: list[_Worker] = []     # decided races' racers, oldest first
        self._generation = 0                  # workers replaced after dying or a kill
        self._active = 0                      # races currently in fan-out

    # ------------------------------------------------------------------
    # workers (the *_locked helpers need self._lock held)
    # ------------------------------------------------------------------
    def _fork_locked(self) -> _Worker | None:
        try:
            worker = _Worker()
        except (EOFError, OSError):           # could not fork, or died unready
            self._generation += 1
            return None
        self._workers.add(worker)
        return worker

    def _drop_locked(self, worker: _Worker) -> None:
        """Kill *worker* and forget it; the next lease forks a replacement."""
        worker.kill()
        if worker in self._workers:           # not already gone with close()
            self._workers.discard(worker)
            self._generation += 1
            self._cond.notify_all()

    def _lease(self, deadline_at: float | None, idle_only: bool) -> _Worker | None:
        """A worker for one racer, or ``None``.

        Reads the answer of every orphan whose pipe is ready (its worker
        goes idle), then hands out an idle worker, or forks one while
        fewer than ``jobs`` exist.  A race with a racer running
        (*idle_only*) stops there.  A race with none kills the oldest
        orphan and forks its replacement, or else waits for a worker
        until *deadline_at* (``perf_counter`` time; ``None``: no limit).
        """
        with self._cond:
            while True:
                for worker in [w for w in self._orphans if w.conn.poll()]:
                    self._orphans.remove(worker)
                    try:
                        worker.conn.recv()
                    except (EOFError, OSError):
                        self._drop_locked(worker)
                    else:
                        self._idle.append(worker)
                if self._idle:
                    return self._idle.pop()
                if len(self._workers) < self.jobs:
                    return self._fork_locked()
                if idle_only:
                    return None
                if self._orphans:
                    self._drop_locked(self._orphans.pop(0))
                    return self._fork_locked()
                timeout = None
                if deadline_at is not None:
                    timeout = deadline_at - time.perf_counter()
                    if timeout <= 0.0:
                        return None
                self._cond.wait(timeout)

    def _release(self, worker: _Worker) -> None:
        """Return a worker whose answer was read to the idle set."""
        with self._cond:
            if worker in self._workers:
                self._idle.append(worker)
                self._cond.notify()

    def _drop(self, worker: _Worker) -> None:
        with self._cond:
            self._drop_locked(worker)

    def _share(self, total: int) -> int:
        """How many racers this race may have in flight right now.

        Alone: the whole line-up (burst submission, the historical
        behaviour).  With N concurrent races: ``jobs / N`` (min 1), so
        every query keeps a lead racer moving instead of queueing whole
        line-ups behind each other.
        """
        with self._lock:
            active = self._active
        if active <= 1:
            return total
        return max(1, self.jobs // active)

    @property
    def generation(self) -> int:
        """Workers replaced after dying or being killed (cumulative)."""
        with self._lock:
            return self._generation

    def health(self) -> dict:
        """Pool liveness/degradation snapshot (the daemon ``health`` op)."""
        with self._lock:
            return {
                "generation": self._generation,
                "pool_alive": bool(self._workers),
                "active_races": self._active,
                "workers": len(self._workers),
                "orphans": len(self._orphans),
                "solo_fallbacks": self.solo_fallbacks,
                "total_launched": self.total_launched,
                "jobs": self.jobs,
            }

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Fork ``jobs`` ready workers ahead of the first race (benchmarks)."""
        if self.jobs > 1:
            with self._cond:
                while len(self._workers) < self.jobs:
                    worker = self._fork_locked()
                    if worker is None:
                        break
                    self._idle.append(worker)

    def close(self) -> None:
        """SIGKILL and reap every worker (safe to call repeatedly).

        A running racer cannot be interrupted cooperatively, so it is
        killed with its worker.  A later race forks new workers.
        """
        with self._cond:
            workers, self._workers = self._workers, set()
            self._idle, self._orphans = [], []
            for worker in workers:
                worker.kill()
            self._cond.notify_all()

    def __enter__(self) -> "Portfolio":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def solve(
        self,
        packed: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> PortfolioResult:
        """Race the line-up on the kernel *packed*; see the module docstring.

        Safe to call from any number of threads at once — each call runs
        its own race on the shared workers.  The line-up races in the
        order given: the first configuration takes the quick slice and
        is sent first (the default line-up puts CDCL there).

        Returns an ``unknown`` result only when every configuration came
        back undecided within its budget.
        """
        if not self.configs:
            raise ValueError("portfolio has no solver configurations")
        t0 = time.perf_counter()
        configs = self.configs
        outcomes: list[SolverOutcome] = []
        launched = 0

        # Phase 1: in-process quick slice on the lead configuration.
        if self.quick_slice > 0:
            slice_budget = (
                self.quick_slice if deadline is None else min(self.quick_slice, deadline)
            )
            first = configs[0]
            launched += 1
            with tracing.stage("quick_slice", solver=first.name) as sp:
                out = run_packed(
                    first, packed, deadline=slice_budget, seed=seed, hint=hint
                )
                if sp is not None:
                    sp.tags["status"] = out.status
            outcomes.append(out)
            if _trusted(first, out):
                self._note_launched(launched)
                return PortfolioResult(
                    out, first.name, launched, time.perf_counter() - t0,
                    outcomes, via_quick_slice=True,
                )

        # Phase 2: fan out (or fall back to a sequential scan).
        if self.jobs <= 1:
            winner = None
            for config in configs:
                remaining = _left(deadline, t0)
                if remaining == 0.0:
                    break
                launched += 1
                with tracing.stage("solve", solver=config.name) as sp:
                    out = run_packed(
                        config, packed, deadline=remaining, seed=seed, hint=hint
                    )
                    if sp is not None:
                        sp.tags["status"] = out.status
                outcomes.append(out)
                if _trusted(config, out):
                    winner = out
                    break
            self._note_launched(launched)
            final = winner or _best_unknown(outcomes)
            return PortfolioResult(
                final, winner.solver if winner else None, launched,
                time.perf_counter() - t0, outcomes,
            )

        # Ship the packed kernel's raw bytes to every worker: each worker
        # pays two array copies instead of unpickling an object graph of
        # clause instances.
        payload = packed.to_bytes()
        deadline_at = None if deadline is None else t0 + deadline
        running: dict = {}          # pipe -> (worker, config) per racer in flight
        winner: SolverOutcome | None = None
        timed_out = lost = False
        next_config = 0
        # Workers never ship spans back across the process boundary; the
        # parent reconstructs `pool.wait` (its own clock) and `solve`
        # (the winner's wall_time) as synthetic spans at race end,
        # parented on whatever stage is active right now (engine.solve).
        trace_tracer, trace_ctx = tracing.active()
        wait_t0 = time.monotonic()
        first_done: float | None = None
        with self._lock:
            self._active += 1
        fan_out = time.perf_counter()
        try:
            while winner is None:
                if deadline_at is not None and time.perf_counter() >= deadline_at:
                    timed_out = True        # send nothing more; drain the rest
                # Top up this race's share of the workers, in line-up order.
                blocked = False
                while (
                    not timed_out
                    and next_config < len(configs)
                    and len(running) < self._share(len(configs))
                    and time.perf_counter() >= fan_out + next_config * self.stagger
                ):
                    worker = self._lease(deadline_at, idle_only=bool(running))
                    if worker is None:
                        blocked = True
                        break
                    config = configs[next_config]
                    try:
                        worker.conn.send(
                            (config, payload, _left(deadline, t0), seed, hint)
                        )
                    except OSError:         # it died idle: lease another
                        self._drop(worker)
                        continue
                    running[worker.conn] = (worker, config)
                    next_config += 1
                    launched += 1
                if not running:
                    if blocked and not timed_out:
                        # No racer running and no worker to be had: the
                        # lease waited out the deadline, or forking failed.
                        timed_out = _left(deadline, t0) == 0.0
                        lost = not timed_out
                    if timed_out or blocked or next_config == len(configs):
                        break
                now = time.perf_counter()
                timeout = None
                if deadline_at is not None:
                    # A deadline cut keeps the drain window for racers
                    # already running: a definitive answer arriving now is
                    # just as trustworthy, so it still wins.
                    timeout = deadline_at + (DRAIN if timed_out else 0.0) - now
                    if timed_out and timeout <= 0.0:
                        break
                if not timed_out and next_config < len(configs):
                    due = fan_out + next_config * self.stagger
                    pause = due - now if due > now else _LEASE_POLL
                    timeout = pause if timeout is None else min(timeout, pause)
                try:
                    ready = wait(list(running), timeout)
                except OSError:             # close() shut a pipe under us
                    ready = list(running)
                for conn in ready:
                    worker, config = running.pop(conn)
                    try:
                        out = conn.recv()
                    except (EOFError, OSError):   # the worker died
                        self._drop(worker)
                        lost = True
                        out = SolverOutcome(
                            UNKNOWN, None, config.name, 0.0, "worker died"
                        )
                    else:
                        self._release(worker)
                    if first_done is None:
                        first_done = time.monotonic()
                    outcomes.append(out)
                    if winner is None and _trusted(config, out):
                        winner = out
        finally:
            # Racers still running are orphans now: they stay on their
            # workers until a later lease reads (or kills) them.
            with self._cond:
                self._active -= 1
                self._orphans.extend(
                    w for w, _ in running.values() if w in self._workers
                )
                self._cond.notify_all()

        if winner is None and lost:
            # Last resort: a worker died under this race before any racer
            # produced a trusted verdict.  Solve solo in the parent
            # process — immune to worker SIGKILLs by construction — with
            # whatever deadline budget is left, so a dead worker degrades
            # to a slower correct answer instead of "unknown".
            solo_budget = _left(deadline, t0)
            if solo_budget is None or solo_budget > 0.0:
                first = configs[0]
                launched += 1
                out = run_packed(
                    first, packed, deadline=solo_budget, seed=seed, hint=hint
                )
                outcomes.append(out)
                with self._lock:
                    self.solo_fallbacks += 1
                if _trusted(first, out):
                    winner = out
        self._note_launched(launched)

        if winner is None and timed_out:
            final = SolverOutcome(UNKNOWN, None, "portfolio", 0.0, "deadline exceeded")
        else:
            final = winner or _best_unknown(outcomes)
        if trace_tracer is not None and trace_ctx is not None:
            if first_done is not None:
                trace_tracer.record(
                    "pool.wait",
                    parent=trace_ctx,
                    start=wait_t0,
                    duration=first_done - wait_t0,
                    tags={"launched": launched},
                )
            if winner is not None:
                trace_tracer.record(
                    "solve",
                    parent=trace_ctx,
                    duration=winner.wall_time,
                    tags={"solver": winner.solver, **(winner.stats or {})},
                )
        return PortfolioResult(
            final, winner.solver if winner else None, launched,
            time.perf_counter() - t0, outcomes, transport_bytes=len(payload),
        )

    def _note_launched(self, n: int) -> None:
        with self._lock:
            self.total_launched += n


def _best_unknown(outcomes: list[SolverOutcome]) -> SolverOutcome:
    """Aggregate an all-unknown race into one outcome."""
    detail = "; ".join(
        f"{o.solver}: {o.detail or o.status}" for o in outcomes
    )
    return SolverOutcome(UNKNOWN, None, "portfolio", 0.0, detail or "no outcomes")
