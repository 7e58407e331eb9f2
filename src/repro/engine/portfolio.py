"""Race N solver configurations; first definitive answer wins.

Strategy (classic parallel-portfolio with a twist for serial hardware):

1. **Quick slice** — the lead configuration (complete DPLL by default)
   runs *in-process* for a short budget.  Easy instances — the vast
   majority in an EC workload — are decided here at sequential-solver
   speed, with zero pool overhead.  This is what keeps the portfolio "no
   slower than the best single sequential solver" even on one core.
2. **Fan-out** — undecided instances are raced across a
   ``concurrent.futures`` process pool.  Each worker receives the
   instance as the packed kernel's raw wire bytes
   (:meth:`~repro.cnf.packed.PackedCNF.to_bytes` — flat literal arrays
   plus a clause-offset index), not a pickled ``CNFFormula`` object
   graph; deserialization is a couple of C-level array copies, and
   every adapter's ``solve_packed`` entry point takes the kernel.

The pool is **shared between concurrent races**.  Where the pre-PR-7
design kept one engine-global cancellation event (forcing the engine to
serialize whole queries), every race now leases a :class:`RaceHandle`:
a private cancellation *slot* out of a fixed slot array the workers
inherit at pool start, plus the set of futures the race submitted.
Concurrent races over distinct instances therefore overlap on one
executor, and a scheduler apportions worker submissions: a race running
alone bursts its whole line-up at once (the historical behaviour), while
N concurrent races each trickle ``jobs / N`` racers at a time so no
single query can bury the others' leads at the back of the pool queue.

Workers start staggered (so on oversubscribed hardware the lead solver
runs nearly uncontended) and poll their race's cancellation slot while
waiting, so not-yet-started losers stop cheaply once a winner crosses
the line.  Losers already mid-solve cannot be interrupted; instead of
blocking the winning caller (or tearing down the shared pool under
sibling races), their slot is handed to a lazy reaper that releases it
once the stragglers finish — and only if zombies linger with *no* race
active does the pool get terminated and rebuilt.  The ``deadline`` is
enforced both inside each worker and by the parent's wait loop.

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
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

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

#: Worker-side cancellation slot array, installed by :func:`_init_worker`.
#: Each concurrently running race owns one slot for its lifetime.
_CANCEL_SLOTS = None


def _init_worker(cancel_slots) -> None:
    """Pool initializer: adopt the shared per-race cancellation slots.

    Also restores SIGTERM's default action.  A forked worker inherits its
    parent's handlers, and ``repro serve`` handles SIGTERM as "drain";
    a worker that kept that handler would ignore the ``terminate()``
    with which the pool is torn down.

    And it starts a thread that exits the worker once its parent dies:
    orphans of a SIGKILLed daemon would otherwise block on the call queue
    forever, holding its inherited listening socket.  (``PR_SET_PDEATHSIG``
    fires when the forking *thread* exits, and a daemon forks its pool
    from a per-connection handler thread.)
    """
    global _CANCEL_SLOTS
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _CANCEL_SLOTS = cancel_slots
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),),
        name="repro-parent-watch", daemon=True,
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once it is re-parented (polled every 0.5 s)."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _slot_cancelled(slot) -> bool:
    """Whether the race owning *slot* has been cancelled (worker side)."""
    if slot is None or _CANCEL_SLOTS is None:
        return False
    return _CANCEL_SLOTS[slot].is_set()


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
    stagger: float,
    slot: int | None = None,
) -> SolverOutcome:
    """Worker-side entry: staggered, cancellable start, then the solver.

    *payload* is the packed kernel's wire bytes — two array copies to
    deserialize, no clause objects.  *slot* selects which race's
    cancellation event this worker polls; racing queries never observe
    each other's cancellations.
    """
    t0 = time.perf_counter()
    waited = 0.0
    while waited < stagger:
        if _slot_cancelled(slot):
            return SolverOutcome(UNKNOWN, None, config.name, 0.0, "cancelled")
        step = min(0.01, stagger - waited)
        time.sleep(step)
        waited += step
    if _slot_cancelled(slot):
        return SolverOutcome(UNKNOWN, None, config.name, 0.0, "cancelled")
    chaos = _worker_chaos(config, slot, t0)
    if chaos is not None:
        return chaos
    packed = PackedCNF.from_bytes(payload)
    remaining = None
    if deadline is not None:
        remaining = max(0.0, deadline - (time.perf_counter() - t0))
    return run_packed(config, packed, deadline=remaining, seed=seed, hint=hint)


def _worker_chaos(
    config: SolverConfig, slot: int | None, t0: float
) -> SolverOutcome | None:
    """Worker-side fault points (active only under an installed plan).

    ``worker.kill`` SIGKILLs this worker mid-task — the real crash the
    pool's BrokenExecutor recovery and the engine's solo fallback exist
    for.  ``worker.hang`` simulates a racer stuck past every budget: it
    sleeps the point's ``delay`` (default 5 s), polling its race's
    cancellation slot like a well-behaved stagger wait, then returns
    undecided.
    """
    if faults.fire("worker.kill") is not None:
        os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, no excuses
    hang = faults.fire("worker.hang")
    if hang is not None:
        budget = hang.delay or 5.0
        waited = 0.0
        while waited < budget:
            if _slot_cancelled(slot):
                return SolverOutcome(
                    UNKNOWN, None, config.name, 0.0, "cancelled"
                )
            time.sleep(min(0.02, budget - waited))
            waited += 0.02
        return SolverOutcome(
            UNKNOWN, None, config.name, time.perf_counter() - t0,
            "chaos: hang",
        )
    return None


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

    ``launched`` counts submissions; ``executed`` excludes racers that
    were cancelled before their solver ever started (``executed`` still
    includes racers terminated or abandoned mid-run, so it is exact for
    the zero-solver paths and an upper bound otherwise).
    """

    outcome: SolverOutcome
    winner: str | None
    launched: int
    wall_time: float
    outcomes: list[SolverOutcome] = field(default_factory=list)
    via_quick_slice: bool = False
    executed: int = 0
    #: Per-worker payload size in bytes (0 when the race never fanned out
    #: to the pool — quick-slice wins and sequential scans ship nothing).
    transport_bytes: int = 0


class RaceHandle:
    """Per-race mutable state over the shared executor.

    Everything that used to be engine-global (and forced whole-query
    serialization) lives here instead: the cancellation event — one
    *slot* of the pool's shared slot array, leased for this race — the
    futures this race submitted, and the pool generation the lease
    belongs to (a terminated/rebuilt pool invalidates old handles).
    """

    __slots__ = ("slot", "generation", "futures", "_portfolio", "_executor")

    def __init__(
        self,
        portfolio: "Portfolio",
        executor: ProcessPoolExecutor,
        slot: int,
        generation: int,
    ):
        self._portfolio = portfolio
        self._executor = executor
        self.slot = slot
        self.generation = generation
        self.futures: dict[Future, SolverConfig] = {}

    def submit(
        self,
        config: SolverConfig,
        payload: bytes,
        deadline: float | None,
        seed: int | None,
        hint: Assignment | None,
        stagger: float,
    ) -> Future:
        """Submit one racer bound to this race's cancellation slot."""
        fut = self._executor.submit(
            _race_entry, config, payload, deadline, seed, hint, stagger, self.slot
        )
        self.futures[fut] = config
        return fut

    def cancel(self) -> None:
        """Tell this race's not-yet-solving workers to stand down."""
        self._portfolio._set_cancel(self)


class Portfolio:
    """A reusable racer over a fixed list of solver configurations.

    Thread-safe: any number of threads may call :meth:`solve`
    concurrently; distinct races overlap on one shared process pool,
    each owning a private :class:`RaceHandle` (cancellation slot +
    futures).  See the module docstring for the scheduling policy.

    Args:
        configs: race line-up (default: :func:`default_portfolio_configs`).
        jobs: process-pool width; ``<= 1`` disables the pool and runs the
            line-up sequentially in-process (first definitive answer wins).
            Default: ``min(4, os.cpu_count())``.
        quick_slice: in-process lead-solver budget in seconds before
            fanning out (0 disables the quick slice).
        stagger: delay between worker starts; ``None`` auto-selects 0 on
            machines with at least ``jobs`` cores and 50 ms otherwise.
        drain: how long (seconds) a race that hit its *deadline* waits
            for already-running racers to cross the line; a definitive
            answer arriving inside this window still wins.  Races ended
            by a winner skip this wait — leftovers go to the reaper.
        reap_patience: how long abandoned mid-solve losers may clog
            workers before an *idle* portfolio terminates the pool
            (rebuilt lazily) to reclaim them.

    The process pool is created lazily and reused across calls; use the
    portfolio as a context manager (or call :meth:`close`) to release it.
    """

    def __init__(
        self,
        configs: list[SolverConfig] | None = None,
        jobs: int | None = None,
        quick_slice: float = DEFAULT_QUICK_SLICE,
        stagger: float | None = None,
        drain: float = 0.1,
        reap_patience: float = 2.0,
    ):
        self.configs = list(configs) if configs is not None else default_portfolio_configs()
        cores = os.cpu_count() or 1
        self.jobs = min(4, cores) if jobs is None else jobs
        self.quick_slice = quick_slice
        self.stagger = (0.0 if cores >= max(self.jobs, 2) else 0.05) if stagger is None else stagger
        self.drain = drain
        self.reap_patience = reap_patience
        self.total_launched = 0
        #: Mid-solve losers abandoned past ``reap_patience`` (cumulative);
        #: each one cost a pool rebuild to reclaim its worker.
        self.leaked = 0
        #: Races the broken-pool in-process fallback decided (cumulative):
        #: the pool died under them and the parent solved solo instead of
        #: returning ``unknown``.
        self.solo_fallbacks = 0
        self._executor: ProcessPoolExecutor | None = None
        # One lock/condition guards pool lifetime, the slot free-list,
        # the reap queue, and the active-race count.  It is never held
        # while waiting on solver futures.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._events: list | None = None     # per-slot cancellation events
        self._free: list[int] = []           # free slot indices
        self._reaping: list[tuple[int, list[Future], float]] = []
        self._generation = 0                 # bumped on every pool teardown
        self._active = 0                     # races currently in fan-out
        self._slot_count = max(8, 2 * max(1, self.jobs))

    # ------------------------------------------------------------------
    # pool + slot lifecycle (all *_locked helpers need self._lock held)
    # ------------------------------------------------------------------
    def _ensure_pool_locked(self) -> ProcessPoolExecutor:
        if self._executor is None:
            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else methods[0])
            self._events = [ctx.Event() for _ in range(self._slot_count)]
            self._free = list(range(self._slot_count))
            self._reaping = []
            self._executor = ProcessPoolExecutor(
                max_workers=max(1, self.jobs),
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._events,),
            )
        return self._executor

    def _terminate_pool_locked(self) -> None:
        executor, self._executor = self._executor, None
        events, self._events = self._events, None
        self._free = []
        self._reaping = []
        self._generation += 1
        self._cond.notify_all()
        if executor is None:
            return
        if events is not None:
            for event in events:
                event.set()
        # ProcessPoolExecutor exposes no public kill; fall back to leaving
        # the workers alone if the private handle ever disappears.
        procs = dict(getattr(executor, "_processes", None) or {})
        executor.shutdown(wait=False, cancel_futures=True)
        # Wait for the management thread to process the shutdown wakeup:
        # it prunes already-cancelled work items (races cancel losers) and
        # then clears _cancel_pending_futures.  Terminating workers before
        # that prune makes its broken-pool cleanup set_exception() on
        # cancelled futures — an InvalidStateError that kills the thread
        # mid-cleanup and leaks its queues.
        deadline = time.monotonic() + 1.0
        while (
            getattr(executor, "_cancel_pending_futures", False)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()

    def _reap_locked(self) -> None:
        """Release slots whose abandoned futures have since finished.

        A slot's cancellation event stays set until every straggler is
        gone, so a reused slot can never un-cancel a stale worker.  If
        zombies outlive ``reap_patience`` while *no* race is active, the
        pool is terminated (rebuilt lazily) to reclaim their workers.
        """
        if self._events is None:
            self._reaping = []
            return
        still: list[tuple[int, list[Future], float]] = []
        now = time.monotonic()
        for slot, futs, since in self._reaping:
            live = [f for f in futs if not f.done()]
            if not live:
                self._events[slot].clear()
                self._free.append(slot)
                self._cond.notify()
            elif now - since > self.reap_patience and self._active == 0:
                self.leaked += len(live)
                self._terminate_pool_locked()
                return
            else:
                still.append((slot, live, since))
        self._reaping = still

    def _begin_race(self) -> RaceHandle:
        """Lease a cancellation slot over the (lazily built) shared pool."""
        with self._cond:
            while True:
                executor = self._ensure_pool_locked()
                self._reap_locked()
                if self._executor is None:   # reaper just tore it down
                    continue
                if self._free:
                    slot = self._free.pop()
                    self._active += 1
                    return RaceHandle(self, executor, slot, self._generation)
                # Every slot is leased (concurrent races plus unreaped
                # leftovers): wait for one, re-reaping on each wake.
                self._cond.wait(0.05)

    def _end_race(self, handle: RaceHandle) -> None:
        """Return a race's slot — directly, or via the reaper when the
        race abandoned still-running futures."""
        with self._cond:
            self._active -= 1
            if handle.generation != self._generation or self._events is None:
                return
            live = [
                f for f in handle.futures if not f.done() and not f.cancelled()
            ]
            if live:
                self._reaping.append((handle.slot, live, time.monotonic()))
            else:
                self._events[handle.slot].clear()
                self._free.append(handle.slot)
                self._cond.notify()
                return
        # Outside the lock (a done future runs its callback inline): when
        # the stragglers finish, the slot comes home immediately instead
        # of waiting for the next race to trip the reaper.
        for fut in live:
            fut.add_done_callback(lambda _f: self._reap())

    def _reap(self) -> None:
        """Opportunistic reap (future done-callbacks and idle cleanup)."""
        with self._cond:
            self._reap_locked()

    def _set_cancel(self, handle: RaceHandle) -> None:
        with self._lock:
            if handle.generation == self._generation and self._events is not None:
                self._events[handle.slot].set()

    def _rebuild_if_solo(self) -> bool:
        """After a ``BrokenExecutor``: terminate the dead pool for a lazy
        rebuild, but only when the caller is the only active race —
        sibling races degrade to ``unknown`` on their own terms."""
        with self._cond:
            if self._active > 1:
                return False
            self._terminate_pool_locked()
            return True

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

    def _note_launched(self, n: int) -> None:
        with self._lock:
            self.total_launched += n

    @property
    def generation(self) -> int:
        """Pool generation: bumped once per pool teardown/rebuild cycle.

        The chaos harness asserts on it — a worker SIGKILL mid-race must
        advance it exactly once, not once per orphaned future.
        """
        with self._lock:
            return self._generation

    def health(self) -> dict:
        """Pool liveness/degradation snapshot (the daemon ``health`` op)."""
        with self._lock:
            return {
                "generation": self._generation,
                "pool_alive": self._executor is not None,
                "active_races": self._active,
                "free_slots": len(self._free),
                "reaping": len(self._reaping),
                "leaked": self.leaked,
                "solo_fallbacks": self.solo_fallbacks,
                "total_launched": self.total_launched,
                "jobs": self.jobs,
            }

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Spin up the worker pool ahead of the first race (benchmarks)."""
        if self.jobs > 1:
            with self._lock:
                executor = self._ensure_pool_locked()
            wait([executor.submit(os.getpid) for _ in range(self.jobs)])

    def close(self) -> None:
        """Tear the worker pool down (safe to call repeatedly).

        Running workers are terminated: a mid-solve racer cannot be
        interrupted cooperatively, and letting it run to completion would
        block interpreter exit on the pool's atexit join.
        """
        with self._cond:
            self._terminate_pool_locked()

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
        lead: str | None = None,
    ) -> PortfolioResult:
        """Race the line-up on the kernel *packed*; see the module docstring.

        Safe to call from any number of threads at once — each call runs
        its own race over the shared pool.

        Args:
            lead: name of the configuration to move to the front for this
                race only — it takes the quick slice and the zero-stagger
                slot (the session stages CDCL ahead of DPLL on tightening
                changes this way).  Unknown names are ignored.

        Returns an ``unknown`` result only when every configuration came
        back undecided within its budget.
        """
        if not self.configs:
            raise ValueError("portfolio has no solver configurations")
        t0 = time.perf_counter()
        configs = self.configs
        if lead is not None:
            promoted = [c for c in configs if c.name == lead]
            if promoted:
                configs = promoted + [c for c in configs if c.name != lead]
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
                    outcomes, via_quick_slice=True, executed=launched,
                )

        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - (time.perf_counter() - t0))

        # Phase 2: fan out (or fall back to a sequential scan).
        if self.jobs <= 1:
            winner = None
            for config in configs:
                if deadline is not None:
                    remaining = max(0.0, deadline - (time.perf_counter() - t0))
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
                time.perf_counter() - t0, outcomes, executed=launched,
            )

        # Ship the packed kernel's raw bytes to every worker: each worker
        # pays two array copies instead of unpickling an object graph of
        # clause instances.
        payload = packed.to_bytes()
        handle = self._begin_race()
        pending: set[Future] = set()
        winner: SolverOutcome | None = None
        timed_out = False
        pool_broken = False
        retried = False
        not_run = 0
        next_config = 0
        # Workers never ship spans back across the process boundary; the
        # parent reconstructs `pool.wait` (its own clock) and `solve`
        # (the winner's wall_time) as synthetic spans at race end,
        # parented on whatever stage is active right now (engine.solve).
        trace_tracer, trace_ctx = tracing.active()
        wait_t0 = time.monotonic()
        first_done: float | None = None
        try:
            while True:
                # Top up this race's apportioned share of the pool.
                if winner is None and not timed_out and not pool_broken:
                    share = self._share(len(configs))
                    while next_config < len(configs) and len(pending) < share:
                        config = configs[next_config]
                        try:
                            fut = handle.submit(
                                config, payload, remaining, seed, hint,
                                next_config * self.stagger,
                            )
                        except BrokenExecutor:
                            # An idle worker died between races; rebuild
                            # the pool once if nobody else is racing on it.
                            if (
                                not retried
                                and not pending
                                and self._rebuild_if_solo()
                            ):
                                retried = True
                                self._end_race(handle)
                                handle = self._begin_race()
                                continue
                            pool_broken = True
                            break
                        pending.add(fut)
                        launched += 1
                        next_config += 1
                if winner is not None or not pending:
                    break
                # The parent enforces the deadline too: queued tasks only
                # start their own budget when a worker picks them up, so
                # with more configs than workers the race would otherwise
                # overshoot.
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - (time.perf_counter() - t0)) + 0.05
                done, pending = wait(
                    pending, return_when=FIRST_COMPLETED, timeout=timeout
                )
                if done and first_done is None:
                    first_done = time.monotonic()
                if not done:
                    timed_out = True
                    break
                for fut in done:
                    try:
                        out = fut.result()
                    except BrokenExecutor as exc:
                        pool_broken = True
                        out = SolverOutcome(
                            UNKNOWN, None, handle.futures[fut].name, 0.0,
                            f"worker error: {exc!r}",
                        )
                    except Exception as exc:  # worker died (OOM, signal, ...)
                        out = SolverOutcome(
                            UNKNOWN, None, handle.futures[fut].name, 0.0,
                            f"worker error: {exc!r}",
                        )
                    outcomes.append(out)
                    if winner is None and _trusted(handle.futures[fut], out):
                        winner = out
            self._note_launched(launched)

            if pending:
                handle.cancel()
                for fut in pending:
                    if fut.cancel():       # still queued: its solver never ran
                        not_run += 1
                live = {fut for fut in pending if not fut.cancelled()}
                if winner is None and live:
                    # The deadline cut us loose, not an earlier winner:
                    # give running racers the drain window to cross the
                    # line — a definitive verdict arriving now is just as
                    # trustworthy, so it still wins instead of being
                    # dropped on the floor.
                    done, _still = wait(live, timeout=self.drain)
                    if done and first_done is None:
                        first_done = time.monotonic()
                    for fut in done:
                        try:
                            out = fut.result()
                        except Exception:
                            continue
                        outcomes.append(out)
                        if out.detail == "cancelled":   # bailed in the stagger
                            not_run += 1
                        elif winner is None and _trusted(handle.futures[fut], out):
                            winner = out
                            timed_out = False
                # Anything still running is a mid-solve loser: it cannot
                # be interrupted, and terminating the shared pool would
                # kill sibling races — the reaper (via _end_race) holds
                # its slot until it finishes, and only tears the pool
                # down if zombies linger while the portfolio is idle.
        finally:
            self._end_race(handle)
        if pool_broken:
            # A dead worker poisons the whole executor: once no sibling
            # race is left on it, rebuild lazily so the next race degrades
            # to "unknown", not BrokenProcessPool.
            with self._cond:
                if self._active == 0:
                    self._terminate_pool_locked()

        if winner is None and pool_broken:
            # Last resort: the pool died under this race before any racer
            # produced a trusted verdict.  Solve solo in the parent
            # process — immune to worker SIGKILLs by construction — with
            # whatever deadline budget is left, so a broken pool degrades
            # to a slower correct answer instead of "unknown".
            solo_budget = None
            if deadline is not None:
                solo_budget = max(0.0, deadline - (time.perf_counter() - t0))
            if solo_budget is None or solo_budget > 0.0:
                first = configs[0]
                launched += 1
                out = run_packed(
                    first, packed, deadline=solo_budget, seed=seed, hint=hint
                )
                outcomes.append(out)
                with self._lock:
                    self.solo_fallbacks += 1
                    self.total_launched += 1
                if _trusted(first, out):
                    winner = out
                    timed_out = False

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
            time.perf_counter() - t0, outcomes, executed=launched - not_run,
            transport_bytes=len(payload),
        )


def _best_unknown(outcomes: list[SolverOutcome]) -> SolverOutcome:
    """Aggregate an all-unknown race into one outcome."""
    detail = "; ".join(
        f"{o.solver}: {o.detail or o.status}" for o in outcomes
    )
    return SolverOutcome(UNKNOWN, None, "portfolio", 0.0, detail or "no outcomes")
