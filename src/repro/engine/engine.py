"""The :class:`PortfolioEngine` facade: hint -> cache -> coalesce -> race.

Query path for ``engine.solve(packed, hint=previous_solution)``; every
step reads the instance's :class:`~repro.cnf.packed.PackedCNF` kernel:

1. **Fingerprint** — the kernel's incrementally maintained fp-v2 keys
   the cache and the in-flight table.
2. **Hint revalidation** — if the caller's previous solution already
   satisfies the instance (every loosening EC lands here), it is adopted
   and cached; no solver runs.  The hint outranks the cache and any
   concurrent race on the same instance, so a still-valid current
   solution is never churned for another model — minimal perturbation
   is the EC objective.
3. **Fingerprint lookup** — a content-addressed
   :class:`~repro.engine.cache.SolutionCache` hit answers repeated (and
   round-tripped, reordered, re-derived) instances without any solving.
   Cached models are still revalidated in O(clauses) before being served.
4. **Single-flight coalescing** — on a miss, a query whose fingerprint
   another thread is already racing *joins* that race instead of
   starting its own: it parks on the in-flight entry and receives an
   independently-owned copy of the leader's result
   (``source="inflight-join"``).  This generalizes
   :meth:`~PortfolioEngine.solve_many`'s intra-batch dedup across
   requests and threads.
5. **Portfolio race** — otherwise the configured
   :class:`~repro.engine.portfolio.Portfolio` races its solvers in
   line-up order, and any trusted verdict (verified model, or UNSAT from
   a complete solver) is cached for the next query.

Every answer is one :class:`~repro.engine.protocol.SolveResponse`, and
every query publishes its counter delta (the ``ENGINE_COUNTERS``) to
the engine's :class:`~repro.obs.metrics.MetricsRegistry` in one
``bump``: the registry is the only counter store, read back through
:meth:`PortfolioEngine.counters`.  Its ``solver_calls`` counts actual
solver launches, so tests and benchmarks can assert that steps 2-4
never touched a solver.

Concurrency model: the engine does not serialize queries.  Distinct
fingerprints race *concurrently* on the portfolio's shared worker
processes — each race leases its own workers, and the portfolio
apportions them between live races.  ``self.lock`` is a narrow
mutex guarding only shared mutable state with no thread-safety of its
own: the cache's LRU order and the in-flight table.  It is **never held
across solver execution**.  A cache miss joins or installs the
fingerprint's in-flight entry in the same acquisition that read the
cache, and a leader stores its verdict before it retires its entry, so
a query finds either the verdict or the race, never a gap between them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro import faults
from repro.cnf.assignment import Assignment
from repro.cnf.packed import PackedCNF
from repro.engine.cache import CacheBackend, SolutionCache
from repro.engine.config import EngineConfig, SolverConfig
from repro.engine.portfolio import DEFAULT_QUICK_SLICE, Portfolio
from repro.engine.protocol import SAT, UNSAT, SolveResponse
from repro.obs import tracing
from repro.obs.metrics import ENGINE_COUNTERS, LATENCY_HISTOGRAM, MetricsRegistry


@dataclass
class _InFlight:
    """One pending fingerprint in the single-flight table.

    The first query to miss the cache installs the entry and is the
    *leader*: it runs the race.  Every query that misses while the race
    runs parks on ``event`` and copies the leader's result (or re-raises
    its error) when it fires.
    """

    event: threading.Event = field(default_factory=threading.Event)
    result: SolveResponse | None = None
    error: BaseException | None = None
    #: The leader's ``engine.solve`` span id (when tracing is live) —
    #: joiners tag their ``inflight.join`` spans with it so a coalesced
    #: request's trace points at the race that actually answered it.
    span_id: str | None = None


def _owned_copy(base: SolveResponse, **changes) -> SolveResponse:
    """A copy of another query's answer that owns its model: callers
    mutate assignments freely (flips, don't-care recovery) and must not
    corrupt the original — the same invariant SolutionCache.get keeps."""
    model = base.assignment.copy() if base.assignment is not None else None
    return replace(base, assignment=model, from_cache=True, **changes)


class PortfolioEngine:
    """Cache-fronted portfolio solver, the engine behind
    ``ECFlow.resolve(strategy="portfolio")`` and ``repro solve --engine
    portfolio``.

    Thread-safe, and deliberately *concurrent*: callers on distinct
    fingerprints overlap end-to-end (their races share one process pool),
    while callers on the same fingerprint coalesce through the
    single-flight in-flight table — one race, N answers.

    Args:
        configs: portfolio line-up override.
        jobs: process-pool width (``<= 1`` = in-process sequential race).
        cache: shared :class:`~repro.engine.cache.CacheBackend` (a
            private in-memory :class:`SolutionCache` by default; pass a
            :class:`~repro.engine.diskcache.DiskCache` for persistence,
            or build either via :meth:`from_config`).
        quick_slice: lead-solver in-process budget, see
            :class:`~repro.engine.portfolio.Portfolio`.
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` that
            holds this engine's counters and latency observations (a
            private one by default).  It has its own narrow lock, so
            samplers and ``repro stats`` readers never queue behind a
            running race or the engine lock.
    """

    def __init__(
        self,
        configs: list[SolverConfig] | None = None,
        jobs: int | None = None,
        cache: CacheBackend | None = None,
        quick_slice: float = DEFAULT_QUICK_SLICE,
        metrics: MetricsRegistry | None = None,
    ):
        self.portfolio = Portfolio(configs=configs, jobs=jobs, quick_slice=quick_slice)
        self.cache = cache if cache is not None else SolutionCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Narrow mutex over shared mutable state that is not thread-safe
        # by itself: the cache's LRU bookkeeping and the in-flight
        # table.  Never held while a solver (or the
        # portfolio) runs — concurrency across queries is the point.
        # RLock so legacy callers that wrapped engine calls in
        # ``with engine.lock:`` keep working.
        self.lock = threading.RLock()
        self._inflight: dict[str, _InFlight] = {}
        self._closed = False

    @classmethod
    def from_config(cls, config: EngineConfig | None = None) -> "PortfolioEngine":
        """Build an engine (pool width, line-up, cache backend) from an
        :class:`~repro.engine.config.EngineConfig`.

        A ``config.chaos`` fault-plan spec is installed process-globally
        here, with env-var propagation so pool workers spawned later
        adopt the same plan — this is the ``repro serve --chaos`` path.
        """
        config = config if config is not None else EngineConfig()
        if config.chaos:
            faults.install(config.chaos, propagate=True)
        return cls(
            configs=list(config.configs) if config.configs is not None else None,
            jobs=config.jobs,
            cache=config.build_cache(),
            quick_slice=config.quick_slice,
        )

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """The engine counters (:data:`~repro.obs.metrics.ENGINE_COUNTERS`)
        as one consistent copy out of the registry — each query is one
        registry bump, so the ``solves == ...`` identity holds in it."""
        return self.metrics.counters(ENGINE_COUNTERS)

    # ------------------------------------------------------------------
    def solve(
        self,
        cnf: PackedCNF,
        *,
        deadline: float | None = None,
        seed: int | None = None,
        hint: Assignment | None = None,
    ) -> SolveResponse:
        """Answer a query on the kernel *cnf*: hint, cache, coalesce, race.

        The ``cache.lookup`` stage spans the hint check, the cache read
        and the choice to join or lead a race; its ``tier`` tag records
        which answered.  A joiner waits in an ``inflight.join`` stage of
        its own, after its ``engine.solve`` stage.
        """
        t0 = time.perf_counter()
        # fp-v2 is incrementally maintained on the kernel: every query
        # after an EC edit pays O(changed clauses), and the first query
        # pays O(clauses) once — or one SHA-256 of the clause arrays when
        # the process fingerprinted the same clause sequence before (a
        # repeated wire request).
        with tracing.stage("fingerprint"):
            fp = cnf.fingerprint()
        delta = dict.fromkeys(ENGINE_COUNTERS, 0)
        delta["solves"] = 1
        join = leading = None
        try:
            with tracing.stage("engine.solve") as sp:
                with tracing.stage("cache.lookup") as lookup:
                    result, join, leading = self._lookup(
                        cnf, fp, hint, delta, t0, lookup
                    )
                if leading is not None:
                    if sp is not None:
                        leading.span_id = sp.span_id
                    result = self._race(
                        cnf, fp, deadline=deadline, seed=seed, hint=hint,
                        delta=delta, t0=t0,
                    )
                if sp is not None and result is not None:
                    sp.tags["source"] = result.source
                    sp.tags["status"] = result.status
        except BaseException as exc:
            if leading is not None:
                self._retire(fp, leading, None, exc)
            raise
        if leading is not None:
            self._retire(fp, leading, result, None)
        if join is not None:
            return self._join(join, t0)
        # Published OUTSIDE the engine lock: the registry's own narrow
        # lock is the only thing a live reader contends with.
        self.metrics.bump(
            counts={k: v for k, v in delta.items() if v},
            observe={LATENCY_HISTOGRAM: result.wall_time},
        )
        return result

    def _lookup(
        self,
        cnf: PackedCNF,
        fp: str,
        hint: Assignment | None,
        delta: dict,
        t0: float,
        sp,
    ) -> tuple[SolveResponse | None, _InFlight | None, _InFlight | None]:
        """The hint, then the cache; on a miss, the fingerprint's flight.

        Returns ``(answer, join, leading)`` with exactly one of them set:
        the hint's or the cache's answer, a concurrent race's in-flight
        entry to join, or the entry this query installed and now leads.
        """
        # The hint is checked BEFORE the cache and any concurrent race:
        # a still-valid current solution must win over another model —
        # serving one here would churn the very solution the EC
        # methodology tries to preserve.
        if hint is not None and cnf.is_satisfied(hint):
            delta["revalidations"] += 1
            model = hint.copy()
            with self.lock:
                self.cache.put(fp, True, model, solver="revalidation")
            if sp is not None:
                sp.tags["tier"] = "revalidation"
            response = SolveResponse(
                SAT, assignment=model, fingerprint=fp,
                source="revalidation", wall_time=time.perf_counter() - t0,
            )
            return response, None, None

        # One acquisition reads the cache and, on a miss, joins or
        # installs the flight.  A leader stores its verdict before it
        # retires its flight, so a miss always finds the race in flight
        # and never starts a second one.
        with self.lock:
            entry = self.cache.get(fp)
            if entry is None:
                join, leading = self._flight_locked(fp)
        if entry is None:
            if sp is not None:
                sp.tags["tier"] = "miss"
            return None, join, leading
        if not entry.satisfiable or cnf.is_satisfied(entry.assignment):
            delta["cache_hits"] += 1
            if sp is not None:
                sp.tags["tier"] = "hit-sat" if entry.satisfiable else "hit-unsat"
            response = SolveResponse(
                SAT if entry.satisfiable else UNSAT,
                assignment=entry.assignment, fingerprint=fp, source="cache",
                wall_time=time.perf_counter() - t0, from_cache=True,
            )
            return response, None, None
        # A cached model that no longer verifies means a hash collision
        # or an upstream bug; drop it and race.
        with self.lock:
            self.cache.invalidate(fp)
            join, leading = self._flight_locked(fp)
        if sp is not None:
            sp.tags["tier"] = "invalidated"
        return None, join, leading

    def _flight_locked(self, fp: str) -> tuple[_InFlight | None, _InFlight | None]:
        """``(join, leading)``: the fingerprint's in-flight entry to join, or
        a new one this query leads.  Needs ``self.lock`` held."""
        flight = self._inflight.get(fp)
        if flight is not None:
            return flight, None
        flight = self._inflight[fp] = _InFlight()
        return None, flight

    def _join(self, flight: _InFlight, t0: float) -> SolveResponse:
        """Park on a concurrent identical query and copy its answer."""
        # The stage covers the whole park: its duration IS the time this
        # request spent waiting on the leader's race.  The leader tag is
        # set after the event fires — the leader may not have opened its
        # span yet when the joiner arrives.
        with tracing.stage("inflight.join") as sp:
            flight.event.wait()
            if sp is not None and flight.span_id is not None:
                sp.tags["leader"] = flight.span_id
        if flight.error is not None:
            raise flight.error
        base = flight.result
        wall = time.perf_counter() - t0
        self.metrics.bump(
            counts={"solves": 1, "inflight_joins": 1},
            observe={LATENCY_HISTOGRAM: wall},
        )
        # The race's diagnostics stay with the leader.
        return _owned_copy(base, source="inflight-join", wall_time=wall, detail="")

    def _retire(
        self,
        fp: str,
        flight: _InFlight,
        result: SolveResponse | None,
        error: BaseException | None,
    ) -> None:
        """Retire the leader's in-flight entry and release its joiners."""
        with self.lock:
            self._inflight.pop(fp, None)
        flight.result = result
        flight.error = error
        flight.event.set()

    def _race(
        self,
        cnf: PackedCNF,
        fp: str,
        *,
        deadline: float | None,
        seed: int | None,
        hint: Assignment | None,
        delta: dict,
        t0: float,
    ) -> SolveResponse:
        """Race the portfolio (the leader's step) and cache a trusted verdict.

        Counter changes go into *delta* (published by the caller in one
        registry bump); ``self.lock`` is taken only around the cache
        store, never across solving.
        """
        delta["races"] += 1
        result = self.portfolio.solve(cnf, deadline=deadline, seed=seed, hint=hint)
        delta["solver_calls"] += result.launched
        delta["transport_bytes"] += result.transport_bytes
        # Search-effort counters: sum every racer's structured stats —
        # effort spent across the whole race, not just the winner's.
        for raced in result.outcomes:
            st = raced.stats
            if st:
                delta["propagations"] += int(st.get("propagations", 0) or 0)
                delta["conflicts"] += int(st.get("conflicts", 0) or 0)
                delta["restarts"] += int(st.get("restarts", 0) or 0)
        outcome = result.outcome
        if outcome.is_definitive:
            with self.lock:
                self.cache.put(
                    fp, outcome.status == SAT, outcome.assignment,
                    solver=outcome.solver,
                )
        return SolveResponse(
            outcome.status,
            assignment=outcome.assignment,
            fingerprint=fp,
            source=result.winner or "portfolio",
            winner=result.winner,
            wall_time=time.perf_counter() - t0,
            detail=outcome.detail,
        )

    # ------------------------------------------------------------------
    def solve_many(
        self,
        cnfs: Iterable[PackedCNF],
        *,
        deadline: float | None = None,
        seed: int | None = None,
    ) -> list[SolveResponse]:
        """Answer a batch of queries with one pool warm-up and batch dedup.

        Bench sweeps and offline workloads hand over whole directories of
        instances; solving them through one engine shares a single
        (lazily started) worker pool and fingerprint cache across the
        batch, and this entry point additionally deduplicates by fp-v2
        fingerprint *within the batch*: repeats of an instance reuse the
        already-computed response directly (``source="batch-dedup"``),
        skipping even the cache round trip and its
        O(clauses) revalidation.  The pool spins up at most once, on the
        first query that actually fans out — easy batches decided by the
        quick slice never pay process-spawn latency.

        The batch does NOT serialize the engine: concurrent callers (other
        batches, single queries) interleave freely between this batch's
        queries, coalescing with them through the in-flight table when
        fingerprints collide.

        Args:
            deadline: per-instance wall-clock budget (not a batch total).
            deadline/seed: forwarded to :meth:`solve`.

        Returns:
            One :class:`~repro.engine.protocol.SolveResponse` per
            kernel in *cnfs*, in input order.
        """
        results: list[SolveResponse] = []
        first_by_fp: dict[str, int] = {}
        for cnf in cnfs:
            fp = cnf.fingerprint()
            prior = first_by_fp.get(fp)
            if prior is not None:
                self.metrics.bump(counts={"solves": 1, "batch_dedups": 1})
                results.append(
                    _owned_copy(results[prior], source="batch-dedup", wall_time=0.0)
                )
                continue
            result = self.solve(cnf, deadline=deadline, seed=seed)
            first_by_fp[fp] = len(results)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Degradation snapshot: the portfolio's workers (live, orphaned,
        and ``generation``: replaced after dying or being killed), solo
        fallbacks, cache degraded flags, and in-flight table depth (the
        daemon's ``health`` op rides this)."""
        with self.lock:
            inflight = len(self._inflight)
        return {
            "pool": self.portfolio.health(),
            "cache": self.cache.health(),
            "inflight_fingerprints": inflight,
        }

    def warm_up(self) -> None:
        """Fork the portfolio's ``jobs`` workers ahead of the first race
        (benchmark hygiene)."""
        self.portfolio.warm_up()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the engine stays queryable —
        a later race forks new workers — but owners should not reuse it)."""
        return self._closed

    def close(self) -> None:
        """Kill the portfolio's worker processes.

        Idempotent: an explicit ``close()`` followed by the context
        manager's ``__exit__`` (or any further close) is safe — the
        second call finds no worker and does nothing.
        """
        self._closed = True
        self.portfolio.close()

    def __enter__(self) -> "PortfolioEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
