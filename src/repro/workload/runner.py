"""Closed/open-loop load driver and trace replay verification.

The runner executes a :class:`~repro.workload.scenarios.WorkloadEvent`
stream against a *target* — an in-process
:class:`~repro.service.service.SolverService` or a ``repro serve``
daemon through :class:`~repro.service.client.ServiceClient` — and
reports throughput, latency percentiles, and the engine/cache counter
deltas the run produced.  Two load models:

* **closed-loop** (:func:`run_closed`) — N workers, each owning one
  connection, issuing its next request the moment the previous answer
  arrives; offered load adapts to service speed (the classic
  benchmarking loop).  Events sharing an ordering ``key`` (a session
  name) are pinned to one worker, so a change can never overtake the
  open that creates its session.
* **open-loop** (:func:`run_open`) — requests are *dispatched on a
  schedule* regardless of completions: a seeded Poisson arrival process
  at ``--rate`` λ, or the trace's own recorded offsets (scaled by
  ``speed``).  Per-key ordering is kept by chaining each event on its
  predecessor's future; the report separates service latency from
  *lateness* (how far behind schedule dispatch fell — the open-loop
  overload signal a closed loop structurally cannot show).

Replay (:func:`replay_trace`) re-executes a recorded trace and verifies
every response against the recorded one — status, fingerprint, and
model literals must match byte-for-byte (``repro replay``'s exit code
rides on it).  With ``batch_segments=True`` consecutive stateless solve
records are coalesced into wire-level ``solve_many`` batches.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cnf.packed import PackedCNF
from repro.errors import ReproError
from repro.obs.histogram import LatencyHistogram
from repro.service.requests import SolveRequest, SolveResponse
from repro.service.wire import response_to_wire
from repro.workload.scenarios import WorkloadEvent
from repro.workload.trace import (
    Trace,
    TraceRecorder,
    event_to_wire,
    expected_outcomes,
    record_to_event,
)


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------
class InProcessTarget:
    """Adapter lending a shared :class:`SolverService` to one worker.

    ``close()`` is a no-op: the service outlives the run (its owner
    closes it), while socket targets really do close per-worker
    connections — the runner treats both uniformly.
    """

    def __init__(self, service):
        self._service = service

    def solve(self, request) -> SolveResponse:
        return self._service.solve(request)

    def change(self, request) -> SolveResponse:
        return self._service.change(request)

    def close_session(self, name: str) -> bool:
        return self._service.close_session(name)

    def solve_many(self, formulas, **options) -> list[SolveResponse]:
        return self._service.solve_many(formulas, **options)

    def stats(self) -> dict:
        return self._service.stats()

    def close(self) -> None:
        pass


def inprocess_factory(service):
    """A target factory lending *service* to every worker."""
    return lambda: InProcessTarget(service)


def client_factory(
    address: str,
    *,
    timeout: float | None = 300.0,
    auth_token: str | None = None,
):
    """A target factory opening one daemon connection per worker.

    *address* takes anything :func:`~repro.service.address.parse_address`
    does — a Unix socket path, ``unix://PATH``, or ``tcp://HOST:PORT``
    (a single node or a ``repro route`` front-end); *auth_token* falls
    back to ``$REPRO_AUTH_TOKEN`` inside the client.
    """
    from repro.service.client import ServiceClient

    return lambda: ServiceClient(address, timeout=timeout, auth_token=auth_token)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class EventResult:
    """Outcome of one executed workload event."""

    index: int
    kind: str
    ok: bool = True
    error: str = ""
    latency: float = 0.0          # service time (request -> response)
    started: float = 0.0          # offset from run start at dispatch
    due: float | None = None      # open-loop schedule slot (None = closed)
    responses: tuple[SolveResponse, ...] = ()
    existed: bool | None = None   # close_session outcome

    @property
    def lateness(self) -> float:
        """Seconds behind schedule (0 for closed-loop / on-time)."""
        if self.due is None:
            return 0.0
        return max(0.0, self.started - self.due)


def _run_one(
    target, event: WorkloadEvent, index: int, t0: float, due: float | None = None
) -> EventResult:
    """Execute one event, capturing latency and any service error."""
    started = time.perf_counter() - t0
    result = EventResult(index=index, kind=event.kind, started=started, due=due)
    call_t0 = time.perf_counter()
    try:
        if event.kind == "solve":
            result.responses = (target.solve(event.request),)
        elif event.kind == "change":
            result.responses = (target.change(event.request),)
        elif event.kind == "close_session":
            result.existed = target.close_session(event.session)
        elif event.kind == "solve_many":
            result.responses = tuple(
                target.solve_many(list(event.formulas), **(event.options or {}))
            )
        else:  # pragma: no cover - WorkloadEvent validates kinds
            raise ReproError(f"unknown event kind {event.kind!r}")
    except (ReproError, OSError) as exc:
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
    result.latency = time.perf_counter() - call_t0
    return result


def run_closed(
    events: list[WorkloadEvent],
    target_factory,
    *,
    concurrency: int = 1,
) -> tuple[list[EventResult], float]:
    """Closed-loop execution: per-worker back-to-back requests.

    Events are partitioned by ordering key — all events of one session
    land on one worker (in stream order); keyless events round-robin.

    Returns:
        (per-event results in stream order, wall seconds).
    """
    workers = max(1, concurrency)
    assignments: list[list[int]] = [[] for _ in range(workers)]
    key_worker: dict[str, int] = {}
    stateless = 0
    for i, event in enumerate(events):
        key = event.key
        if key is None:
            assignments[stateless % workers].append(i)
            stateless += 1
        else:
            w = key_worker.setdefault(key, len(key_worker) % workers)
            assignments[w].append(i)
    results: list[EventResult | None] = [None] * len(events)
    t0 = time.perf_counter()

    def work(indices: list[int]) -> None:
        try:
            target = target_factory()
        except (ReproError, OSError) as exc:
            # A worker that cannot reach the daemon (dead socket, spent
            # connect budget) fails its share of events, not the run.
            started = time.perf_counter() - t0
            for i in indices:
                results[i] = EventResult(
                    index=i, kind=events[i].kind, ok=False,
                    error=f"{type(exc).__name__}: {exc}", started=started,
                )
            return
        try:
            for i in indices:
                results[i] = _run_one(target, events[i], i, t0)
        finally:
            target.close()

    threads = [
        threading.Thread(target=work, args=(idx,), daemon=True)
        for idx in assignments
        if idx
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(time.perf_counter() - t0, 1e-9)
    final = [
        r
        if r is not None
        else EventResult(i, events[i].kind, ok=False, error="worker died")
        for i, r in enumerate(results)
    ]
    return final, wall


def run_open(
    events: list[WorkloadEvent],
    target_factory,
    *,
    rate: float | None = None,
    speed: float = 1.0,
    max_workers: int = 16,
    seed: int = 0,
) -> tuple[list[EventResult], float]:
    """Open-loop execution: dispatch on a schedule, not on completions.

    Args:
        rate: Poisson arrival rate in events/second (seeded, so a rerun
            offers the identical schedule); when None the events' own
            ``at`` offsets are used (recorded traces), divided by
            ``speed``.
        speed: time-compression factor for recorded offsets (2.0 plays
            a trace back twice as fast).
        max_workers: bound on concurrently in-flight requests.

    Per-key ordering is preserved by chaining each event on its
    predecessor's future — a session's change waits for its open even
    if the schedule says otherwise (the wait shows up as lateness).
    """
    if rate is not None and rate <= 0:
        raise ReproError("open-loop rate must be positive")
    if speed <= 0:
        raise ReproError("open-loop speed must be positive")
    dues: list[float] = []
    if rate is not None:
        rng = random.Random(seed)
        t = 0.0
        for _ in events:
            t += rng.expovariate(rate)
            dues.append(t)
    else:
        last = 0.0
        for event in events:
            last = (event.at / speed) if event.at is not None else last
            dues.append(last)
    results: list[EventResult | None] = [None] * len(events)
    local = threading.local()
    made: list = []
    made_lock = threading.Lock()

    def get_target():
        target = getattr(local, "target", None)
        if target is None:
            target = target_factory()
            local.target = target
            with made_lock:
                made.append(target)
        return target

    chains: dict[str, Future] = {}
    t0 = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=max(1, max_workers), thread_name_prefix="repro-loadgen"
    ) as executor:
        for i, (event, due) in enumerate(zip(events, dues)):
            now = time.perf_counter() - t0
            if due > now:
                time.sleep(due - now)
            predecessor = chains.get(event.key) if event.key is not None else None

            def task(i=i, event=event, due=due, predecessor=predecessor):
                if predecessor is not None:
                    try:
                        predecessor.result()
                    except Exception:  # the dependency's own result records it
                        pass
                try:
                    target = get_target()
                except (ReproError, OSError) as exc:
                    # Connect failure fails this event, not the pool
                    # thread — later events retry the factory fresh.
                    local.target = None
                    results[i] = EventResult(
                        index=i, kind=event.kind, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        started=time.perf_counter() - t0, due=due,
                    )
                    return
                results[i] = _run_one(target, event, i, t0, due=due)

            future = executor.submit(task)
            if event.key is not None:
                chains[event.key] = future
    wall = max(time.perf_counter() - t0, 1e-9)
    for target in made:
        target.close()
    final = [
        r
        if r is not None
        else EventResult(i, events[i].kind, ok=False, error="never dispatched")
        for i, r in enumerate(results)
    ]
    return final, wall


def run_events(
    events: list[WorkloadEvent],
    target_factory,
    *,
    mode: str = "closed",
    concurrency: int = 1,
    rate: float | None = None,
    speed: float = 1.0,
    max_workers: int = 16,
    seed: int = 0,
) -> tuple[list[EventResult], float]:
    """Dispatch to :func:`run_closed` / :func:`run_open` by mode."""
    if mode == "closed":
        return run_closed(events, target_factory, concurrency=concurrency)
    if mode == "open":
        return run_open(
            events, target_factory, rate=rate, speed=speed,
            max_workers=max_workers, seed=seed,
        )
    raise ReproError(f"unknown load mode {mode!r} (expected 'closed' or 'open')")


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values (q in 0..100)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (position - lo)


def latency_summary(latencies: list[float]) -> dict:
    """mean/p50/p90/p99/max (+ count) of a latency sample, in seconds.

    Backed by the shared log-bucketed histogram
    (:class:`~repro.obs.histogram.LatencyHistogram`): mean and max are
    exact, the percentiles bucket-resolved (within ~7.5% relative), and
    the empty/single-sample edge cases are exact by construction — the
    same math every other observability surface reports.
    """
    return LatencyHistogram.of(latencies).summary()


#: Snapshot leaves that are gauges/ratios/distribution summaries, not
#: monotone counters — subtracting them would report nonsense (a falling
#: cumulative ``hit_rate`` is not a per-run rate, ``entries``/``bytes``
#: shrink under eviction, ``inflight``/``queued``/``sessions`` are
#: instantaneous depths, and histogram summary leaves like ``p99`` are
#: positions, not counts), so they keep their *after* value.
_GAUGE_KEYS = frozenset({
    "hit_rate", "entries", "bytes",
    "inflight", "queued", "sessions",
    "mean", "min", "max", "p50", "p90", "p99",
})


def counters_delta(before: dict, after: dict) -> dict:
    """Numeric difference of two nested counter snapshots.

    Gauge leaves (:data:`_GAUGE_KEYS`) and non-numeric leaves keep their
    *after* value.  A counter missing from *before* starts at 0 — a
    counter born mid-run (the first ``errors`` or ``inflight_joins``
    bump on a fresh registry) must show up in the run's delta, not
    vanish.  Keys only *before* has are dropped — the result is what
    the run itself contributed on a long-lived shared engine.
    """
    out: dict = {}
    for key, after_value in after.items():
        before_value = before.get(key)
        if isinstance(after_value, dict):
            if isinstance(before_value, dict) or before_value is None:
                out[key] = counters_delta(before_value or {}, after_value)
            else:
                out[key] = after_value
        elif key not in _GAUGE_KEYS and isinstance(
            after_value, (int, float)
        ) and not isinstance(after_value, bool) and (
            before_value is None
            or (
                isinstance(before_value, (int, float))
                and not isinstance(before_value, bool)
            )
        ):
            out[key] = after_value - (before_value or 0)
        else:
            out[key] = after_value
    return out


@dataclass
class LoadReport:
    """One run's aggregate outcome (JSON-able via :meth:`to_dict`)."""

    scenario: str
    mode: str
    concurrency: int
    events: int
    errors: int
    wall_time: float
    throughput: float                      # completed events / second
    latency: dict = field(default_factory=dict)
    latency_histogram: dict | None = None  # serialized LatencyHistogram
    lateness: dict | None = None           # open-loop only
    by_kind: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    counters: dict | None = None           # engine/cache delta for the run
    mismatches: int = -1                   # replay verification (-1 = not run)
    mismatch_detail: list = field(default_factory=list)
    error_detail: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "mode": self.mode,
            "concurrency": self.concurrency,
            "events": self.events,
            "errors": self.errors,
            "wall_time": self.wall_time,
            "throughput": self.throughput,
            "latency": self.latency,
            "by_kind": self.by_kind,
            "statuses": self.statuses,
        }
        if self.latency_histogram is not None:
            out["latency_histogram"] = self.latency_histogram
        if self.lateness is not None:
            out["lateness"] = self.lateness
        if self.counters is not None:
            out["counters"] = self.counters
        if self.mismatches >= 0:
            out["mismatches"] = self.mismatches
            if self.mismatch_detail:
                out["mismatch_detail"] = self.mismatch_detail
        if self.error_detail:
            out["error_detail"] = self.error_detail
        return out


def summarize(
    results: list[EventResult],
    wall: float,
    *,
    scenario: str = "",
    mode: str = "closed",
    concurrency: int = 1,
    stats_before: dict | None = None,
    stats_after: dict | None = None,
) -> LoadReport:
    """Fold per-event results into a :class:`LoadReport`."""
    ok = [r for r in results if r.ok]
    by_kind: dict[str, int] = {}
    statuses: dict[str, int] = {}
    for r in results:
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
        for response in r.responses:
            statuses[response.status] = statuses.get(response.status, 0) + 1
    hist = LatencyHistogram.of(r.latency for r in ok)
    report = LoadReport(
        scenario=scenario,
        mode=mode,
        concurrency=concurrency,
        events=len(results),
        errors=len(results) - len(ok),
        wall_time=wall,
        throughput=len(ok) / wall,
        latency=hist.summary(),
        latency_histogram=hist.to_dict(),
        by_kind=by_kind,
        statuses=statuses,
        error_detail=[
            f"event {r.index} ({r.kind}): {r.error}" for r in results if not r.ok
        ][:10],
    )
    if mode == "open":
        report.lateness = latency_summary([r.lateness for r in ok])
    if stats_before is not None and stats_after is not None:
        report.counters = counters_delta(stats_before, stats_after)
    return report


# ----------------------------------------------------------------------
# replay with verification
# ----------------------------------------------------------------------
def _observed_outcomes(result: EventResult) -> list[dict]:
    """The verification tuples a live run produced (mirror of
    :func:`repro.workload.trace.expected_outcomes`)."""
    if result.kind == "close_session":
        return [{"existed": bool(result.existed)}]
    return [
        {
            "status": r.status,
            "fingerprint": r.fingerprint,
            "literals": (
                tuple(r.assignment.to_literals())
                if r.assignment is not None
                else None
            ),
        }
        for r in result.responses
    ]


def verify_results(
    pairs: list[tuple[WorkloadEvent, list[dict]]],
    results: list[EventResult],
) -> list[str]:
    """Mismatch descriptions between a replay run and its trace."""
    problems: list[str] = []
    for (event, expected), result in zip(pairs, results):
        if not result.ok:
            problems.append(f"event {result.index} ({event.kind}): {result.error}")
            continue
        observed = _observed_outcomes(result)
        if len(observed) != len(expected):
            problems.append(
                f"event {result.index} ({event.kind}): {len(observed)} responses, "
                f"trace recorded {len(expected)}"
            )
            continue
        for j, (got, want) in enumerate(zip(observed, expected)):
            for fkey in want:
                if got.get(fkey) != want[fkey]:
                    problems.append(
                        f"event {result.index} ({event.kind})[{j}]: {fkey} "
                        f"{got.get(fkey)!r} != recorded {want[fkey]!r}"
                    )
    return problems


def _materialize(request: SolveRequest):
    """The kernel a stateless solve request carries."""
    if request.formula is not None:
        return request.formula.packed()
    return PackedCNF.from_bytes(request.packed_bytes)


def _batchable(event: WorkloadEvent) -> bool:
    """Whether a solve event can fold into a wire-level batch."""
    req = event.request
    return (
        event.kind == "solve"
        and req is not None
        and req.session is None
        and req.strategy == "portfolio"
        and req.hint is None
        and req.has_source
    )


def coalesce_batches(
    pairs: list[tuple[WorkloadEvent, list[dict]]], min_run: int = 2
) -> list[tuple[WorkloadEvent, list[dict]]]:
    """Fold runs of compatible stateless solves into ``solve_many`` events.

    Consecutive stateless portfolio solves with identical shared options
    become one wire-level batch (their expected outcome lists are
    concatenated, so verification still covers every instance).
    """
    out: list[tuple[WorkloadEvent, list[dict]]] = []
    i = 0
    while i < len(pairs):
        event, expected = pairs[i]
        if not _batchable(event):
            out.append(pairs[i])
            i += 1
            continue
        run = [pairs[i]]
        opts = (event.request.deadline, event.request.seed)
        j = i + 1
        while j < len(pairs) and _batchable(pairs[j][0]):
            req = pairs[j][0].request
            if (req.deadline, req.seed) != opts:
                break
            run.append(pairs[j])
            j += 1
        if len(run) < min_run:
            out.append(pairs[i])
            i += 1
            continue
        batched = WorkloadEvent(
            "solve_many",
            formulas=tuple(_materialize(ev.request) for ev, _ in run),
            options={"deadline": opts[0], "seed": opts[1]},
            at=event.at,
        )
        out.append((batched, [exp[0] for _, exp in run]))
        i = j
    return out


def replay_trace(
    trace: Trace,
    target_factory,
    *,
    mode: str = "closed",
    concurrency: int = 1,
    rate: float | None = None,
    speed: float = 1.0,
    max_workers: int = 16,
    verify: bool = True,
    batch_segments: bool = False,
    seed: int = 0,
    stats_target=None,
) -> LoadReport:
    """Re-execute a recorded trace and verify it reproduced itself.

    Args:
        trace: a parsed :class:`~repro.workload.trace.Trace`.
        target_factory: per-worker target constructor (see
            :func:`inprocess_factory` / :func:`client_factory`).
        mode/concurrency/rate/speed: load model (closed-loop by default;
            ``mode="open"`` without a rate replays the recorded arrival
            offsets, scaled by ``speed``).
        verify: compare every response against the recorded one.
        batch_segments: coalesce consecutive stateless solves into
            wire-level ``solve_many`` batches (see
            :func:`coalesce_batches`).
        stats_target: optional extra target used to snapshot engine/
            cache counters around the run.
    """
    pairs = [
        (record_to_event(record), expected_outcomes(record))
        for record in trace.records
    ]
    if batch_segments:
        pairs = coalesce_batches(pairs)
    events = [event for event, _ in pairs]
    before = stats_target.stats() if stats_target is not None else None
    results, wall = run_events(
        events, target_factory, mode=mode, concurrency=concurrency,
        rate=rate, speed=speed, max_workers=max_workers, seed=seed,
    )
    after = stats_target.stats() if stats_target is not None else None
    report = summarize(
        results, wall,
        scenario=str(trace.meta.get("scenario", "replay")),
        mode=mode, concurrency=concurrency,
        stats_before=before, stats_after=after,
    )
    if verify:
        problems = verify_results(pairs, results)
        report.mismatches = len(problems)
        report.mismatch_detail = problems[:10]
    return report


# ----------------------------------------------------------------------
# driver-side recording
# ----------------------------------------------------------------------
def write_trace_from_run(
    path: str,
    events: list[WorkloadEvent],
    results: list[EventResult],
    *,
    meta: dict | None = None,
) -> int:
    """Persist an executed stream as a replayable trace.

    Events are written in stream order with each result's latency as the
    recorded wall time and its dispatch offset as the arrival time, so
    an open-loop replay reproduces the run's pacing.  Failed events are
    skipped (a replay could not reproduce them); the count of written
    records is returned.
    """
    written = 0
    with TraceRecorder(path, meta=meta) as recorder:
        for event, result in zip(events, results):
            if not result.ok:
                continue
            op, header, payload = event_to_wire(event)
            if event.kind == "close_session":
                response: dict = {"ok": True, "existed": bool(result.existed)}
            elif event.kind == "solve_many":
                response = {
                    "ok": True,
                    "results": [response_to_wire(r) for r in result.responses],
                }
            else:
                response = response_to_wire(result.responses[0])
            recorder.record(
                op, header, payload, response,
                wall=result.latency, at=result.started,
            )
            written += 1
    return written
