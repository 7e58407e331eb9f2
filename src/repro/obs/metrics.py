"""Live metrics: the one counter store, frame diffing, and the monitor.

The :class:`MetricsRegistry` is the only store of engine and service
counters.  Hot paths publish **per-query deltas** into it under its own
narrow lock (one acquisition per query, dict adds inside), so samplers
and ``stats`` readers never contend with solving, and every reader
reports each count from this one source.

Three layers stack on the registry:

* :class:`MetricsRegistry` — monotone counters, gauges, per-key counter
  families (per-session usage), and named
  :class:`~repro.obs.histogram.LatencyHistogram` s;
* :class:`FrameTracker`   — turns the registry's monotone state into
  per-interval *frames* (rps, hit rate, interval latency percentiles)
  by diffing successive snapshots — each ``repro stats --watch``
  subscriber owns one, so subscribers at different intervals don't
  fight over a shared cursor;
* :class:`StatsMonitor`   — the daemon's background sampler: one frame
  per second into an rrd-style :class:`~repro.obs.timeseries.RingSeries`,
  plus the one-shot frame (windowed rates over the recent past, up to
  the instant of the call) behind ``repro stats --json``.
"""

from __future__ import annotations

import threading
import time

from repro.obs.histogram import LatencyHistogram
from repro.obs.timeseries import RingSeries

#: The engine's counters.  Each query bumps them once, so ``solves ==
#: cache_hits + revalidations + races + batch_dedups + inflight_joins``
#: holds in every registry snapshot; the CDCL effort counters sum every
#: racer's stats — where solver time went, not queries answered.
ENGINE_COUNTERS = (
    "solves",           # total queries answered (any path below)
    "cache_hits",       # answered from the fingerprint cache
    "revalidations",    # answered by revalidating the hint
    "races",            # portfolio races actually run
    "solver_calls",     # solver runs that actually started
    "batch_dedups",     # solve_many() queries answered intra-batch
    "inflight_joins",   # queries coalesced onto a concurrent twin
    "transport_bytes",  # wire payload bytes shipped to race workers
    "propagations",     # CDCL unit propagations across all racers
    "conflicts",        # CDCL conflicts across all racers
    "restarts",         # CDCL restarts across all racers
)

#: The counters a frame reports as per-interval deltas: the service's
#: front-door ``requests``/``errors`` plus every engine counter.
FRAME_COUNTERS = ("requests", "errors") + ENGINE_COUNTERS

#: The histogram every solve latency lands in.
LATENCY_HISTOGRAM = "solve_latency"


class MetricsRegistry:
    """Thread-safe named counters, gauges, families, and histograms.

    Every mutator takes the one internal lock exactly once; the hot-path
    entry point is :meth:`bump`, which applies a whole query's worth of
    deltas in a single acquisition.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._families: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------
    def bump(
        self,
        counts: dict | None = None,
        observe: dict | None = None,
        families: dict | None = None,
    ) -> None:
        """Apply one query's deltas atomically.

        Args:
            counts: ``{counter: delta}`` monotone increments.
            observe: ``{histogram: value}`` latency observations.
            families: ``{family: {key: delta}}`` per-key increments
                (e.g. per-session request counts).
        """
        with self._lock:
            if counts:
                for name, n in counts.items():
                    self._counters[name] = self._counters.get(name, 0) + n
            if observe:
                for name, value in observe.items():
                    hist = self._histograms.get(name)
                    if hist is None:
                        hist = self._histograms[name] = LatencyHistogram()
                    hist.record(value)
            if families:
                for family, keyed in families.items():
                    bucket = self._families.setdefault(family, {})
                    for key, n in keyed.items():
                        bucket[key] = bucket.get(key, 0) + n

    def inc(self, name: str, n: float = 1) -> None:
        """Increment one counter."""
        self.bump(counts={name: n})

    def observe(self, name: str, value: float) -> None:
        """Record one value into a named histogram."""
        self.bump(observe={name: value})

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to an absolute value."""
        with self._lock:
            self._gauges[name] = float(value)

    def adjust_gauge(self, name: str, delta: float) -> None:
        """Move a gauge by a delta (in-flight/queue-depth tracking)."""
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0.0) + delta

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self, names) -> dict:
        """The named counters in one acquisition (0 for a name never
        bumped) — a consistent view that copies no histogram."""
        with self._lock:
            return {name: self._counters.get(name, 0) for name in names}

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def histogram(self, name: str) -> LatencyHistogram:
        """An independent snapshot of a named histogram (empty if the
        name was never observed)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.copy() if hist is not None else LatencyHistogram()

    def raw(self) -> tuple[dict, dict, dict]:
        """(counters, gauges, histogram snapshots) — the diffing feed."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                {name: h.copy() for name, h in self._histograms.items()},
            )

    def snapshot(self) -> dict:
        """One JSON-able view of everything (histograms as summaries)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "families": {f: dict(k) for f, k in self._families.items()},
                "histograms": {
                    name: h.summary() for name, h in self._histograms.items()
                },
            }


class FrameTracker:
    """Successive-snapshot diffing of one registry into metric frames.

    Each tracker owns its own previous-snapshot cursor, so any number of
    subscribers can watch one registry at independent intervals.
    """

    def __init__(self, registry: MetricsRegistry, *, t0: float | None = None):
        self.registry = registry
        self._t0 = t0 if t0 is not None else time.monotonic()
        self._prev_t = time.monotonic()
        counters, _gauges, hists = registry.raw()
        self._prev_counters = counters
        self._prev_hist = hists.get(LATENCY_HISTOGRAM, LatencyHistogram())

    def tail(self, counters: dict, now: float) -> tuple[dict, float]:
        """Frame counter deltas of *counters* since the previous frame,
        and the seconds from that frame to *now*."""
        prev = self._prev_counters
        deltas = {n: counters.get(n, 0) - prev.get(n, 0) for n in FRAME_COUNTERS}
        return deltas, now - self._prev_t

    def frame(self) -> dict:
        """One per-interval frame since the previous call (or birth)."""
        now = time.monotonic()
        counters, gauges, hists = self.registry.raw()
        deltas, dt = self.tail(counters, now)
        dt = max(dt, 1e-9)
        hist = hists.get(LATENCY_HISTOGRAM, LatencyHistogram())
        interval_hist = hist.diff(self._prev_hist)
        self._prev_t = now
        self._prev_counters = counters
        self._prev_hist = hist
        return build_frame(
            deltas, gauges, interval_hist,
            interval=dt, uptime=now - self._t0, totals=counters,
        )


def hit_rate(deltas: dict) -> float:
    """Solver-work avoided per solve: (hits + revalidations + batch
    dedups + in-flight joins) / solves over a window (0.0 on an idle
    window)."""
    solves = deltas.get("solves", 0)
    if solves <= 0:
        return 0.0
    avoided = (
        deltas.get("cache_hits", 0)
        + deltas.get("revalidations", 0)
        + deltas.get("batch_dedups", 0)
        + deltas.get("inflight_joins", 0)
    )
    return min(1.0, avoided / solves)


def build_frame(
    deltas: dict,
    gauges: dict,
    latency: LatencyHistogram,
    *,
    interval: float,
    uptime: float,
    totals: dict | None = None,
) -> dict:
    """Assemble the wire-facing frame dict all surfaces share."""
    frame = {
        "ts": time.time(),
        "uptime": uptime,
        "interval": interval,
        "rps": deltas.get("requests", 0) / max(interval, 1e-9),
        "hit_rate": hit_rate(deltas),
        **{name: deltas.get(name, 0) for name in FRAME_COUNTERS},
        "inflight": gauges.get("inflight", 0),
        "queued": gauges.get("queued", 0),
        "sessions": gauges.get("sessions", 0),
        "latency": latency.summary(),
    }
    if totals is not None:
        frame["totals"] = dict(totals)
    return frame


class StatsMonitor:
    """The daemon's per-second sampler over one registry.

    Runs a background thread writing one :class:`RingSeries` row per
    ``interval`` (best-effort: a stalled host skips slots rather than
    backfilling), and answers the one-shot frame with *windowed* rates —
    a ``repro stats`` call right after a load burst still reports the
    burst's rps instead of the idle instant's zero.
    """

    FIELDS = FRAME_COUNTERS + ("inflight", "queued", "sessions", "p50", "p99")

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        slots: int = 300,
    ):
        if interval <= 0:
            raise ValueError("monitor interval must be positive")
        self.registry = registry
        self.interval = float(interval)
        self.series = RingSeries(self.FIELDS, slots=slots, step=self.interval)
        self._tracker = FrameTracker(registry)
        # A tick (cursor + ring row) and a one-shot frame never
        # interleave, so ring rows and tail never overlap or leave a gap.
        self._lock = threading.Lock()
        #: Monitor birth (monotonic) — the uptime epoch every frame and
        #: watch subscriber reports against.
        self.t0 = time.monotonic()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-stats-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> dict:
        """Take one sample row now (the thread's tick; callable directly
        from tests for clock-independent coverage)."""
        with self._lock:
            frame = self._tracker.frame()
            row = {f: frame.get(f, 0) for f in self.FIELDS if f not in ("p50", "p99")}
            row["p50"] = frame["latency"]["p50"]
            row["p99"] = frame["latency"]["p99"]
            self.series.put(time.time(), row)
        return frame

    # ------------------------------------------------------------------
    def snapshot_frame(self, *, window: float | None = 60.0, recent: int = 0) -> dict:
        """The one-shot frame: windowed rates + lifetime aggregates.

        The rates cover the ring's completed rows plus the *tail*: what
        the registry counted since the last tick.  The span grows by the
        time since that tick only when the tail holds events, so an idle
        tail never dilutes the rate of the rows before it.

        Args:
            window: trailing seconds of ring history folded into the
                rates (None = the whole ring).
            recent: include this many raw per-second rows under
                ``"series"`` (0 = omit; the CLI's sparkline feed).
        """
        with self._lock:
            totals = self.series.totals(window)
            counters, gauges, hists = self.registry.raw()
            tail, since_tick = self._tracker.tail(counters, time.monotonic())
        span = totals.get("span", 0.0)
        if any(tail.values()):
            span += since_tick
        span = max(span, self.interval)
        deltas = {name: totals.get(name, 0) + tail[name] for name in FRAME_COUNTERS}
        lifetime = hists.get(LATENCY_HISTOGRAM, LatencyHistogram())
        frame = build_frame(
            deltas, gauges, lifetime,
            interval=span, uptime=time.monotonic() - self.t0,
            totals=counters,
        )
        frame["window"] = span
        frame["latency_histogram"] = lifetime.to_dict()
        if recent:
            frame["series"] = self.series.rows(last=recent)
        return frame
