"""Registry, frame diffing, and the monitor (clock-independent paths)."""

import threading

import pytest

from repro.obs.metrics import (
    FRAME_COUNTERS,
    LATENCY_HISTOGRAM,
    FrameTracker,
    MetricsRegistry,
    StatsMonitor,
    build_frame,
    hit_rate,
)


class TestRegistry:
    def test_bump_applies_counts_observations_and_families(self):
        r = MetricsRegistry()
        r.bump(
            counts={"solves": 2, "races": 1},
            observe={LATENCY_HISTOGRAM: 0.01},
            families={"session_requests": {"alpha": 3}},
        )
        r.bump(counts={"solves": 1}, families={"session_requests": {"alpha": 1}})
        assert r.counter("solves") == 3
        assert r.counter("races") == 1
        assert r.counter("never_touched") == 0
        assert r.histogram(LATENCY_HISTOGRAM).count == 1
        snap = r.snapshot()
        assert snap["families"]["session_requests"] == {"alpha": 4}
        assert snap["histograms"][LATENCY_HISTOGRAM]["count"] == 1

    def test_gauges_set_and_adjust(self):
        r = MetricsRegistry()
        r.set_gauge("inflight", 3)
        r.adjust_gauge("inflight", -1)
        r.adjust_gauge("queued", 2)
        assert r.gauge("inflight") == 2.0
        assert r.gauge("queued") == 2.0
        assert r.gauge("absent") == 0.0

    def test_counters_reads_named_counters_with_zero_default(self):
        r = MetricsRegistry()
        r.bump(counts={"solves": 2, "races": 1, "requests": 5})
        assert r.counters(("solves", "races", "cache_hits")) == {
            "solves": 2, "races": 1, "cache_hits": 0,
        }

    def test_histogram_reads_are_snapshots(self):
        r = MetricsRegistry()
        r.observe(LATENCY_HISTOGRAM, 0.01)
        snap = r.histogram(LATENCY_HISTOGRAM)
        r.observe(LATENCY_HISTOGRAM, 0.02)
        assert snap.count == 1
        assert r.histogram(LATENCY_HISTOGRAM).count == 2

    def test_concurrent_bumps_do_not_tear(self):
        r = MetricsRegistry()

        def hammer():
            for _ in range(500):
                r.bump(counts={"solves": 1}, observe={LATENCY_HISTOGRAM: 0.001})

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert r.counter("solves") == 2000
        assert r.histogram(LATENCY_HISTOGRAM).count == 2000


class TestFrames:
    def test_hit_rate_arithmetic(self):
        assert hit_rate({}) == 0.0
        assert hit_rate({"solves": 0, "cache_hits": 3}) == 0.0
        assert hit_rate({"solves": 4, "cache_hits": 1, "revalidations": 1}) == 0.5
        assert hit_rate({"solves": 1, "cache_hits": 5}) == 1.0  # capped

    def test_build_frame_shape(self):
        from repro.obs.histogram import LatencyHistogram

        frame = build_frame(
            {"requests": 10, "solves": 4, "cache_hits": 2},
            {"inflight": 1, "sessions": 2},
            LatencyHistogram.of([0.01, 0.02]),
            interval=2.0, uptime=5.0, totals={"requests": 100},
        )
        assert frame["rps"] == pytest.approx(5.0)
        assert frame["hit_rate"] == pytest.approx(0.5)
        assert frame["uptime"] == 5.0
        assert frame["inflight"] == 1
        assert frame["queued"] == 0
        assert frame["latency"]["count"] == 2
        assert frame["totals"] == {"requests": 100}
        for name in FRAME_COUNTERS:
            assert name in frame

    def test_tracker_reports_deltas_not_totals(self):
        r = MetricsRegistry()
        r.bump(counts={"requests": 5}, observe={LATENCY_HISTOGRAM: 0.01})
        tracker = FrameTracker(r)        # birth snapshot swallows history
        r.bump(counts={"requests": 3}, observe={LATENCY_HISTOGRAM: 0.04})
        frame = tracker.frame()
        assert frame["requests"] == 3
        assert frame["latency"]["count"] == 1
        assert frame["totals"]["requests"] == 8
        # A second frame over an idle interval is all zeros.
        idle = tracker.frame()
        assert idle["requests"] == 0
        assert idle["latency"]["count"] == 0

    def test_independent_trackers_have_independent_cursors(self):
        r = MetricsRegistry()
        a, b = FrameTracker(r), FrameTracker(r)
        r.bump(counts={"requests": 2})
        assert a.frame()["requests"] == 2
        r.bump(counts={"requests": 1})
        assert a.frame()["requests"] == 1
        assert b.frame()["requests"] == 3


class TestMonitor:
    def test_sample_writes_rows_and_snapshot_windows_them(self):
        r = MetricsRegistry()
        m = StatsMonitor(r, interval=1.0)
        r.bump(counts={"requests": 30, "solves": 10, "cache_hits": 5},
               observe={LATENCY_HISTOGRAM: 0.02})
        m.sample()
        frame = m.snapshot_frame(window=60.0)
        assert frame["requests"] == 30
        assert frame["rps"] == pytest.approx(30.0)
        assert frame["hit_rate"] == pytest.approx(0.5)
        assert frame["window"] >= 1.0
        assert frame["latency_histogram"]["count"] == 1

    def test_snapshot_counts_the_tail_since_the_last_tick(self):
        """Requests served before the first tick (a daemon's first
        second) show up in the one-shot frame, with a nonzero rate."""
        r = MetricsRegistry()
        m = StatsMonitor(r, interval=1.0)
        r.bump(counts={"requests": 14, "solves": 14})
        frame = m.snapshot_frame()
        assert frame["requests"] == 14
        assert frame["solves"] == 14
        assert frame["rps"] > 0.0
        # After a tick the same events come from the ring row, once.
        m.sample()
        r.bump(counts={"requests": 1})
        assert m.snapshot_frame()["requests"] == 15

    def test_snapshot_includes_recent_series_rows(self):
        r = MetricsRegistry()
        m = StatsMonitor(r, interval=1.0)
        r.bump(counts={"requests": 4})
        m.sample()
        frame = m.snapshot_frame(recent=5)
        assert len(frame["series"]) == 1
        assert frame["series"][0]["requests"] == 4
        assert "series" not in m.snapshot_frame()

    def test_idle_snapshot_is_well_formed(self):
        m = StatsMonitor(MetricsRegistry(), interval=1.0)
        frame = m.snapshot_frame()
        assert frame["rps"] == 0.0
        assert frame["latency"]["count"] == 0

    def test_start_stop_idempotent(self):
        m = StatsMonitor(MetricsRegistry(), interval=0.05)
        m.start()
        m.start()
        m.stop()
        m.stop()
        assert m._thread is None

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            StatsMonitor(MetricsRegistry(), interval=0.0)
