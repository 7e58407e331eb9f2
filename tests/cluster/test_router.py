"""``repro route``: consistent-hash spread, session pinning, failover,
stream refusal, stats aggregation, and cluster health.  Router auth runs
in ``test_tcp_auth.py``, the same tests as the daemon's."""

import pytest

from repro.cnf.generators import random_planted_ksat
from repro.core.change import AddClause, ChangeSet
from repro.cnf.clause import Clause
from repro.engine.config import EngineConfig
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import ChangeRequest, SolveRequest
from repro.service.service import SolverService
from repro.cluster import HashRing
from repro.cluster.router import RouterDaemon, _merge_stats


class TestHashRing:
    def test_pick_is_deterministic_and_spread(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"fp:{i:x}" for i in range(200)]
        owners = [ring.pick(k) for k in keys]
        assert owners == [ring.pick(k) for k in keys]  # stable
        assert {"a", "b", "c"} == set(owners)          # all nodes used

    def test_preference_lists_every_node_once(self):
        ring = HashRing(["a", "b", "c"])
        pref = ring.preference("anything")
        assert sorted(pref) == ["a", "b", "c"]

    def test_skip_falls_over_deterministically(self):
        ring = HashRing(["a", "b", "c"])
        key = "fp:deadbeef"
        primary = ring.pick(key)
        fallback = ring.pick(key, skip={primary})
        assert fallback != primary
        assert fallback == ring.pick(key, skip={primary})
        # The failover target is the next entry of the preference order.
        pref = ring.preference(key)
        assert pref[0] == primary and pref[1] == fallback

    def test_duplicate_nodes_collapse(self):
        assert HashRing(["a", "a", "b"]).nodes == ("a", "b")


class _Cluster:
    """Two daemons plus a router, all on Unix sockets (fast to boot)."""

    def __init__(self, tmp_path, *, health_interval=0.2):
        self.daemons = []
        self.threads = []
        for name in ("a", "b"):
            cache_dir = tmp_path / f"cache-{name}"
            d = ServiceDaemon(
                str(tmp_path / f"{name}.sock"),
                SolverService(EngineConfig(
                    jobs=1, cache="disk", cache_dir=str(cache_dir),
                )),
                log_path=str(tmp_path / f"{name}.log"),
            )
            self.daemons.append(d)
            self.threads.append(d.start())
        self.router = RouterDaemon(
            str(tmp_path / "router.sock"),
            [d.socket_path for d in self.daemons],
            log_path=str(tmp_path / "router.log"),
            health_interval=health_interval,
            retries=1,
        )
        self.threads.append(self.router.start())

    def node_requests(self):
        counts = []
        for d in self.daemons:
            counters = d.service.metrics.snapshot()["counters"]
            counts.append(counters.get("requests", 0))
        return counts

    def stop(self):
        self.router.shutdown()
        for d in self.daemons:
            d.shutdown()
        for t in self.threads:
            t.join(timeout=10)


@pytest.fixture
def cluster(tmp_path):
    c = _Cluster(tmp_path)
    yield c
    c.stop()


class TestRouting:
    def test_distinct_instances_spread_over_both_nodes(self, cluster):
        with ServiceClient(cluster.router.address) as client:
            for i in range(24):
                f, _ = random_planted_ksat(10, 30, rng=i)
                response = client.solve(SolveRequest(formula=f, seed=0))
                assert response.status in ("sat", "unsat")
        a, b = cluster.node_requests()
        assert a > 0 and b > 0
        assert a + b >= 24

    def test_repeats_of_one_instance_pin_to_one_node(self, cluster):
        f, _ = random_planted_ksat(10, 30, rng=1)
        with ServiceClient(cluster.router.address) as client:
            cold = client.solve(SolveRequest(formula=f, seed=0))
            warm = client.solve(SolveRequest(formula=f, seed=0))
        # Same fp-v2 routes to the same node, whose verdict cache hits.
        assert warm.from_cache
        assert warm.fingerprint == cold.fingerprint
        a, b = cluster.node_requests()
        assert sorted((a, b)) == [0, 2]

    def test_sessions_pin_and_survive_changes(self, cluster):
        f, _ = random_planted_ksat(10, 30, rng=2)
        with ServiceClient(cluster.router.address) as client:
            opened = client.solve(
                SolveRequest(formula=f, session="pinned", seed=0)
            )
            assert opened.session == "pinned"
            changed = client.change(ChangeRequest(
                "pinned",
                ChangeSet([AddClause(Clause([1, 2]))]),
                seed=0,
            ))
            assert changed.session == "pinned"
            assert client.close_session("pinned")
        # All three session ops landed on one node; the other is idle.
        assert 0 in cluster.node_requests()

    def test_ping_and_health_answer_locally(self, cluster):
        with ServiceClient(cluster.router.address) as client:
            assert client.ping()
            health = client.health()
        assert health["router"] is True
        assert health["nodes_total"] == 2
        assert cluster.node_requests() == [0, 0]

    def test_streams_are_refused(self, cluster):
        with ServiceClient(cluster.router.address) as client:
            with pytest.raises(ServiceError, match="not routed"):
                client.sync(0)


class TestFailover:
    def test_dead_node_fails_over_with_identical_verdicts(self, cluster):
        instances = [random_planted_ksat(10, 30, rng=i)[0] for i in range(12)]
        with ServiceClient(cluster.router.address) as client:
            before = {}
            for f in instances:
                r = client.solve(SolveRequest(formula=f, seed=0))
                before[r.fingerprint] = r.status
            # Kill node B outright; the ring re-homes its keys onto A.
            victim = cluster.daemons[1]
            victim.shutdown()
            cluster.threads[1].join(timeout=10)
            mismatches = 0
            for f in instances:
                r = client.solve(SolveRequest(formula=f, seed=0))
                if before[r.fingerprint] != r.status:
                    mismatches += 1
            assert mismatches == 0
        counters = cluster.router.cluster_health()["router"]
        assert counters["unrouted"] == 0
        assert counters["routed"] == 24

    def test_prober_race_window_fails_over_not_errors(self, tmp_path):
        # A node dies and a request arrives BEFORE any probe could mark
        # it down (interval = 1h): the relay's ConnectError must turn
        # into a counted failover to the survivor, never an error frame.
        import time

        c = _Cluster(tmp_path, health_interval=3600.0)
        try:
            # Let the startup probe round finish (both alive), so the
            # next round is an hour away and cannot win the race below.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                nodes = c.router.cluster_health()["nodes"]
                if all(s["alive"] for s in nodes.values()):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("startup probe round never completed")
            victim = c.daemons[1]
            victim.shutdown()
            c.threads[1].join(timeout=10)
            with ServiceClient(c.router.address) as client:
                for i in range(12):
                    f, _ = random_planted_ksat(10, 30, rng=50 + i)
                    r = client.solve(SolveRequest(formula=f, seed=0))
                    assert r.status in ("sat", "unsat")
            counters = c.router.cluster_health()["router"]
            assert counters["unrouted"] == 0
            assert counters["failovers"] >= 1
        finally:
            c.stop()

    def test_cluster_health_tracks_the_dead_node(self, cluster):
        import time

        victim = cluster.daemons[0]
        victim.shutdown()
        cluster.threads[0].join(timeout=10)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            nodes = cluster.router.cluster_health()["nodes"]
            alive = [s["alive"] for s in nodes.values()]
            if alive.count(False) == 1 and alive.count(True) == 1:
                break
            time.sleep(0.05)
        nodes = cluster.router.cluster_health()["nodes"]
        alive = {a: s["alive"] for a, s in nodes.items()}
        down = f"unix://{victim.socket_path}"
        assert alive[down] is False
        assert nodes[down]["last_error"]
        up = next(a for a in alive if a != down)
        assert alive[up] is True
        assert nodes[up]["generation"] is not None
        assert nodes[up]["sync_cursor"] is not None


class TestStatsAggregation:
    def test_stats_sum_across_nodes(self, cluster):
        with ServiceClient(cluster.router.address) as client:
            for i in range(8):
                f, _ = random_planted_ksat(10, 30, rng=100 + i)
                client.solve(SolveRequest(formula=f, seed=0))
            stats = client.stats()
        assert len(stats["cluster"]["nodes"]) == 2
        assert stats["cluster"]["router"] == cluster.router.address
        a, b = cluster.node_requests()
        assert stats["metrics"]["counters"]["requests"] == a + b

    def test_merge_stats_shapes(self):
        merged = _merge_stats(
            {"n": 1, "d": {"x": 2}, "l": [1], "flag": False, "s": "keep"},
            {"n": 2, "d": {"x": 3, "y": 1}, "l": [2], "flag": True, "new": 9},
        )
        assert merged["n"] == 3
        assert merged["d"] == {"x": 5, "y": 1}
        assert merged["l"] == [1, 2]
        assert merged["flag"] is True
        assert merged["s"] == "keep"
        assert merged["new"] == 9


class TestClusterHealthOp:
    def test_cluster_health_over_the_wire(self, cluster):
        with ServiceClient(cluster.router.address) as client:
            picture = client.cluster_health()
        assert set(picture) == {"router", "nodes"}
        router = picture["router"]
        for key in ("routed", "failovers", "unrouted", "auth_rejects",
                    "auth_failures", "errors", "listen", "health_interval"):
            assert key in router
        assert len(picture["nodes"]) == 2
        for snapshot in picture["nodes"].values():
            assert {"alive", "generation", "degraded", "sync_cursor",
                    "last_error", "age"} <= set(snapshot)
