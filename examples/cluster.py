"""The multi-node tier: TCP nodes, auth, cache sync, and the router.

Run:  python examples/cluster.py

Boots a three-node cluster *inside this process* (three
:class:`~repro.service.ServiceDaemon` instances on ephemeral TCP ports,
each with its own disk cache, sharing one auth token), replicates a
verdict from node A to node B over anti-entropy sync, then puts a
:class:`~repro.cluster.RouterDaemon` in front and shows fingerprint
routing, session pinning, aggregated stats, and failover after a node
dies.  Everything an operator would run as ``repro serve --tcp`` /
``repro route`` — see the README's "Multi-node serving" section for the
CLI spelling.
"""

import tempfile
import time
from pathlib import Path

from repro import EngineConfig, ServiceClient, SolveRequest, SolverService
from repro.cluster import CacheSyncer, RouterDaemon
from repro.cnf.generators import random_planted_ksat
from repro.service.daemon import ServiceDaemon

TOKEN = "example-cluster-token"


def boot_node(workdir: Path, name: str, threads: list) -> ServiceDaemon:
    daemon = ServiceDaemon(
        None,
        SolverService(EngineConfig(
            jobs=1, cache="disk", cache_dir=str(workdir / f"cache-{name}"),
        )),
        log_path=str(workdir / f"{name}.log"),
        tcp_address="127.0.0.1:0",     # ephemeral port, reported after bind
        auth_token=TOKEN,
    )
    threads.append(daemon.start())
    (address,) = daemon.addresses
    print(f"node {name}: {address}")
    return daemon


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        print("== Three TCP nodes, one shared token ==")
        threads: list = []
        nodes = {name: boot_node(workdir, name, threads) for name in "abc"}
        addr = {name: d.addresses[0] for name, d in nodes.items()}

        print("\n== Anti-entropy replication (b pulls a) ==")
        formula, _ = random_planted_ksat(30, 100, rng=7)
        with ServiceClient(addr["a"], auth_token=TOKEN) as client:
            origin = client.solve(SolveRequest(formula=formula, seed=0))
        print(f"node a solved: {origin.status} fp={origin.fingerprint[:16]}…")

        # The daemon runs this for you under `repro serve --peer`.
        syncer = CacheSyncer(
            nodes["b"].service.engine.cache, [addr["a"]],
            auth_token=TOKEN, interval=0.1,
        )
        merged = syncer.sync_once()
        syncer.stop()
        with ServiceClient(addr["b"], auth_token=TOKEN) as client:
            replica = client.solve(SolveRequest(formula=formula, seed=0))
        print(f"node b merged {merged} entries; answered {replica.status} "
              f"from_cache={replica.from_cache} (no solver ran on b)")

        print("\n== A router in front ==")
        router = RouterDaemon(
            "tcp://127.0.0.1:0", list(addr.values()),
            auth_token=TOKEN, health_interval=0.2,
            log_path=str(workdir / "router.log"),
        )
        threads.append(router.start())
        print(f"router: {router.address}")
        with ServiceClient(router.address, auth_token=TOKEN) as client:
            owners_before = {}
            for i in range(9):
                f, _ = random_planted_ksat(20, 60, rng=100 + i)
                r = client.solve(SolveRequest(formula=f, seed=0))
                owners_before[r.fingerprint] = r.status
            print(f"routed 9 distinct instances: "
                  f"{sorted(owners_before.values()).count('sat')} sat")

            # Sessions pin by name: every op lands on one node's memory.
            opened = client.solve(
                SolveRequest(formula=formula, session="pinned", seed=0)
            )
            client.close_session("pinned")
            print(f"session 'pinned': {opened.status} on one node")

            stats = client.stats()
            print(f"aggregated stats: "
                  f"{len(stats['cluster']['nodes'])} nodes, "
                  f"{stats['metrics']['counters']['requests']} requests total")

            print("\n== Failover ==")
            nodes["c"].shutdown()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                picture = client.cluster_health()
                if picture["nodes"][addr["c"]]["alive"] is False:
                    break
                time.sleep(0.05)
            alive = [a for a, s in picture["nodes"].items() if s["alive"]]
            print(f"router sees {len(alive)}/3 nodes up")
            mismatches = 0
            for i in range(9):
                f, _ = random_planted_ksat(20, 60, rng=100 + i)
                r = client.solve(SolveRequest(formula=f, seed=0))
                if owners_before[r.fingerprint] != r.status:
                    mismatches += 1
            print(f"re-solved all 9 with a node dead: "
                  f"{mismatches} verdict mismatches")
            counters = client.cluster_health()["router"]
            print(f"router counters: routed={counters['routed']} "
                  f"failovers={counters['failovers']} "
                  f"unrouted={counters['unrouted']}")

        router.shutdown()
        for daemon in nodes.values():
            daemon.shutdown()
        # Each server logs a last line on its way out: let it, before the
        # temporary directory holding the logs goes away.
        for thread in threads:
            thread.join(timeout=10)


if __name__ == "__main__":
    main()
