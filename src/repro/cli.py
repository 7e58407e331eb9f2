"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve FILE.cnf``                 — solve a DIMACS instance (``--engine
  ilp`` for the paper's ILP route, ``--engine portfolio --jobs N`` for the
  parallel portfolio engine, or any single solver by name: ``--engine
  cdcl|dpll|walksat|brute|ilp-exact|ilp-heuristic``); with ``--batch`` the
  FILE argument is a directory and every ``*.cnf`` inside is solved as one
  batch (one shared pool, fingerprint dedup across the batch); with
  ``--connect SOCKET`` the query is shipped to a running ``repro serve``
  daemon as packed wire bytes instead of being solved in-process;
  ``--stats-json PATH`` dumps the engine/cache counters for scripting;
* ``serve``                          — run the ``SolverService`` daemon on a
  local socket and/or a TCP endpoint (``--tcp HOST:PORT``, optionally guarded
  by ``--auth-token``/``$REPRO_AUTH_TOKEN``; ``--cache disk --cache-dir D``
  for the persistent verdict cache that survives restarts; ``--peer ADDR``
  pull-replicates that cache from other nodes; ``--record PATH`` records
  every handled request/response to a replayable trace; ``--max-requests N``
  and SIGTERM both trigger a graceful drain — in-flight requests finish, the
  recorder is flushed, then the daemon exits);
* ``route``                          — run the fingerprint-hash front-end over
  2-3 backend nodes: stateless solves route by fp-v2, named sessions pin to
  one node, dead nodes fail over along the hash ring (clients point
  ``--connect`` at it unchanged);
* ``cache export/import``            — move disk-cache entries as offline
  JSONL packet files (seeding a new node from a warm one, air-gapped
  replication);
* ``loadgen SCENARIO``               — generate a seeded EC request stream
  (see ``repro.workload.scenarios``) and drive it closed-loop (``--concurrency
  N``) or open-loop (``--rate R``) against an in-process service or a
  running daemon (``--connect``), optionally recording the stream
  (``--record``);
* ``replay TRACE.jsonl``             — re-execute a recorded trace and verify
  every response against the recorded one (status, fingerprint, model);
  exit code 1 on any mismatch;
* ``stats --connect SOCKET``         — one observability frame from a running
  daemon (windowed rps, hit rate, latency percentiles off the live
  log-bucketed histogram, queue depths, cache size); ``--watch`` subscribes
  to the daemon's push-stream and prints one frame per ``--interval``
  seconds; ``--json`` emits machine-readable frames either way;
* ``enable FILE.cnf``                — solve with enabling EC and report flexibility;
* ``fast FILE.cnf CHANGED.cnf``      — fast EC from FILE's solution to CHANGED;
* ``preserve FILE.cnf CHANGED.cnf``  — preserving EC between the two instances;
* ``bench {table1,table2,table3,engine,workload}`` — regenerate a paper
  table, the engine comparison, or the workload/load-driver benchmark.

Every ``solve`` route goes through the :class:`~repro.service.
SolverService` facade — the CLI builds a :class:`~repro.service.requests.
SolveRequest` and prints the :class:`~repro.service.requests.
SolveResponse`; it never touches a solver directly.

The two-file EC commands treat the first file as the original
specification (solved from scratch) and the second as the modified one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cnf.analysis import flexibility_report
from repro.cnf.dimacs import read_dimacs
from repro.core.enabling import EnablingOptions, enable_ec
from repro.core.fast import fast_ec
from repro.core.preserving import preserving_ec
from repro.errors import ConnectError, ReproError
from repro.ilp.status import SolveStatus
from repro.sat.encoding import encode_sat
from repro.ilp.solver import solve


def _solve_file(path: str, method: str, deadline: float | None = None,
                seed: int | None = None):
    """Solve a DIMACS file via the ILP route.

    Returns ``(formula, assignment)``; the assignment is None when the
    instance is *proven* unsatisfiable.

    Raises:
        ReproError: when the solver gave up undecided (budget statuses
            such as node_limit must never be reported as UNSAT).
    """
    formula = read_dimacs(path)
    encoding = encode_sat(formula)
    solution = solve(encoding.model, method=method, deadline=deadline, seed=seed)
    if solution.status is SolveStatus.INFEASIBLE:
        return formula, None
    if not solution.status.has_solution:
        raise ReproError(
            f"{path}: undecided within budget ({solution.status.value})"
        )
    return formula, encoding.decode(solution, default=False)


def _write_stats_json(path: str | None, stats: dict, **extra) -> None:
    """Dump an engine/cache counter snapshot (plus context) as JSON."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**stats, **extra}, fh, indent=2)
        fh.write("\n")


def _print_verdict(args, formula, response, engine_label: str) -> int:
    """Print one solve verdict in the CLI's stable format."""
    if response.status == "unsat":
        via = response.source or engine_label
        preposition = "via" if engine_label == "ilp" else "by"
        print(f"s UNSATISFIABLE ({preposition} {via})")
        return 1
    if response.status != "sat":
        raise ReproError(
            f"{args.file}: {engine_label} undecided within budget"
            + (f" ({response.detail})" if response.detail else "")
        )
    print(f"s SATISFIABLE ({formula.num_vars} vars, {formula.num_clauses} clauses)")
    if engine_label == "portfolio":
        print(f"c engine: portfolio, winner: {response.source}, "
              f"{response.wall_time:.3f}s")
    elif engine_label != "ilp":
        print(f"c engine: {engine_label}, {response.wall_time:.3f}s"
              + (f", {response.detail}" if response.detail else ""))
    print("v " + " ".join(str(l) for l in response.assignment.to_literals()) + " 0")
    return 0


def _cmd_solve(args) -> int:
    if args.batch:
        # The batch path always runs the portfolio engine (solve_many);
        # silently discarding an explicitly requested single solver would
        # be a lie, so reject the combination instead.
        if args.engine not in (None, "portfolio"):
            raise ReproError(
                "--batch always uses the portfolio engine; drop --engine "
                f"or pass --engine portfolio (got --engine {args.engine})"
            )
        if args.connect:
            raise ReproError("--batch and --connect cannot be combined")
        return _cmd_solve_batch(args)
    if args.connect:
        return _cmd_solve_connect(args)
    engine = args.engine or "ilp"

    from repro.engine.config import EngineConfig
    from repro.service.requests import SolveRequest
    from repro.service.service import SolverService

    formula = read_dimacs(args.file)
    with SolverService(EngineConfig(jobs=args.jobs)) as service:
        response = service.solve(SolveRequest(
            formula=formula, strategy=engine, method=args.method,
            deadline=args.deadline, seed=args.seed,
        ))
        _write_stats_json(
            args.stats_json, service.stats(),
            winner=response.winner, status=response.status,
            wall_time=response.wall_time,
        )
    # The ILP route keeps its historical undecided message (the ILP
    # status value is the interesting part for scripting).
    if engine == "ilp" and response.status not in ("sat", "unsat"):
        raise ReproError(
            f"{args.file}: undecided within budget ({response.detail})"
        )
    return _print_verdict(args, formula, response, engine)


def _cmd_solve_connect(args) -> int:
    """Ship the query to a running ``repro serve`` daemon.

    The instance crosses the socket as the packed kernel's raw wire
    bytes; the verdict comes back as a typed response and is printed in
    the same format as a local solve.  ``--stats-json`` dumps the
    *daemon's* counters, so a scripted client can watch the shared
    cache working across processes.
    """
    from repro.service.client import ServiceClient
    from repro.service.requests import SolveRequest

    engine = args.engine or "portfolio"
    formula = read_dimacs(args.file)
    # The socket timeout must outlive the solve budget: with a --deadline
    # the daemon answers within it (plus slack for transport/queueing);
    # without one the client blocks until the daemon answers.
    timeout = None if args.deadline is None else args.deadline + 30.0
    with ServiceClient(args.connect, timeout=timeout) as client:
        response = client.solve(SolveRequest(
            formula=formula, strategy=engine, method=args.method,
            deadline=args.deadline, seed=args.seed,
        ))
        _write_stats_json(
            args.stats_json, client.stats(),
            winner=response.winner, status=response.status,
            wall_time=response.wall_time,
        )
    return _print_verdict(args, formula, response, engine)


def _cmd_solve_batch(args) -> int:
    """Solve every ``*.cnf`` in a directory through one shared service.

    The batch rides ``SolverService.solve_many``: one shared (lazily
    started) pool, fingerprint dedup across the batch, and the verdict
    cache shared between instances.  Per-instance verdicts are printed
    one per line.  Exit codes follow the single-file convention: 0 when
    every instance is satisfiable, 1 when all were decided but at least
    one is proven UNSAT, 2 when any stayed undecided within its budget.
    """
    from pathlib import Path

    from repro.engine.config import EngineConfig
    from repro.service.service import SolverService

    directory = Path(args.file)
    if not directory.is_dir():
        raise ReproError(f"--batch expects a directory, got {args.file!r}")
    paths = sorted(directory.glob("*.cnf"))
    if not paths:
        raise ReproError(f"no .cnf files in {args.file!r}")
    formulas = [read_dimacs(str(p)) for p in paths]
    with SolverService(EngineConfig(jobs=args.jobs)) as service:
        responses = service.solve_many(
            formulas, deadline=args.deadline, seed=args.seed
        )
        undecided = 0
        unsat = 0
        for path, response in zip(paths, responses):
            if response.status == "sat":
                print(f"{path.name}: SATISFIABLE (via {response.source})")
            elif response.status == "unsat":
                unsat += 1
                print(f"{path.name}: UNSATISFIABLE (via {response.source})")
            else:
                undecided += 1
                print(f"{path.name}: UNDECIDED")
        stats = service.engine.stats
        print(
            f"c batch: {len(paths)} instances, {stats.races} races, "
            f"{stats.cache_hits} cache hits, {stats.revalidations} "
            f"revalidations, {stats.batch_dedups} batch dedups"
        )
        _write_stats_json(
            args.stats_json, service.stats(),
            winner=None,
            results=[
                {"file": p.name, "status": r.status, "source": r.source,
                 "winner": r.winner}
                for p, r in zip(paths, responses)
            ],
        )
    if undecided:
        return 2
    return 1 if unsat else 0


def _cmd_serve(args) -> int:
    """Run the ``SolverService`` daemon on Unix and/or TCP sockets."""
    from repro.engine.config import EngineConfig
    from repro.service.daemon import ServiceDaemon
    from repro.service.service import SolverService

    if not args.socket and not args.tcp:
        raise ReproError("serve needs --socket PATH and/or --tcp HOST:PORT")
    try:
        extra = {}
        if args.quick_slice is not None:
            extra["quick_slice"] = args.quick_slice
        config = EngineConfig(
            jobs=args.jobs, cache=args.cache, cache_dir=args.cache_dir,
            cache_entries=args.cache_entries, chaos=args.chaos, **extra,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    recorder = None
    if args.record:
        from repro.workload.trace import TraceRecorder

        recorder = TraceRecorder(
            args.record,
            meta={"source": "repro serve", "socket": args.socket or args.tcp},
        )
    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
    tracer = None
    if args.trace_log or args.trace_sample is not None:
        from repro.obs.tracing import Tracer

        # --trace-log without an explicit rate samples 1% of roots;
        # continued contexts (requests arriving with a trace header)
        # are always recorded regardless of the rate.
        sample = args.trace_sample if args.trace_sample is not None else 0.01
        tracer = Tracer(
            service=args.socket or args.tcp or "node",
            sample=sample,
            log_path=args.trace_log,
        )
    service = SolverService(config, recorder=recorder)
    syncer = None
    if args.peer:
        if args.cache != "disk":
            raise ReproError(
                "--peer needs --cache disk: anti-entropy sync replicates "
                "the persistent verdict cache"
            )
        from repro.cluster.sync import CacheSyncer

        syncer = CacheSyncer(
            service.engine.cache,
            args.peer,
            interval=args.sync_interval,
            auth_token=auth_token,
            metrics=service.metrics,
        )
    daemon = ServiceDaemon(
        args.socket or None,
        service,
        log_path=args.log_file,
        max_requests=args.max_requests,
        max_frame_bytes=args.max_frame_bytes,
        tcp_address=args.tcp,
        auth_token=auth_token,
        syncer=syncer,
        tracer=tracer,
    )
    return _serve_until_drained(daemon, "serve")


def _serve_until_drained(server, name: str, notes=()) -> int:
    """Bind a frame server, print its readiness lines, and serve it
    until SIGTERM (or Ctrl-C) drains it."""
    import signal

    server.bind()
    try:
        # Graceful drain on SIGTERM: stop accepting, finish in-flight
        # requests, flush the recorder, exit 0 (how replay runs against
        # a recorded daemon end cleanly under process supervisors).
        signal.signal(signal.SIGTERM, lambda _sig, _frm: server.shutdown())
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    # One line per endpoint, printed after bind so an ephemeral tcp
    # port (HOST:0) comes out resolved — orchestration scripts parse it.
    for address in server.addresses:
        print(f"repro {name}: listening on {address}", flush=True)
    for note in notes:
        print(f"repro {name}: {note}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        server.shutdown()
    return 0


def _cmd_route(args) -> int:
    """Run the fingerprint-hash router over backend nodes."""
    from repro.cluster.router import RouterDaemon

    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
    router = RouterDaemon(
        args.listen,
        args.node,
        auth_token=auth_token,
        node_token=args.node_token or auth_token,
        log_path=args.log_file,
        health_interval=args.health_interval,
        retries=args.retries,
        trace_log=args.trace_log,
        trace_sample=args.trace_sample if args.trace_sample is not None else 0.0,
    )
    return _serve_until_drained(
        router, "route", [f"node {node}" for node in router.ring.nodes]
    )


def _cmd_cache(args) -> int:
    """Offline cache replication: export/import JSONL packet files."""
    from repro.cluster.sync import export_packet, import_packet
    from repro.engine.diskcache import DiskCache

    cache = DiskCache(args.cache_dir, max_entries=args.cache_entries)
    if args.action == "export":
        written = export_packet(cache, args.packet, since=args.since)
        print(
            f"repro cache: exported {written} entries -> {args.packet} "
            f"(cursor {cache.sync_cursor()})"
        )
        return 0
    seen, merged = import_packet(cache, args.packet)
    print(
        f"repro cache: imported {merged} new of {seen} entries "
        f"from {args.packet}"
    )
    return 0


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _print_load_report(report, label: str) -> None:
    """Print one load run in the CLI's stable format."""
    lat = report.latency
    print(
        f"{label}: {report.events} events in {report.wall_time:.3f}s "
        f"({report.throughput:.1f} ev/s, mode={report.mode} "
        f"c={report.concurrency}), errors {report.errors}"
    )
    print(
        f"c latency: mean {_ms(lat['mean'])} p50 {_ms(lat['p50'])} "
        f"p90 {_ms(lat['p90'])} p99 {_ms(lat['p99'])} max {_ms(lat['max'])}"
    )
    if report.lateness is not None:
        print(
            f"c lateness: p50 {_ms(report.lateness['p50'])} "
            f"p99 {_ms(report.lateness['p99'])} max {_ms(report.lateness['max'])}"
        )
    if report.counters:
        engine = report.counters.get("engine", {})
        print(
            "c counters: "
            f"{engine.get('solves', 0)} solves, "
            f"{engine.get('races', 0)} races, "
            f"{engine.get('cache_hits', 0)} cache hits, "
            f"{engine.get('revalidations', 0)} revalidations, "
            f"{engine.get('batch_dedups', 0)} batch dedups, "
            f"{engine.get('transport_bytes', 0)} transport bytes"
        )
    for line in report.error_detail:
        print(f"c error: {line}")


def _write_report_json(path: str | None, report) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def _cmd_loadgen(args) -> int:
    """Generate a scenario stream and drive it at load."""
    from repro.workload import (
        build_scenario,
        client_factory,
        inprocess_factory,
        run_events,
        summarize,
        write_trace_from_run,
    )

    events = build_scenario(
        args.scenario, seed=args.seed, tenants=args.tenants, changes=args.changes
    )
    mode = "open" if args.rate is not None else args.mode
    if mode == "open" and args.rate is None:
        raise ReproError("loadgen --mode open needs --rate (events/second)")

    def drive(factory, stats_target):
        before = stats_target.stats()
        results, wall = run_events(
            events, factory, mode=mode, concurrency=args.concurrency,
            rate=args.rate, seed=args.seed,
        )
        after = stats_target.stats()
        return results, summarize(
            results, wall, scenario=args.scenario, mode=mode,
            concurrency=args.concurrency, stats_before=before, stats_after=after,
        )

    if args.connect:
        from repro.service.client import ServiceClient

        with ServiceClient(args.connect) as stats_client:
            results, report = drive(client_factory(args.connect), stats_client)
    else:
        from repro.engine.config import EngineConfig
        from repro.service.service import SolverService

        with SolverService(EngineConfig(jobs=args.jobs)) as service:
            factory = inprocess_factory(service)
            results, report = drive(factory, factory())
    if args.record:
        written = write_trace_from_run(
            args.record, events, results,
            meta={"scenario": args.scenario, "seed": args.seed,
                  "tenants": args.tenants, "changes": args.changes},
        )
        print(f"c recorded {written} events -> {args.record}")
    _print_load_report(report, f"loadgen {args.scenario}")
    _write_report_json(args.out, report)
    return 0 if report.errors == 0 else 1


def _cmd_replay(args) -> int:
    """Re-execute a recorded trace and verify it reproduced itself."""
    from repro.workload import client_factory, inprocess_factory, read_trace, replay_trace

    trace = read_trace(args.trace)
    mode = "open" if (args.rate is not None or args.mode == "open") else "closed"
    kwargs = dict(
        mode=mode, concurrency=args.concurrency, rate=args.rate,
        speed=args.speed, verify=not args.no_verify,
        batch_segments=args.batch_segments, seed=args.seed,
    )
    if args.connect:
        from repro.service.client import ServiceClient

        with ServiceClient(args.connect) as stats_client:
            report = replay_trace(
                trace, client_factory(args.connect),
                stats_target=stats_client, **kwargs,
            )
    else:
        from repro.engine.config import EngineConfig
        from repro.service.service import SolverService

        with SolverService(EngineConfig(jobs=args.jobs)) as service:
            factory = inprocess_factory(service)
            report = replay_trace(
                trace, factory, stats_target=factory(), **kwargs
            )
    _print_load_report(report, f"replay {args.trace}")
    if not args.no_verify:
        print(
            f"c verify: {report.mismatches} mismatches over "
            f"{len(trace)} records"
        )
        for line in report.mismatch_detail:
            print(f"c mismatch: {line}")
    _write_report_json(args.out, report)
    failed = report.errors > 0 or (not args.no_verify and report.mismatches > 0)
    return 1 if failed else 0


def _frame_line(frame: dict) -> str:
    """One metric frame as a fixed-width live line (``stats --watch``)."""
    lat = frame.get("latency", {})
    return (
        f"{frame.get('uptime', 0.0):8.1f}s  "
        f"rps {frame.get('rps', 0.0):7.1f}  "
        f"p50 {_ms(lat.get('p50', 0.0)):>9}  "
        f"p99 {_ms(lat.get('p99', 0.0)):>9}  "
        f"hit {frame.get('hit_rate', 0.0) * 100:5.1f}%  "
        f"inflight {frame.get('inflight', 0):3.0f}  "
        f"queued {frame.get('queued', 0):3.0f}  "
        f"sessions {frame.get('sessions', 0):3.0f}  "
        f"errors {frame.get('errors', 0):3.0f}"
    )


def _cmd_stats(args) -> int:
    """One-shot or streaming metrics from a running daemon."""
    from repro.service.client import ServiceClient

    if args.watch:
        # A dedicated connection: the watch generator owns its receive
        # side for the whole stream.
        with ServiceClient(args.connect, timeout=30.0) as client:
            try:
                for frame in client.watch(
                    interval=args.interval, count=args.frames
                ):
                    if args.json:
                        print(json.dumps(frame), flush=True)
                    else:
                        print(_frame_line(frame), flush=True)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                pass
        return 0
    with ServiceClient(args.connect, timeout=30.0) as client:
        frame = client.stats_frame(window=args.window)
        try:
            health = client.health()
        except ReproError:
            health = None          # older daemon without the health op
        cluster = None
        if health is not None and health.get("router"):
            # Only a router answers cluster_health; asking a plain node
            # would count an unknown-op error against it.
            try:
                cluster = client.cluster_health()
            except ReproError:
                cluster = None
    if args.json:
        if health is not None:
            frame = dict(frame, health=health)
        if cluster is not None:
            frame = dict(frame, cluster=cluster)
        print(json.dumps(frame, indent=2))
        return 0
    lat = frame.get("latency", {})
    totals = frame.get("totals", {})
    print(
        f"daemon up {frame.get('uptime', 0.0):.1f}s, window "
        f"{frame.get('window', 0.0):.0f}s: {frame.get('rps', 0.0):.1f} rps, "
        f"hit rate {frame.get('hit_rate', 0.0) * 100:.1f}%"
    )
    print(
        f"c window: {frame.get('requests', 0):.0f} requests, "
        f"{frame.get('solves', 0):.0f} solves, "
        f"{frame.get('races', 0):.0f} races, "
        f"{frame.get('cache_hits', 0):.0f} cache hits, "
        f"{frame.get('errors', 0):.0f} errors"
    )
    print(
        f"c effort (window): {frame.get('propagations', 0):.0f} propagations, "
        f"{frame.get('conflicts', 0):.0f} conflicts, "
        f"{frame.get('restarts', 0):.0f} restarts"
    )
    print(
        f"c latency (lifetime, {lat.get('count', 0)} samples): "
        f"mean {_ms(lat.get('mean', 0.0))} p50 {_ms(lat.get('p50', 0.0))} "
        f"p90 {_ms(lat.get('p90', 0.0))} p99 {_ms(lat.get('p99', 0.0))} "
        f"max {_ms(lat.get('max', 0.0))}"
    )
    print(
        f"c gauges: inflight {frame.get('inflight', 0):.0f}, "
        f"queued {frame.get('queued', 0):.0f}, "
        f"sessions {frame.get('sessions', 0):.0f}"
    )
    print(
        f"c totals: {totals.get('requests', 0):.0f} requests, "
        f"{totals.get('solves', 0):.0f} solves since daemon start"
    )
    if cluster is not None:
        router = cluster.get("router", {})
        nodes = cluster.get("nodes", {})
        alive = sum(1 for s in nodes.values() if s.get("alive"))
        print(
            f"c cluster: {alive}/{len(nodes)} nodes up, "
            f"{router.get('routed', 0)} routed, "
            f"{router.get('failovers', 0)} failovers, "
            f"{router.get('unrouted', 0)} unrouted, "
            f"{router.get('auth_rejects', 0)} auth rejects"
        )
        for address in sorted(nodes):
            state = nodes[address]
            flags = "up" if state.get("alive") else "DOWN"
            if state.get("degraded"):
                flags += " DEGRADED"
            print(
                f"c node {address}: {flags}, "
                f"pool gen {state.get('generation')}, "
                f"sync cursor {state.get('sync_cursor')}"
                + (
                    f", last error: {state.get('last_error')}"
                    if state.get("last_error")
                    else ""
                )
            )
    elif health is not None:
        engine = health.get("engine", {})
        pool = engine.get("pool", {})
        cache = engine.get("cache", {})
        degraded = " DEGRADED" if cache.get("degraded") else ""
        print(
            f"c health: pool gen {pool.get('generation', 0)}, "
            f"{pool.get('solo_fallbacks', 0)} solo fallbacks, "
            f"cache errors {cache.get('errors', 0)}{degraded}, "
            f"daemon errors {health.get('errors', 0):.0f}"
            + (", draining" if health.get("draining") else "")
        )
    return 0


def _cmd_trace(args) -> int:
    """Join span JSONL logs into trace trees and print waterfalls."""
    from repro.obs.tracing import format_trace, group_traces, load_spans

    spans = load_spans(args.logs)
    traces = group_traces(spans)
    if args.trace_id:
        traces = {
            t: s for t, s in traces.items() if t.startswith(args.trace_id)
        }
        if not traces:
            print(f"error: no trace matching {args.trace_id!r}",
                  file=sys.stderr)
            return 1
    if not traces:
        print("error: no span records in the given logs", file=sys.stderr)
        return 1
    # Most recent first (by each trace's last span); cap unless a
    # specific trace was asked for.
    ordered = sorted(
        traces.items(),
        key=lambda kv: max(s.get("mono") or 0.0 for s in kv[1]),
        reverse=True,
    )
    dropped = 0
    if not args.trace_id and args.limit and len(ordered) > args.limit:
        dropped = len(ordered) - args.limit
        ordered = ordered[: args.limit]
    if args.json:
        for trace_id, bucket in ordered:
            print(json.dumps({"trace": trace_id, "spans": bucket}))
        return 0
    for trace_id, bucket in ordered:
        for line in format_trace(bucket):
            print(line)
        print()
    if dropped:
        print(f"c {dropped} older trace(s) not shown (raise --limit)")
    return 0


def _cmd_enable(args) -> int:
    formula = read_dimacs(args.file)
    options = EnablingOptions(mode=args.mode, support=args.support, k=args.k)
    result = enable_ec(formula, options, method=args.method)
    if not result.succeeded:
        print("s UNSATISFIABLE (under enabling constraints)")
        return 1
    report = flexibility_report(formula, result.assignment, with_robustness=False)
    print(f"s SATISFIABLE (enabled, {options.mode}/{options.support})")
    print(f"c 2-satisfied fraction: {report.fraction_2_satisfied:.3f}")
    print(f"c fragile clauses:      {report.fragile_clauses}")
    print("v " + " ".join(str(l) for l in result.assignment.to_literals()) + " 0")
    return 0


def _cmd_fast(args) -> int:
    _original_formula, assignment = _solve_file(
        args.original, args.method, deadline=args.deadline, seed=args.seed
    )
    if assignment is None:
        raise ReproError(f"{args.original}: original instance is unsatisfiable")
    modified = read_dimacs(args.modified)
    result = fast_ec(
        modified, assignment, method=args.method,
        deadline=args.deadline, seed=args.seed,
    )
    if not result.succeeded:
        print("s UNSATISFIABLE (modified instance)")
        return 1
    print(f"c re-solved {result.instance.num_vars} vars / "
          f"{result.instance.num_clauses} clauses"
          + (" (fallback)" if result.fell_back else ""))
    print("v " + " ".join(str(l) for l in result.assignment.to_literals()) + " 0")
    return 0


def _cmd_preserve(args) -> int:
    _original_formula, assignment = _solve_file(
        args.original, args.method, deadline=args.deadline, seed=args.seed
    )
    if assignment is None:
        raise ReproError(f"{args.original}: original instance is unsatisfiable")
    modified = read_dimacs(args.modified)
    result = preserving_ec(
        modified, assignment, method=args.method,
        deadline=args.deadline, seed=args.seed,
    )
    if not result.succeeded:
        print("s UNSATISFIABLE (modified instance)")
        return 1
    print(f"c preserved {result.preserved_count}/{result.comparable_variables} "
          f"({result.preserved_fraction:.1%})")
    print("v " + " ".join(str(l) for l in result.assignment.to_literals()) + " 0")
    return 0


def _cmd_bench(args) -> int:
    import importlib

    module = importlib.import_module(f"repro.bench.{args.table}")
    forwarded = []
    if args.tier:
        forwarded += ["--tier", args.tier]
    if args.block:
        forwarded += ["--block", args.block]
    return module.main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ILP-based engineering change (DAC 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.engine.adapters import ADAPTERS

    p = sub.add_parser("solve", help="solve a DIMACS CNF (ILP route, portfolio engine, or one named solver)")
    p.add_argument("file")
    p.add_argument("--method", default="exact", choices=("exact", "heuristic", "auto"),
                   help="ILP method (only with --engine ilp)")
    p.add_argument("--engine", default=None,
                   choices=("ilp", "portfolio", *sorted(ADAPTERS)),
                   help="'ilp' = the paper's route (the default); "
                        "'portfolio' = parallel engine; any other name runs "
                        "that single solver (incompatible with --batch, "
                        "which always races the portfolio)")
    p.add_argument("--jobs", type=int, default=None,
                   help="portfolio process-pool width (default: auto)")
    p.add_argument("--batch", action="store_true",
                   help="treat FILE as a directory and solve every *.cnf "
                        "in it as one batch through the portfolio engine "
                        "(one shared pool, fingerprint dedup)")
    p.add_argument("--seed", type=int, default=None,
                   help="race seed for randomized solvers")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--connect", metavar="ADDR", default=None,
                   help="route the query to a running `repro serve` daemon "
                        "or `repro route` front-end at this address — a "
                        "Unix socket path, unix://PATH, or tcp://HOST:PORT "
                        "(instance ships as packed wire bytes; default "
                        "strategy becomes 'portfolio')")
    p.add_argument("--stats-json", metavar="PATH", default=None,
                   help="dump the engine/cache counters (hits, misses, "
                        "batch dedups, transport bytes, winner) as JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "serve",
        help="run the SolverService daemon on a local socket "
             "(see `solve --connect`)",
    )
    p.add_argument("--socket", default=None,
                   help="Unix socket path to listen on (optional when "
                        "--tcp is given)")
    p.add_argument("--tcp", metavar="HOST:PORT", default=None,
                   help="also (or only) listen on this TCP endpoint — "
                        "same wire protocol, reachable across boxes; "
                        "port 0 binds an ephemeral port and prints it")
    p.add_argument("--auth-token", metavar="TOKEN", default=None,
                   help="require a per-connection token handshake before "
                        "the first op (default: $REPRO_AUTH_TOKEN; unset "
                        "= open)")
    p.add_argument("--peer", metavar="ADDR", action="append", default=None,
                   help="pull-replicate the disk cache from this peer "
                        "daemon (repeatable; needs --cache disk; peers "
                        "share the auth token)")
    p.add_argument("--sync-interval", type=float, default=2.0,
                   help="seconds between anti-entropy pull rounds "
                        "(default 2.0)")
    p.add_argument("--jobs", type=int, default=None,
                   help="portfolio process-pool width (default: auto)")
    p.add_argument("--quick-slice", type=float, default=None,
                   help="in-process lead-solver budget in seconds before "
                        "fan-out; 0 sends every uncached solve straight "
                        "to the worker pool (default: engine default)")
    p.add_argument("--cache", default="memory",
                   choices=("memory", "disk", "none"),
                   help="verdict cache backend ('disk' persists across "
                        "restarts and processes; requires --cache-dir)")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the disk cache backend")
    p.add_argument("--cache-entries", type=int, default=4096,
                   help="cache capacity before LRU eviction")
    p.add_argument("--log-file", default=None,
                   help="append one line per handled request here")
    p.add_argument("--record", metavar="PATH", default=None,
                   help="record every handled request/response (with "
                        "timing) to this JSONL trace (an existing file "
                        "is overwritten); replay it with `repro replay`")
    p.add_argument("--max-requests", type=int, default=None,
                   help="gracefully drain and exit after this many "
                        "handled requests (pings and health excluded)")
    p.add_argument("--max-frame-bytes", type=int, default=None,
                   help="per-daemon cap on incoming wire frame sizes "
                        "(default: the wire module's 512 MiB sanity cap)")
    p.add_argument("--chaos", metavar="SPEC", default=None,
                   help="fault-injection plan, e.g. "
                        "'seed=42;worker.kill:p=0.1,count=2;wire.drop:p=0.05' "
                        "— deterministic per seed, propagated to pool "
                        "workers (testing only; see repro.faults)")
    p.add_argument("--trace-log", metavar="PATH", default=None,
                   help="append one JSONL span record per traced request "
                        "stage here; reconstruct with `repro trace`")
    p.add_argument("--trace-sample", type=float, default=None,
                   help="root sampling probability for requests arriving "
                        "without a trace context (default 0.01 when "
                        "--trace-log is given, else tracing stays off; "
                        "requests that arrive traced are always recorded)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "route",
        help="run the fingerprint-hash front-end over 2-3 backend "
             "nodes (clients --connect here unchanged)",
    )
    p.add_argument("--listen", metavar="ADDR", required=True,
                   help="front-end endpoint (unix://PATH, tcp://HOST:PORT, "
                        "or a bare socket path; tcp port 0 = ephemeral)")
    p.add_argument("--node", metavar="ADDR", action="append", required=True,
                   help="backend `repro serve` endpoint (repeat per node)")
    p.add_argument("--auth-token", metavar="TOKEN", default=None,
                   help="token clients must present to the router "
                        "(default: $REPRO_AUTH_TOKEN; unset = open)")
    p.add_argument("--node-token", metavar="TOKEN", default=None,
                   help="token the router presents to nodes "
                        "(default: same as --auth-token)")
    p.add_argument("--health-interval", type=float, default=2.0,
                   help="seconds between node health probes (default 2.0)")
    p.add_argument("--retries", type=int, default=2,
                   help="transport retries per node before failing over")
    p.add_argument("--log-file", default=None,
                   help="append one line per routed request here")
    p.add_argument("--trace-log", metavar="PATH", default=None,
                   help="append one JSONL record per router hop span "
                        "here; join with node logs via `repro trace`")
    p.add_argument("--trace-sample", type=float, default=None,
                   help="root sampling probability for untraced requests "
                        "(default 0: the router only continues traces "
                        "clients start)")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser(
        "cache",
        help="offline cache replication: export/import packet files",
    )
    p.add_argument("action", choices=("export", "import"),
                   help="export entries to a packet, or merge one in")
    p.add_argument("packet", help="JSONL packet file path")
    p.add_argument("--cache-dir", required=True,
                   help="the disk cache directory to export from / "
                        "import into")
    p.add_argument("--cache-entries", type=int, default=4096,
                   help="capacity of the target cache (import sweeps "
                        "past it, oldest first)")
    p.add_argument("--since", type=int, default=0,
                   help="export only entries past this sync cursor "
                        "(default 0 = everything)")
    p.set_defaults(func=_cmd_cache)

    from repro.workload.scenarios import SCENARIOS

    p = sub.add_parser(
        "loadgen",
        help="generate a seeded EC request stream and drive it at load "
             "(closed-loop workers or open-loop arrivals)",
    )
    p.add_argument("scenario", choices=sorted(SCENARIOS),
                   help="scenario generator (see repro.workload.scenarios)")
    p.add_argument("--tenants", type=int, default=4,
                   help="concurrent EC sessions in the stream")
    p.add_argument("--changes", type=int, default=6,
                   help="engineering changes per session")
    p.add_argument("--seed", type=int, default=0,
                   help="stream seed (same seed => identical stream)")
    p.add_argument("--concurrency", type=int, default=1,
                   help="closed-loop worker count")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed-loop (completion-driven) or open-loop "
                        "(schedule-driven) load")
    p.add_argument("--rate", type=float, default=None,
                   help="open-loop Poisson arrival rate in events/second "
                        "(implies --mode open)")
    p.add_argument("--connect", metavar="ADDR", default=None,
                   help="drive a running `repro serve` daemon or `repro "
                        "route` front-end (Unix path, unix://PATH, or "
                        "tcp://HOST:PORT) instead of an in-process service")
    p.add_argument("--jobs", type=int, default=None,
                   help="in-process pool width (ignored with --connect)")
    p.add_argument("--record", metavar="PATH", default=None,
                   help="record the executed stream as a replayable trace "
                        "(an existing file is overwritten)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON load report here")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "replay",
        help="re-execute a recorded trace and verify every response "
             "against the recorded one",
    )
    p.add_argument("trace", help="a trace written by --record")
    p.add_argument("--connect", metavar="ADDR", default=None,
                   help="replay against a running daemon or router "
                        "(Unix path, unix://PATH, or tcp://HOST:PORT) "
                        "instead of an in-process service")
    p.add_argument("--jobs", type=int, default=None,
                   help="in-process pool width (ignored with --connect)")
    p.add_argument("--concurrency", type=int, default=1,
                   help="closed-loop worker count")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed-loop replay, or open-loop on the trace's "
                        "recorded arrival offsets")
    p.add_argument("--rate", type=float, default=None,
                   help="override the recorded offsets with a Poisson "
                        "arrival rate (implies --mode open)")
    p.add_argument("--speed", type=float, default=1.0,
                   help="time-compression for recorded offsets (open "
                        "mode; 2.0 = twice as fast)")
    p.add_argument("--batch-segments", action="store_true",
                   help="coalesce consecutive stateless solves into "
                        "wire-level solve_many batches")
    p.add_argument("--no-verify", action="store_true",
                   help="skip response verification (pure load replay)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --rate arrival schedules")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON replay report here")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "stats",
        help="observability frames from a running daemon "
             "(one-shot, or --watch for the live push-stream)",
    )
    p.add_argument("--connect", metavar="ADDR", required=True,
                   help="the daemon's (or router's) address: Unix path, "
                        "unix://PATH, or tcp://HOST:PORT")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable frames (one JSON object "
                        "one-shot; one JSON line per frame with --watch)")
    p.add_argument("--watch", action="store_true",
                   help="subscribe to the daemon's metric push-stream "
                        "and print one line per interval (Ctrl-C to stop)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between watch frames (default 1.0)")
    p.add_argument("--frames", type=int, default=None,
                   help="stop after this many watch frames "
                        "(default: until Ctrl-C or daemon drain)")
    p.add_argument("--window", type=float, default=None,
                   help="trailing seconds folded into one-shot rates "
                        "(default 60)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "trace",
        help="reconstruct distributed trace trees from span JSONL logs "
             "(written with serve/route --trace-log)",
    )
    p.add_argument("logs", nargs="+",
                   help="span JSONL logs to join — any mix of client, "
                        "router, and node files")
    p.add_argument("--trace-id", metavar="PREFIX", default=None,
                   help="show only the trace(s) whose id starts with this")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per trace (id + raw spans) "
                        "instead of the waterfall rendering")
    p.add_argument("--limit", type=int, default=10,
                   help="most-recent traces to render (default 10; "
                        "ignored with --trace-id)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enable", help="solve with enabling EC")
    p.add_argument("file")
    p.add_argument("--mode", default="objective", choices=("constraints", "objective"))
    p.add_argument("--support", default="chained", choices=("acyclic", "chained"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--method", default="exact", choices=("exact", "heuristic", "auto"))
    p.set_defaults(func=_cmd_enable)

    p = sub.add_parser("fast", help="fast EC between two instances")
    p.add_argument("original")
    p.add_argument("modified")
    p.add_argument("--method", default="exact", choices=("exact", "heuristic", "auto"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds per solve")
    p.set_defaults(func=_cmd_fast)

    p = sub.add_parser("preserve", help="preserving EC between two instances")
    p.add_argument("original")
    p.add_argument("modified")
    p.add_argument("--method", default="exact", choices=("exact", "heuristic", "auto"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds per solve")
    p.set_defaults(func=_cmd_preserve)

    p = sub.add_parser("bench", help="regenerate a paper table or the engine comparison")
    p.add_argument("table", choices=("table1", "table2", "table3", "engine", "workload"))
    p.add_argument("--tier", choices=("ci", "paper"), default=None)
    p.add_argument("--block", choices=("small", "large", "all"), default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream consumer (e.g. `| head`) closed stdout after a
        # successful solve; that is not an error.  Point stdout at
        # /dev/null so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except ConnectError as exc:
        # A missing/dead daemon socket is an operational condition, not a
        # crash: one line on stderr, exit 1 (the client already spent its
        # connect-retry budget, which rides out a daemon mid-restart).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
