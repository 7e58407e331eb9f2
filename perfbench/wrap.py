"""Timed wrappers around the public calls of each program layer.

:data:`TARGETS` names every call the traced run times, by module and
attribute path, with the span it records and the processes (roles) it is
installed in: ``client`` (the benchmark process), ``daemon`` (``repro
serve``) and ``router`` (``repro route``).  :func:`install` wraps the
targets in place and returns a function that restores the originals.  A
target that no longer exists (a later change renamed it) is skipped and
reported as missing; the run goes on without its span.

Three targets do more than time the call.  ``ServiceClient._call`` puts
the current op id into the request header (as ``pb_op``, a key the
daemon and router ignore), and the daemon's and router's ``_dispatch``
read it back, so spans in every process carry the op they served.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

#: Header key carrying the benchmark op id across processes.
OP_KEY = "pb_op"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str          # "func" or "Class.method"
    span: str
    roles: tuple
    kind: str = "span"  # "span" | "dispatch" (reads the op id) | "call" (sends it)


C, D, R = ("client",), ("daemon",), ("router",)
TARGETS = (
    # client (service.client, service.wire)
    Target("repro.service.client", "solve_request_to_wire", "client.encode", C),
    Target("repro.service.client", "change_request_to_wire", "client.encode", C),
    Target("repro.service.client", "response_from_wire", "client.decode", C),
    Target("repro.service.client", "ServiceClient._call", "client.call", C + R, "call"),
    # daemon entry and wire codecs (service.daemon, service.wire)
    Target("repro.service.daemon", "ServiceDaemon._dispatch", "daemon.dispatch", D,
           "dispatch"),
    Target("repro.service.daemon", "solve_request_from_wire", "wire.decode", D),
    Target("repro.service.daemon", "change_request_from_wire", "wire.decode", D),
    Target("repro.service.daemon", "response_to_wire", "wire.encode", D),
    Target("repro.service.daemon", "send_frame", "wire.send", D),
    # service (service.service)
    Target("repro.service.service", "SolverService.solve", "service.op", D),
    Target("repro.service.service", "SolverService.change", "service.op", D),
    Target("repro.service.service", "SolverService._materialize",
           "service.materialize", D),
    # fingerprint (cnf.packed: fp-v2 is PackedCNF.fingerprint)
    Target("repro.cnf.packed", "PackedCNF.fingerprint", "fingerprint", C + D + R),
    # cache (engine.cache)
    Target("repro.engine.cache", "SolutionCache.get", "cache.lookup", D),
    Target("repro.engine.cache", "SolutionCache.put", "cache.lookup", D),
    # engine (engine.engine, cnf.formula)
    Target("repro.engine.engine", "PortfolioEngine.solve", "engine.solve", D),
    Target("repro.cnf.formula", "CNFFormula.is_satisfied", "engine.check", C + D),
    # session (engine.session)
    Target("repro.engine.session", "IncrementalSession.apply_changes",
           "session.apply", D),
    Target("repro.engine.session", "IncrementalSession.resolve_query",
           "session.resolve", D),
    # portfolio + CDCL (engine.portfolio, engine.adapters)
    Target("repro.engine.portfolio", "Portfolio.solve", "portfolio.solve", D),
    Target("repro.engine.portfolio", "Portfolio._begin_race", "portfolio.fanout", D),
    Target("repro.engine.adapters", "CDCLAdapter.solve_packed", "cdcl.solve", D),
    # obs (obs.metrics)
    Target("repro.obs.metrics", "MetricsRegistry.bump", "obs.bump", D),
    # router (cluster.router)
    Target("repro.cluster.router", "RouterDaemon._dispatch", "router.dispatch", R,
           "dispatch"),
    Target("repro.cluster.router", "RouterDaemon._route_key", "router.key", R),
    Target("repro.service.client", "ServiceClient.forward", "router.forward", R),
    Target("repro.cluster.router", "send_frame", "router.send", R),
    # EC route (core.fast, core.preserving, sat.encoding)
    Target("repro.core.fast", "encode_sat", "encoding", C),
    Target("repro.core.preserving", "build_preserving_encoding", "encoding", C),
    Target("repro.core.fast", "simplify_instance", "fast.simplify", C),
    # ILP solver (ilp.branch_and_bound, ilp.lp_backend)
    Target("repro.ilp.branch_and_bound", "BranchAndBoundSolver.solve", "bb.solve", C),
    Target("repro.ilp.lp_backend", "SimplexBackend.solve", "lp.simplex", C),
    Target("repro.ilp.lp_backend", "ScipyBackend.solve", "lp.highs", C),
)


def target_id(target: Target) -> str:
    return f"{target.module}:{target.attr}"


def missing_spans(ids) -> list[str]:
    """Span names with at least one target among the missing *ids*."""
    ids = set(ids)
    return sorted({t.span for t in TARGETS if target_id(t) in ids})


def _resolve(target: Target):
    """(owner, name, raw attribute) or None when the target is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(
        owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw


def _wrapper(fn, target: Target, rec):
    name = target.span
    if target.kind == "dispatch":
        # ServiceDaemon._dispatch(self, op, header, payload) and
        # RouterDaemon._dispatch(self, op, header, payload, clients).
        @functools.wraps(fn)
        def wrapped(self, op, header, *args, **kwargs):
            rec.op = header.get(OP_KEY) if isinstance(header, dict) else None
            index = rec.begin(name)
            try:
                return fn(self, op, header, *args, **kwargs)
            finally:
                rec.end(index)
    elif target.kind == "call":
        # ServiceClient._call(self, header, payload=b"", ...): the op id
        # rides the header; the span is kept in the benchmark process
        # only (a router's calls are already timed as router.forward).
        timed = rec.proc == "client"

        @functools.wraps(fn)
        def wrapped(self, header, *args, **kwargs):
            if rec.op is not None:
                header = dict(header, **{OP_KEY: rec.op})
            if not timed:
                return fn(self, header, *args, **kwargs)
            index = rec.begin(name)
            try:
                return fn(self, header, *args, **kwargs)
            finally:
                rec.end(index)
    else:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(index)
    return wrapped


def install(rec, role: str, targets=TARGETS):
    """Wrap every target of *role*; returns ``(restore, missing)``.

    *missing* lists the targets that could not be found (see
    :func:`target_id`); their spans are simply never recorded.
    """
    undo: list = []
    missing: list = []
    for target in targets:
        if role not in target.roles:
            continue
        found = _resolve(target)
        if found is None:
            missing.append(target_id(target))
            continue
        owner, name, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrapper(raw.__func__, target, rec))
        else:
            new = _wrapper(raw, target, rec)
        setattr(owner, name, new)
        undo.append((owner, name, raw))

    def restore() -> None:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return restore, missing
