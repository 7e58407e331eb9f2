"""Per-layer metrics: what each one times, and what it should move.

Each entry of :data:`METRICS` is one per-layer metric of the traced run:
its name and unit, which way is better, the layer (module) it belongs
to, how it is computed, and the end-to-end metric and workload it should
move.  Times are means per measured op, in ms, of the spans that
:mod:`perfbench.wrap` records; counts marked *exact* come from the
program's own counters (the daemon's ``stats``/``health`` ops, the
router's ``cluster_health``, the client's ``retried``, the ILP
``SolveStats``) or from the checked answers.

Sources:

* ``("dur", spans)`` -- summed duration of these spans;
* ``("calls", spans)`` -- number of these spans;
* ``("self", spans)`` -- summed self time (duration minus children);
* ``("exact", key)`` -- a number the workload measured itself;
* ``("router_self", ())`` -- the router's op time minus its forward.

A metric whose spans could not all be wrapped (a later change renamed a
target) is reported as missing, with value 0.
"""

from __future__ import annotations

from statistics import mean

WIRE_HOT = "throughput_rps @ wire-hot"
EC_STREAM = "throughput_rps @ ec-stream"
ENGINE = "throughput_rps @ wire-hot, ec-stream"
RESOLVE = "throughput_rps @ ec-stream (CDCL re-solves, the tail)"

# (name, unit, better, layer, source, should move)
METRICS = (
    ("client.encode_ms", "ms", "lower", "client", ("dur", ("client.encode",)), WIRE_HOT),
    ("client.decode_ms", "ms", "lower", "client", ("dur", ("client.decode",)), WIRE_HOT),
    ("client.retries", "1/op", "lower", "client", ("exact", "client.retries"), WIRE_HOT),
    ("wire.decode_ms", "ms", "lower", "wire", ("dur", ("wire.decode",)), EC_STREAM),
    ("wire.encode_ms", "ms", "lower", "wire", ("dur", ("wire.encode", "wire.send")),
     EC_STREAM),
    ("daemon.transit_ms", "ms", "lower", "daemon",
     ("self", ("client.call", "router.forward")), EC_STREAM),
    ("service.op_ms", "ms", "lower", "service", ("dur", ("service.op",)),
     WIRE_HOT + "; ~0 @ ec-stream"),
    ("service.materialize_ms", "ms", "lower", "service",
     ("dur", ("service.materialize",)), WIRE_HOT + "; ~0 @ ec-stream"),
    ("fingerprint.calls_per_op", "1/op", "lower", "fingerprint",
     ("calls", ("fingerprint",)),
     "throughput_rps @ wire-hot, routed-hot; small @ ec-stream"),
    ("fingerprint.ms_per_op", "ms", "lower", "fingerprint", ("dur", ("fingerprint",)),
     "throughput_rps @ wire-hot, routed-hot; small @ ec-stream"),
    ("cache.lookup_ms", "ms", "lower", "cache", ("dur", ("cache.lookup",)), WIRE_HOT),
    ("cache.hit_ratio", "ratio", "higher", "cache", ("exact", "cache.hit_ratio"),
     WIRE_HOT + " (1.0 after warm-up)"),
    ("engine.solve_ms", "ms", "lower", "engine", ("dur", ("engine.solve",)), ENGINE),
    ("engine.check_ms", "ms", "lower", "engine", ("dur", ("engine.check",)), ENGINE),
    ("engine.cache_hits", "1/op", "higher", "engine", ("exact", "engine.cache_hits"), ENGINE),
    ("engine.revalidations", "1/op", "higher", "engine",
     ("exact", "engine.revalidations"), ENGINE),
    ("engine.races", "1/op", "lower", "engine", ("exact", "engine.races"), ENGINE),
    ("engine.solver_calls", "1/op", "lower", "engine", ("exact", "engine.solver_calls"),
     ENGINE),
    ("engine.inflight_joins", "1/op", "lower", "engine",
     ("exact", "engine.inflight_joins"), ENGINE),
    ("session.apply_ms", "ms", "lower", "session", ("dur", ("session.apply",)), EC_STREAM),
    ("session.revalidation_ratio", "ratio", "higher", "session",
     ("exact", "session.revalidation_ratio"), EC_STREAM),
    ("portfolio.solve_ms", "ms", "lower", "portfolio", ("dur", ("portfolio.solve",)),
     RESOLVE),
    ("portfolio.pool_fanouts", "count", "lower", "portfolio",
     ("exact", "portfolio.pool_fanouts"), "expected 0 on every workload"),
    ("cdcl.solve_ms", "ms", "lower", "cdcl", ("dur", ("cdcl.solve",)),
     RESOLVE),
    ("cdcl.conflicts", "1/op", "lower", "cdcl", ("exact", "cdcl.conflicts"),
     RESOLVE),
    ("router.key_ms", "ms", "lower", "router", ("dur", ("router.key",)),
     "throughput_rps @ routed-hot"),
    ("router.forward_ms", "ms", "lower", "router", ("dur", ("router.forward",)),
     "throughput_rps @ routed-hot"),
    ("router.self_ms", "ms", "lower", "router", ("router_self", ()),
     "throughput_rps @ routed-hot"),
    ("router.failovers", "count", "lower", "router", ("exact", "router.failovers"),
     "expected 0 @ routed-hot"),
    ("encoding.ms", "ms", "lower", "encoding", ("dur", ("encoding",)),
     "throughput_rps @ ilp-ec; the printed median @ ilp-ec"),
    ("fast.simplify_ms", "ms", "lower", "fast", ("dur", ("fast.simplify",)),
     "throughput_rps @ ilp-ec; the printed median @ ilp-ec"),
    ("fast.subinstance_pct", "%", "lower", "fast", ("exact", "fast.subinstance_pct"),
     "throughput_rps @ ilp-ec"),
    ("bb.nodes", "1/op", "lower", "bb", ("exact", "bb.nodes"), "throughput_rps @ ilp-ec"),
    ("lp.simplex_calls", "1/op", "lower", "lp", ("calls", ("lp.simplex",)),
     "throughput_rps @ ilp-ec"),
    ("lp.simplex_ms", "ms", "lower", "lp", ("dur", ("lp.simplex",)),
     "throughput_rps @ ilp-ec"),
    ("lp.highs_calls", "1/op", "lower", "lp", ("calls", ("lp.highs",)),
     "throughput_rps @ ilp-ec; the printed median @ ilp-ec (per-call overhead)"),
    ("lp.highs_ms", "ms", "lower", "lp", ("dur", ("lp.highs",)),
     "throughput_rps @ ilp-ec; the printed median @ ilp-ec (per-call overhead)"),
    ("obs.bump_ms", "ms", "lower", "obs", ("dur", ("obs.bump",)),
     "throughput_rps @ ec-stream"),
    ("import_s", "s", "lower", "process", ("exact", "import_s"),
     "setup_s @ wire-hot, ec-stream, routed-hot (not @ ilp-ec)"),
    ("unattributed_ms", "ms", "lower", "process", ("self", ("client.op",)),
     "nothing: time no span covers"),
)

#: Which layer each span's self time belongs to.  The self time of a hop
#: (a span waiting on another process) is time in flight on the socket
#: or queued in the receiver; the self time of the op root is
#: unattributed.
SPAN_LAYER = {
    "client.op": "unattributed",
    "client.encode": "client",
    "client.decode": "client",
    "client.call": "transit",
    "router.forward": "transit",
    "daemon.dispatch": "daemon",
    "wire.decode": "wire",
    "wire.encode": "wire",
    "wire.send": "wire",
    "service.op": "service",
    "service.materialize": "service",
    "fingerprint": "fingerprint",
    "cache.lookup": "cache",
    "engine.solve": "engine",
    "engine.check": "engine",
    "session.apply": "session",
    "session.resolve": "session",
    "portfolio.solve": "portfolio",
    "portfolio.fanout": "portfolio",
    "cdcl.solve": "cdcl",
    "obs.bump": "obs",
    "router.dispatch": "router",
    "router.key": "router",
    "router.send": "router",
    "encoding": "encoding",
    "fast.simplify": "fast",
    "bb.solve": "bb",
    "lp.simplex": "lp",
    "lp.highs": "lp",
}


def _spans_of(source) -> tuple:
    kind, arg = source
    if kind in ("dur", "calls", "self"):
        return arg
    if kind == "router_self":
        return ("router.dispatch", "router.send", "router.forward")
    return ()


def compute(folded: dict, exact: dict, missing_spans) -> tuple[dict, list, list]:
    """(metric values, missing metrics, metrics not on this workload's path).

    *folded* is :func:`perfbench.spans.fold` output over the measured
    ops; *exact* holds the ``("exact", key)`` numbers.  A missing metric
    (one of its spans could not be wrapped) and a metric off the path (no
    span or number for it in this workload) both read 0.
    """
    rows = list(folded.values())
    n = max(1, len(rows))
    seen = {s for r in rows for s in r["count"]}

    def per_op(field, names):
        return sum(sum(r[field].get(s, 0) for s in names) for r in rows) / n

    values: dict = {}
    missing: list = []
    idle: list = []
    for name, _unit, _better, _layer, source, _moves in METRICS:
        kind, arg = source
        values[name] = 0.0
        if set(_spans_of(source)) & set(missing_spans):
            missing.append(name)
        elif kind == "exact":
            if arg in exact:
                values[name] = float(exact[arg])
            else:
                idle.append(name)
        elif not set(_spans_of(source)) & seen:
            idle.append(name)
        elif kind == "dur":
            values[name] = 1e3 * per_op("dur", arg)
        elif kind == "self":
            values[name] = 1e3 * per_op("self", arg)
        elif kind == "calls":
            values[name] = per_op("count", arg)
        else:  # router_self
            values[name] = 1e3 * (per_op("dur", ("router.dispatch", "router.send"))
                                  - per_op("dur", ("router.forward",)))
    return values, missing, idle


def self_times(folded: dict) -> list[tuple[str, float, float]]:
    """``[(layer, self ms per op, share of op wall)]``, largest first; the
    shares of all layers sum to 1."""
    rows = list(folded.values())
    if not rows:
        return []
    wall = mean(r["wall"] for r in rows)
    per_layer: dict = {}
    for r in rows:
        for span, t in r["self"].items():
            layer = SPAN_LAYER.get(span, span)
            per_layer[layer] = per_layer.get(layer, 0.0) + t / len(rows)
    return sorted(
        ((layer, 1e3 * t, t / wall if wall else 0.0) for layer, t in per_layer.items()),
        key=lambda row: -row[1],
    )
