"""The timed wrappers: they time, carry op ids, restore, and report
renamed targets as missing."""

import sys
import types

import pytest

from perfbench import spans, wrap

FAKE = "perfbench_fake_layer"


@pytest.fixture
def fake():
    module = types.ModuleType(FAKE)

    class Layer:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return (cls, x)

        @staticmethod
        def pure(x):
            return 2 * x

    class Daemon:
        def _dispatch(self, op, header, payload):
            return {"op": op, "seen": header.get(wrap.OP_KEY)}

    class Client:
        def _call(self, header, payload=b""):
            return header

    module.Layer, module.Daemon, module.Client = Layer, Daemon, Client
    module.func = lambda x: -x
    sys.modules[FAKE] = module
    yield module
    del sys.modules[FAKE]


def targets():
    return (
        wrap.Target(FAKE, "Layer.method", "a", ("client",)),
        wrap.Target(FAKE, "Layer.build", "b", ("client",)),
        wrap.Target(FAKE, "Layer.pure", "c", ("client",)),
        wrap.Target(FAKE, "func", "d", ("client",)),
        wrap.Target(FAKE, "Layer.renamed", "gone", ("client",)),
        wrap.Target(FAKE + "_nope", "func", "gone2", ("client",)),
        wrap.Target(FAKE, "Layer.method", "other-role", ("router",)),
    )


def test_wrappers_time_calls_and_restore_the_originals(fake):
    originals = dict(fake.Layer.__dict__)
    func = fake.func
    rec = spans.Recorder("client")
    restore, missing = wrap.install(rec, "client", targets())
    assert fake.Layer.__dict__["method"] is not originals["method"]
    assert fake.Layer().method(1) == 2
    assert fake.Layer.build(3) == (fake.Layer, 3)
    assert fake.Layer.pure(4) == 8
    assert fake.func(5) == -5
    assert [s[0] for s in rec.spans] == ["a", "b", "c", "d"]
    restore()
    for name in ("method", "build", "pure"):
        assert fake.Layer.__dict__[name] is originals[name]
    assert fake.func is func
    assert fake.Layer.build(3) == (fake.Layer, 3)


def test_renamed_targets_are_reported_missing_not_fatal(fake):
    rec = spans.Recorder("client")
    restore, missing = wrap.install(rec, "client", targets())
    restore()
    assert missing == [f"{FAKE}:Layer.renamed", f"{FAKE}_nope:func"]
    real = "repro.service.daemon:ServiceDaemon._dispatch"
    assert wrap.missing_spans([real]) == ["daemon.dispatch"]


def test_op_id_rides_the_header_from_client_to_dispatch(fake):
    call = wrap.Target(FAKE, "Client._call", "client.call", ("client",), "call")
    dispatch = wrap.Target(FAKE, "Daemon._dispatch", "daemon.dispatch",
                           ("client",), "dispatch")
    rec = spans.Recorder("client")
    restore, _ = wrap.install(rec, "client", (call, dispatch))
    try:
        rec.op = 42
        header = fake.Client()._call({"op": "solve"})
        assert header == {"op": "solve", wrap.OP_KEY: 42}
        rec.op = None
        assert fake.Daemon()._dispatch("solve", header, b"")["seen"] == 42
        assert rec.op == 42                     # set by the dispatch wrapper
        assert [(s[0], s[4]) for s in rec.spans] == [
            ("client.call", 42), ("daemon.dispatch", 42)]
        rec.op = None
        assert wrap.OP_KEY not in fake.Client()._call({"op": "ping"})
    finally:
        restore()


def test_every_target_names_a_known_layer_span():
    from perfbench import layers

    for target in wrap.TARGETS:
        assert target.span in layers.SPAN_LAYER
        assert set(target.roles) <= {"client", "daemon", "router"}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json
    from pathlib import Path

    from perfbench import layers, run

    bench = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.METRICS]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
