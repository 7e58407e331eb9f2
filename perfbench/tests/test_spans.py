"""Self time, unattributed time and the cross-process fold."""

import threading

import pytest

from perfbench import layers, spans


def test_covered_counts_overlaps_once_and_clips():
    assert spans.covered((0, 10), [(1, 3), (2, 4), (6, 7)]) == pytest.approx(4)
    assert spans.covered((0, 10), [(-5, 1), (9, 20)]) == pytest.approx(2)
    assert spans.covered((0, 10), []) == 0
    assert spans.covered((0, 10), [(11, 12)]) == 0


def synthetic(op=0, other=1):
    """One wire op: client -> daemon, plus a span of another op."""
    client = [
        ["client.op", 0.0, 10.0, -1, op],
        ["client.encode", 1.0, 2.0, 0, op],
        ["client.call", 2.0, 9.0, 0, op],
        ["client.decode", 9.0, 9.5, 0, op],
        ["client.op", 20.0, 21.0, -1, other],
    ]
    daemon = [
        ["daemon.dispatch", 3.0, 7.0, -1, op],
        ["wire.decode", 3.0, 3.5, 0, op],
        ["service.op", 4.0, 6.5, 0, op],
        ["fingerprint", 4.0, 5.0, 2, op],
        ["wire.send", 7.2, 7.6, -1, op],
        ["obs.bump", 7.0, 7.1, -1, None],
    ]
    return [("client", client), ("daemon:0", daemon)]


def test_fold_self_times_and_unattributed():
    row = spans.fold(synthetic(), [0])[0]
    assert row["wall"] == pytest.approx(10)
    self_ = row["self"]
    assert self_["client.op"] == pytest.approx(1.5)       # unattributed
    assert self_["client.call"] == pytest.approx(7 - 4 - 0.4)
    assert self_["daemon.dispatch"] == pytest.approx(4 - 0.5 - 2.5)
    assert self_["service.op"] == pytest.approx(1.5)
    assert self_["fingerprint"] == pytest.approx(1.0)
    # Every instant of the op is attributed exactly once.
    assert sum(self_.values()) == pytest.approx(row["wall"])
    assert row["count"]["fingerprint"] == 1
    assert "obs.bump" not in row["dur"]                   # op None: not ours


def test_fold_hangs_node_daemon_under_the_router_forward():
    client = [["client.op", 0.0, 10.0, -1, 5], ["client.call", 1.0, 9.0, 0, 5]]
    router = [["router.dispatch", 2.0, 8.0, -1, 5], ["router.key", 2.0, 3.0, 0, 5],
              ["router.forward", 3.0, 7.5, 0, 5], ["router.send", 8.0, 8.5, -1, 5]]
    node = [["daemon.dispatch", 4.0, 6.0, -1, 5]]
    row = spans.fold([("client", client), ("router", router), ("daemon:1", node)], [5])[5]
    assert row["self"]["router.forward"] == pytest.approx(4.5 - 2)
    assert row["self"]["client.call"] == pytest.approx(8 - 6.5)
    assert sum(row["self"].values()) == pytest.approx(10)
    values, missing, idle = layers.compute({5: row}, {}, [])
    assert values["router.self_ms"] == pytest.approx(1e3 * (6.5 - 4.5))
    assert values["daemon.transit_ms"] == pytest.approx(1e3 * (1.5 + 2.5))
    assert values["unattributed_ms"] == pytest.approx(1e3 * 2)
    assert not missing
    assert "lp.highs_ms" in idle and "router.key_ms" not in idle


def test_layer_self_times_share_sums_to_one():
    folded = spans.fold(synthetic(), [0])
    rows = layers.self_times(folded)
    assert sum(share for _, _, share in rows) == pytest.approx(1.0)
    by_layer = {layer: ms for layer, ms, _ in rows}
    assert by_layer["unattributed"] == pytest.approx(1.5e3)
    assert by_layer["wire"] == pytest.approx(0.9e3)


def test_compute_reports_missing_spans_and_exact_numbers():
    folded = spans.fold(synthetic(), [0])
    values, missing, _idle = layers.compute(folded, {"engine.races": 0.25},
                                            ["fingerprint"])
    assert "fingerprint.ms_per_op" in missing and values["fingerprint.ms_per_op"] == 0
    assert values["engine.races"] == 0.25
    assert values["wire.encode_ms"] == pytest.approx(1e3 * 0.4)


def test_recorder_nests_per_thread_and_tags_ops():
    rec = spans.Recorder("client")
    rec.op = 3
    outer = rec.begin("client.op")
    inner = rec.begin("client.call")

    def other_thread():
        assert rec.op is None
        rec.end(rec.begin("obs.bump"))

    t = threading.Thread(target=other_thread)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.end(inner)
    rec.end(outer)
    names = {s[0]: s for s in rec.spans}
    assert names["client.call"][3] == outer and names["client.call"][4] == 3
    assert names["obs.bump"][3] == -1 and names["obs.bump"][4] is None
    assert all(s[2] >= s[1] for s in rec.spans)
