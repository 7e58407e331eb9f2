"""Spans around calls into the program, and their fold into layer times.

A span is ``(name, start, end, parent, op)``: *parent* indexes the span
that was open on the same thread when it began (-1 for none) and *op* is
the benchmark op it served (None outside measured ops).  Each process
keeps its spans in memory and writes them out once, at exit.  Start and
end come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux and so comparable across the benchmark's processes.

The fold joins the processes of one op into a single tree: a process
root (a span without a parent) in a daemon or router hangs under the
op's hop span in the process that sent it the request (``client.call``
in the benchmark process, ``router.forward`` in a router).  A span's
self time is its duration minus the part of it that its children cover;
the self time of the op's root, ``client.op``, is time no span covers
and is reported as unattributed.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

#: The op's root span, opened by the workload around each measured op.
ROOT = "client.op"
#: Spans that wait for another process; daemon and router roots of the
#: same op hang under them.
HOPS = ("client.call", "router.forward")


class Recorder:
    """In-memory span store for one process (thread-safe)."""

    def __init__(self, proc: str):
        self.proc = proc
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- the op an entry point is serving (per thread) --------------------
    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"proc": self.proc, "spans": self.spans}, fh)


def load(path: str) -> tuple[str, list]:
    with open(path) as fh:
        data = json.load(fh)
    return data["proc"], data["spans"]


def covered(interval: tuple[float, float], children) -> float:
    """Length of the part of *interval* that the *children* intervals
    cover (overlaps counted once)."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def fold(processes: list[tuple[str, list]], ops) -> dict:
    """Per-op span totals for the measured *ops*.

    *processes* is ``[(proc, spans)]``, where *proc* is ``"client"``,
    ``"router"`` or ``"daemon:<n>"``.  Returns ``{op: {"wall": s,
    "dur": {name: s}, "self": {name: s}, "count": {name: n}}}``; the
    self time of :data:`ROOT` is the op's unattributed time.
    """
    wanted = set(ops)
    # Every span of a wanted op, with a global id per (process, index).
    nodes: dict = {}
    children: dict = defaultdict(list)
    roots: dict = defaultdict(list)        # op -> process-root ids (non-client)
    hops: dict = defaultdict(dict)         # op -> {hop name: id}
    for p, (proc, spans) in enumerate(processes):
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in wanted or end <= 0.0:
                continue
            sid = (p, i)
            nodes[sid] = (name, start, end, op, proc)
            if parent >= 0:
                children[(p, parent)].append(sid)
            elif name != ROOT:
                roots[op].append(sid)
            if name in HOPS:
                hops[op][name] = sid
    for op, ids in roots.items():
        for sid in ids:
            proc = nodes[sid][4]
            # A node daemon answers the router's forward when there is a
            # router in front; everything else answers the client's call.
            if proc.startswith("daemon") and "router.forward" in hops[op]:
                hop = hops[op]["router.forward"]
            else:
                hop = hops[op].get("client.call")
            if hop is not None:
                children[hop].append(sid)
    out: dict = {
        op: {"wall": 0.0, "dur": defaultdict(float), "self": defaultdict(float),
             "count": defaultdict(int)}
        for op in wanted
    }
    for sid, (name, start, end, op, _proc) in nodes.items():
        row = out[op]
        kids = [(nodes[c][1], nodes[c][2]) for c in children.get(sid, ())]
        row["dur"][name] += end - start
        row["self"][name] += (end - start) - covered((start, end), kids)
        row["count"][name] += 1
        if name == ROOT:
            row["wall"] = end - start
    return out
