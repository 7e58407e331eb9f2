"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is used from the
checkout's ``src/``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it measures the workload untraced and then
traced (half the seconds each, same process layout), and reports the
per-layer metrics, each layer's self time, the unattributed share and
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer counts as a
failed op; a path-guard trip (see :mod:`perfbench.workloads`) makes the
run incorrect and its exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "wire-hot": "1 connection to repro serve; stateless packed solves over 16 "
                "cached instances",
    "ec-stream": "2 connections to repro serve; sessions of single-clause "
                 "changes",
    "routed-hot": "wire-hot's stream through repro route over 2 nodes",
    "ilp-ec": "in-process fast_ec / preserving_ec on Table-2/3 trials",
}

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("rss_mb", "MB"),
    ("preserved_pct", "%"),
)
#: Latency percentiles printed with their sample counts but not reported
#: as metrics: each one is unsteady on some workload, and every reported
#: metric must hold on every workload.  wire-hot's median flips between
#: the host's two speed modes, and ilp-ec's p90 and p99 sit on a few
#: seed-dependent branch-and-bound ops (see README.md for the spreads).
PRINTED_ONLY = (50, 90, 99)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of *values*."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, ctx, boots: int):
    from perfbench import workloads

    if workload == "wire-hot":
        return workloads.run_hot(ctx, routed=False, boots=boots)
    if workload == "routed-hot":
        return workloads.run_hot(ctx, routed=True, boots=boots)
    if workload == "ec-stream":
        return workloads.run_ec_stream(ctx, boots=boots)
    return workloads.run_ilp_ec(ctx, boots=boots)


def end_to_end(run) -> dict:
    values = {
        "setup_s": statistics.median(run.setup),
        "throughput_rps": (run.attempted - run.failed) / run.wall,
        "rss_mb": run.rss_mb,
        "preserved_pct": statistics.mean(run.preserved) if run.preserved else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def import_seconds(runs: int = 3) -> float:
    """Median wall time of ``import repro`` in a fresh interpreter."""
    from perfbench.procs import child_env

    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=child_env(ROOT), capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(runs)
    ]
    return statistics.median(times)


def traced(workload: str, ctx) -> tuple:
    """Untraced then traced halves; returns (traced run, metrics, lines)."""
    from perfbench import layers, spans, wrap

    half = ctx.seconds / 2
    plain = measure(workload, replace(ctx, seconds=half), 1)
    rec = spans.Recorder("client")
    restore, missing = wrap.install(rec, "client")
    try:
        run = measure(workload, replace(ctx, seconds=half, recorder=rec), 1)
    finally:
        restore()
    processes = [("client", rec.spans)]
    for path in run.span_files:
        processes.append(spans.load(str(path)))
        missing += json.loads(Path(str(path) + ".missing").read_text())
    missing_names = wrap.missing_spans(missing)
    folded = spans.fold(processes, run.ops)
    fanouts = sum(1 for _, sp in processes for s in sp if s[0] == "portfolio.fanout")
    exact = dict(run.exact, **{"portfolio.pool_fanouts": float(fanouts),
                               "import_s": import_seconds()})
    values, missing_metrics, idle = layers.compute(folded, exact, missing_names)
    lines = ["per-layer metrics (traced half; means per op):"]
    for name, unit, _better, layer, _source, moves in layers.METRICS:
        shown = ("MISSING" if name in missing_metrics
                 else "n/a" if name in idle else f"{values[name]:.4f}")
        lines.append(f"  {name:28s} {shown:>12s} {unit:6s} [{layer}] should move: "
                     f"{moves}")
    if missing_names:
        lines.append(f"missing spans (target renamed or gone): {', '.join(missing_names)}")
    lines.append("self time per layer (ms per op, share of op wall):")
    for layer, ms, share in layers.self_times(folded):
        lines.append(f"  {layer:14s} {ms:10.4f} ms  {100 * share:6.2f} %")
    plain_mean = statistics.mean(plain.latencies)
    traced_mean = statistics.mean(run.latencies)
    lines.append(f"tracing overhead: mean op {1e3 * plain_mean:.4f} ms untraced, "
                 f"{1e3 * traced_mean:.4f} ms traced "
                 f"({100 * (traced_mean / plain_mean - 1):+.1f} %)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in layers.METRICS}
    return run, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (via the
    # finally blocks that SystemExit unwinds through).
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Byte-compile up front so no run times the compiler.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    from perfbench import procs, workloads

    # ilp-ec runs the program in this process: same environment as the
    # spawned ones, set before anything imports numpy.
    os.environ.update(procs.PROGRAM_ENV)

    rundir = ROOT / ".pbrun" / f"{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(ROOT, rundir, args.seed, args.seconds)
    probe_before = workloads.speed_probe()
    try:
        if args.trace:
            run, metrics, lines = traced(args.workload, ctx)
        else:
            run = measure(args.workload, ctx, workloads.SETUP_BOOTS)
            metrics = end_to_end(run)
            lines = [f"  {name:16s} {m['value']:.6g} {m['unit']}"
                     for name, m in metrics.items()]
            lines += [f"  (not a metric) latency_p{q}_ms {1e3 * percentile(run.latencies, q):.6g}"
                      f" ms, {int(len(run.latencies) * (100 - q) / 100)} ops beyond it"
                      for q in PRINTED_ONLY]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            (ROOT / ".pbrun").rmdir()
        except OSError:
            pass
    probe_after = workloads.speed_probe()
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"seed {args.seed}, {run.wall:.2f} s measured, {len(run.latencies)} ops")
    for line in lines:
        print(line)
    print("meta " + json.dumps({
        "speed_probe_s": {"before": probe_before, "after": probe_after},
        "setup_boots_s": run.setup,
        "guard_trips": run.trips,
        "failures": run.failures,
    }))
    for why in run.failures + run.trips:
        print(f"FAIL: {why}", file=sys.stderr)
    correct = run.failed == 0 and not run.trips
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if not run.trips else 1


if __name__ == "__main__":
    raise SystemExit(main())
