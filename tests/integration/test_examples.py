"""Smoke tests: the shipped examples must run end to end.

Each test runs one example in process and checks its closing line.  The
register-binding example takes about 20 s and is marked ``slow``; every
other example finishes within a few seconds.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_examples_exist():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "eco_respin.py",
        "incremental_synthesis.py",
        "register_binding_coloring.py",
        "design_for_change.py",
        "portfolio_engine.py",
        "solver_service.py",
        "workload_replay.py",
        "cluster.py",
    } <= names


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Enabling EC" in out
    assert "OK" in out


def test_portfolio_engine_runs(capsys):
    runpy.run_path(str(EXAMPLES / "portfolio_engine.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "revalidations: 2" in out
    assert "source: cache" in out
    assert "OK" in out


def test_solver_service_runs(capsys):
    runpy.run_path(str(EXAMPLES / "solver_service.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "via revalidation" in out
    assert "from_cache: True" in out
    assert "OK" in out


def test_workload_replay_runs(capsys):
    runpy.run_path(str(EXAMPLES / "workload_replay.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "same seed, same stream: True" in out
    assert "0 mismatches" in out
    assert "OK" in out


def _closing_line(capsys, name: str) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out.strip().splitlines()[-1]


def test_eco_respin_runs(capsys):
    assert _closing_line(capsys, "eco_respin.py") == (
        "OK: the ECO landed without re-opening the whole design."
    )


def test_design_for_change_runs(capsys):
    assert _closing_line(capsys, "design_for_change.py").endswith(
        "exactly the paper's enabling-EC claim."
    )


def test_incremental_synthesis_runs(capsys):
    assert _closing_line(capsys, "incremental_synthesis.py").endswith(
        "preserving EC consistently retains (weakly) more."
    )


def test_datapath_scheduling_runs(capsys):
    assert _closing_line(capsys, "datapath_scheduling.py") == (
        "OK: the schedule absorbed the new dependency."
    )


def test_metrics_watch_runs(capsys):
    assert _closing_line(capsys, "metrics_watch.py") == (
        "OK: observability end to end."
    )


def test_cluster_runs(capsys):
    runpy.run_path(str(EXAMPLES / "cluster.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "re-solved all 9 with a node dead: 0 verdict mismatches" in out
    assert out.strip().splitlines()[-1].startswith("router counters: routed=")


@pytest.mark.slow
def test_register_binding_runs(capsys):
    runpy.run_path(
        str(EXAMPLES / "register_binding_coloring.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "OK" in out
