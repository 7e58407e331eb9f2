"""DiskCache under disk failure: degraded mode, torn-write self-healing,
re-probe recovery, and the engine staying up on a dying filesystem."""

import pytest

from repro import faults
from repro.cnf.assignment import Assignment
from repro.cnf.generators import random_planted_ksat
from repro.engine.config import EngineConfig
from repro.engine.diskcache import DiskCache
from repro.engine.engine import PortfolioEngine


@pytest.fixture
def model():
    return Assignment({1: True, 2: False, 3: True})


class TestDegradedMode:
    def test_enospc_parks_the_cache_in_memory_only_mode(self, tmp_path, model):
        faults.install("seed=3;cache.put.io:p=1,count=1")
        cache = DiskCache(tmp_path, reprobe_interval=60.0)
        cache.put("fp1", True, model, "cdcl")

        # The failed store degraded instead of raising; nothing torn on
        # disk, the verdict still served from the overlay.
        assert cache.stats.errors == 1
        assert cache.degraded
        assert not (tmp_path / "fp1.json").exists()
        entry = cache.get("fp1")
        assert entry is not None and entry.satisfiable
        assert list(entry.assignment.to_literals()) == list(model.to_literals())

        # While degraded, further stores bypass the disk entirely (the
        # chaos budget is spent — a raise here would fail the test).
        cache.put("fp2", False)
        assert not (tmp_path / "fp2.json").exists()
        assert cache.get("fp2").satisfiable is False

        health = cache.health()
        assert health["degraded"] is True
        assert health["errors"] == 1
        assert health["overlay_entries"] == 2

    def test_reprobe_promotes_back_to_disk(self, tmp_path):
        faults.install("cache.put.io:p=1,count=1")
        cache = DiskCache(tmp_path, reprobe_interval=0.0)
        cache.put("fp1", False)
        assert cache.stats.errors == 1
        # Zero-length window: the next put re-probes a now-healthy disk.
        cache.put("fp2", False)
        assert (tmp_path / "fp2.json").exists()
        assert not cache.degraded
        assert cache.health()["degraded"] is False

    def test_torn_write_is_never_served(self, tmp_path, model):
        faults.install("cache.put.torn:p=1,count=1")
        cache = DiskCache(tmp_path, reprobe_interval=60.0)
        cache.put("fpt", True, model, "cdcl")
        torn = tmp_path / "fpt.json"
        assert torn.exists()              # the truncated entry landed
        assert cache.stats.errors == 1

        # The reader self-heals: the torn file is unlinked, the verdict
        # comes back intact from the degraded-mode overlay.
        entry = cache.get("fpt")
        assert entry is not None and entry.satisfiable
        assert list(entry.assignment.to_literals()) == list(model.to_literals())
        assert not torn.exists()

    def test_readable_or_absent_for_a_reader_without_the_overlay(
        self, tmp_path, model
    ):
        # A *sibling process* over the same directory has no overlay: it
        # must see a clean miss, never a torn verdict.
        faults.install("cache.put.torn:p=1,count=1")
        writer = DiskCache(tmp_path, reprobe_interval=60.0)
        writer.put("fpt", True, model, "cdcl")
        faults.clear()
        reader = DiskCache(tmp_path)
        assert reader.get("fpt") is None
        assert not (tmp_path / "fpt.json").exists()


class TestEngineUnderDiskFailure:
    def test_engine_keeps_serving_on_a_permanently_failing_disk(self, tmp_path):
        # The EngineConfig(chaos=...) activation route, end to end.
        config = EngineConfig(
            jobs=1,
            cache="disk",
            cache_dir=str(tmp_path / "cache"),
            chaos="seed=5;cache.put.io:p=1",
        )
        engine = PortfolioEngine.from_config(config)
        try:
            formula, witness = random_planted_ksat(10, 30, rng=3)
            first = engine.solve(formula.packed(), seed=0)
            assert first.status == "sat"
            assert formula.is_satisfied(first.assignment)

            # Same query again: the overlay serves it despite the disk.
            second = engine.solve(formula.packed(), seed=0)
            assert second.status == "sat"
            assert second.from_cache

            health = engine.health()
            assert health["cache"]["degraded"] is True
            assert health["cache"]["errors"] >= 1
        finally:
            engine.close()
