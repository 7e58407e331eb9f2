"""Public API surface tests: imports, __all__, error hierarchy."""

import importlib

import pytest

import repro
from repro import errors


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.8.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cnf", "repro.ilp", "repro.sat", "repro.core",
            "repro.coloring", "repro.scheduling", "repro.bench", "repro.cli",
            "repro.engine", "repro.service", "repro.workload", "repro.obs",
        ],
    )
    def test_subpackages_import(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestOneCopyOnTheEnginePath:
    """The engine path keeps one fingerprint, one answer record, and
    one counter store; the retired names stay retired."""

    def test_fingerprint_v2_is_the_exported_fingerprint(self):
        from repro.engine.fingerprint import fingerprint_v2

        assert repro.fingerprint_v2 is fingerprint_v2
        assert "fingerprint" not in repro.__all__

    def test_solve_response_lives_in_the_engine_protocol(self):
        import repro.engine
        from repro.engine import protocol
        from repro.service import requests

        assert repro.engine.SolveResponse is protocol.SolveResponse
        assert requests.SolveResponse is protocol.SolveResponse
        assert repro.SolveResponse is protocol.SolveResponse

    @pytest.mark.parametrize("name", ["EngineStats", "EngineResult", "fingerprint"])
    def test_retired_names_are_gone(self, name):
        import repro.engine

        assert name not in repro.__all__
        assert name not in repro.engine.__all__

    def test_import_repro_loads_no_scipy(self):
        """scipy is imported on the ILP route's first LP, not by every
        process that imports repro (the daemon, the router, the CLI)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys, repro; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120, env=env,
        )
        assert out.stdout.strip() == "[]"


class TestRequestOptions:
    """The settable values of a query: the request record's fields and
    the keyword options of each layer a query passes through."""

    def test_solve_request_fields(self):
        import dataclasses

        from repro.service.requests import SolveRequest

        assert [f.name for f in dataclasses.fields(SolveRequest)] == [
            "formula", "packed_bytes", "strategy", "method", "deadline",
            "seed", "hint", "session", "request_id", "trace",
        ]

    @pytest.mark.parametrize(
        "owner, method, keywords",
        [
            ("repro.engine.engine:PortfolioEngine", "solve",
             {"deadline", "seed", "hint"}),
            ("repro.engine.engine:PortfolioEngine", "solve_many",
             {"deadline", "seed"}),
            ("repro.engine.portfolio:Portfolio", "solve",
             {"deadline", "seed", "hint"}),
            ("repro.service.service:SolverService", "query",
             {"deadline", "seed", "hint"}),
            ("repro.service.service:SolverService", "solve_many",
             {"deadline", "seed"}),
            ("repro.service.client:ServiceClient", "solve_many",
             {"deadline", "seed"}),
            ("repro.engine.session:IncrementalSession", "query",
             {"deadline", "seed"}),
        ],
    )
    def test_keyword_options(self, owner, method, keywords):
        import inspect

        module, cls = owner.split(":")
        fn = getattr(getattr(importlib.import_module(module), cls), method)
        params = inspect.signature(fn).parameters.values()
        assert {p.name for p in params if p.kind is p.KEYWORD_ONLY} == keywords


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_domain_buckets(self):
        assert issubclass(errors.DimacsError, errors.CNFError)
        assert issubclass(errors.InfeasibleError, errors.ILPError)
        assert issubclass(errors.PreservationError, errors.ECError)

    def test_catchable_as_base(self):
        from repro.cnf.clause import Clause

        with pytest.raises(errors.ReproError):
            Clause([1, -1])


class TestDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.cnf.formula", "repro.cnf.mutations", "repro.cnf.families",
            "repro.ilp.model", "repro.ilp.branch_and_bound",
            "repro.ilp.simplex", "repro.ilp.heuristic",
            "repro.sat.encoding", "repro.sat.dpll",
            "repro.core.enabling", "repro.core.fast", "repro.core.preserving",
            "repro.core.flow", "repro.coloring.ec", "repro.scheduling.ec",
            "repro.engine.protocol", "repro.engine.adapters",
            "repro.engine.fingerprint", "repro.engine.cache",
            "repro.engine.portfolio", "repro.engine.engine",
            "repro.engine.session", "repro.engine.diskcache",
            "repro.service.requests", "repro.service.service",
            "repro.service.wire", "repro.service.daemon",
            "repro.service.client",
        ],
    )
    def test_modules_documented(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 40

    def test_public_callables_documented(self):
        from repro.core import enabling, fast, preserving

        for mod in (enabling, fast, preserving):
            for name in dir(mod):
                obj = getattr(mod, name)
                if callable(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    assert obj.__doc__, f"{mod.__name__}.{name} lacks a docstring"
