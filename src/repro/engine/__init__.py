"""Parallel portfolio solver engine with fingerprint caching.

The paper's EC thesis is that successive specification changes should be
*cheap* to absorb.  This subpackage industrialises that idea into an
engine suitable for serving many queries:

* :mod:`repro.engine.protocol`    -- the uniform ``Solver`` interface, the
  ``SolverOutcome`` record every backend adapts to, and the
  ``SolveResponse`` record every query is answered with;
* :mod:`repro.engine.adapters`    -- adapters giving CDCL, DPLL, WalkSAT,
  brute force, and both ILP solvers one ``solve_packed(packed, *,
  deadline, seed, hint)`` entry point over the packed CNF kernel;
* :mod:`repro.engine.fingerprint` -- canonical, order-insensitive formula
  fingerprints (fp-v2, incrementally maintained on the packed kernel);
* :mod:`repro.engine.cache`       -- the :class:`CacheBackend` protocol and
  the content-addressed in-memory LRU :class:`SolutionCache`;
* :mod:`repro.engine.diskcache`   -- :class:`DiskCache`, the persistent
  fingerprint-keyed file backend (atomic writes, mtime LRU) shared
  across processes and restarts;
* :mod:`repro.engine.config`      -- picklable solver configurations, the
  default portfolio line-up, and the engine-level :class:`EngineConfig`
  (pool width, quick slice, cache backend selection);
* :mod:`repro.engine.portfolio`   -- the :class:`Portfolio` runner racing
  N configurations on worker processes it owns, under a deadline;
* :mod:`repro.engine.engine`      -- the :class:`PortfolioEngine` facade
  combining cache, hint revalidation, and the portfolio race;
* :mod:`repro.engine.session`     -- :class:`IncrementalSession`, the
  successive-EC driver that classifies change sets and revalidates
  instead of re-solving whenever the change only loosens the instance.
"""

from repro.engine.adapters import (
    BruteForceAdapter,
    CDCLAdapter,
    DPLLAdapter,
    ExactILPAdapter,
    HeuristicILPAdapter,
    WalkSATAdapter,
    build_adapter,
)
from repro.engine.cache import CacheBackend, CacheEntry, CacheStats, SolutionCache
from repro.engine.config import (
    EngineConfig,
    SolverConfig,
    default_portfolio_configs,
)
from repro.engine.diskcache import DiskCache
from repro.engine.engine import PortfolioEngine
from repro.engine.fingerprint import fingerprint_v2
from repro.engine.portfolio import Portfolio, PortfolioResult
from repro.engine.protocol import (
    SAT, UNKNOWN, UNSAT, Solver, SolveResponse, SolverOutcome,
)
from repro.engine.session import IncrementalSession

__all__ = [
    "BruteForceAdapter",
    "CDCLAdapter",
    "CacheBackend",
    "CacheEntry",
    "CacheStats",
    "DPLLAdapter",
    "DiskCache",
    "EngineConfig",
    "ExactILPAdapter",
    "HeuristicILPAdapter",
    "IncrementalSession",
    "Portfolio",
    "PortfolioEngine",
    "PortfolioResult",
    "SAT",
    "SolutionCache",
    "SolveResponse",
    "Solver",
    "SolverConfig",
    "SolverOutcome",
    "UNKNOWN",
    "UNSAT",
    "WalkSATAdapter",
    "build_adapter",
    "default_portfolio_configs",
    "fingerprint_v2",
]
