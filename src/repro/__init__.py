"""repro — reproduction of "ILP-Based Engineering Change" (DAC 2002).

Koushanfar, Wong, Feng, Potkonjak: a generic engineering-change (EC)
methodology with three components — *enabling* EC (solve so the solution
tolerates future changes), *fast* EC (re-solve only the affected
sub-instance), and *preserving* EC (re-solve maximizing agreement with the
previous solution) — demonstrated on Boolean satisfiability via a
set-cover 0-1 ILP encoding, plus a graph-coloring domain.

Quick start::

    from repro import CNFFormula, ECFlow, ChangeSet, AddClause, Clause

    formula = CNFFormula([[1, -3, -5], [2, -3, -5], [2, 4, 5], [-3, -4]])
    flow = ECFlow(formula)
    flow.solve_original(enable=True)                  # flexible solution
    flow.apply_changes(ChangeSet([AddClause(Clause([-2, 4]))]))
    flow.resolve(strategy="fast")                     # local re-solve

Subpackages:

* :mod:`repro.cnf` — CNF formulas, DIMACS I/O, benchmark families,
  EC mutations, flexibility analysis;
* :mod:`repro.ilp` — from-scratch 0-1 ILP substrate (simplex, presolve,
  branch & bound, cuts, heuristic iterative improvement);
* :mod:`repro.sat` — set cover, the SAT->ILP encoding, CDCL, DPLL,
  WalkSAT;
* :mod:`repro.core` — the EC methodology itself;
* :mod:`repro.coloring` — EC for graph coloring;
* :mod:`repro.bench` — harness regenerating the paper's Tables 1-3;
* :mod:`repro.engine` — the parallel portfolio solver engine with
  fingerprint caching and incremental EC re-solve;
* :mod:`repro.service` — the :class:`SolverService` facade: one typed
  request/response API over flow, engine, and sessions, with the
  ``repro serve`` daemon and its client;
* :mod:`repro.workload` — scenario generators producing EC request
  streams, the versioned request-trace record/replay format, and the
  closed/open-loop load driver behind ``repro loadgen`` / ``repro
  replay`` / ``repro bench workload``;
* :mod:`repro.obs` — the live observability layer: log-bucketed HDR
  latency histograms, rrd-style ring-buffer time series, the narrow-lock
  metrics registry the engine and service publish into, and the daemon
  monitor behind ``repro stats [--watch]``;
* :mod:`repro.faults` — seeded deterministic fault injection (chaos
  testing): worker kills/hangs, cache I/O failures and torn writes, and
  wire drops/truncations, activated via ``repro serve --chaos`` /
  ``EngineConfig(chaos=...)`` / the ``REPRO_CHAOS`` env var.
"""

from repro.cnf import Assignment, Clause, CNFFormula
from repro.core import (
    AddClause,
    AddVariable,
    ChangeSet,
    ECFlow,
    EnablingOptions,
    RemoveClause,
    RemoveVariable,
    enable_ec,
    fast_ec,
    preserving_ec,
)
from repro.engine import (
    DiskCache,
    EngineConfig,
    IncrementalSession,
    Portfolio,
    PortfolioEngine,
    SolutionCache,
    SolverConfig,
    fingerprint_v2,
)
from repro.ilp import ILPModel, LinExpr, Solution, SolveStatus, solve
from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    RingSeries,
    StatsMonitor,
)
from repro.sat import encode_sat
from repro.service import (
    ChangeRequest,
    PendingSolve,
    ServiceClient,
    SolveRequest,
    SolveResponse,
    SolverService,
)
from repro.workload import (
    TraceRecorder,
    WorkloadEvent,
    build_scenario,
    read_trace,
    replay_trace,
)

__version__ = "1.8.0"

__all__ = [
    "AddClause",
    "AddVariable",
    "Assignment",
    "CNFFormula",
    "ChangeRequest",
    "ChangeSet",
    "Clause",
    "DiskCache",
    "ECFlow",
    "EnablingOptions",
    "EngineConfig",
    "ILPModel",
    "IncrementalSession",
    "LatencyHistogram",
    "LinExpr",
    "MetricsRegistry",
    "PendingSolve",
    "Portfolio",
    "PortfolioEngine",
    "RemoveClause",
    "RemoveVariable",
    "RingSeries",
    "ServiceClient",
    "Solution",
    "SolutionCache",
    "SolveRequest",
    "SolveResponse",
    "SolveStatus",
    "SolverConfig",
    "SolverService",
    "StatsMonitor",
    "TraceRecorder",
    "WorkloadEvent",
    "build_scenario",
    "enable_ec",
    "encode_sat",
    "fast_ec",
    "fingerprint_v2",
    "preserving_ec",
    "read_trace",
    "replay_trace",
    "solve",
    "__version__",
]
