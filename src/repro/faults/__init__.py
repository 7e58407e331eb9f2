"""Seeded, deterministic fault injection for chaos testing.

The serving stack (engine → portfolio workers → disk cache → daemon →
client) claims to survive worker crashes, torn cache writes, and flaky
connections.  This package makes those claims *testable*: a
:class:`FaultPlan` names injection points compiled into the production
code paths, each with a probability, an optional fire-count budget, and
an optional delay parameter, all driven by per-point seeded RNGs so the
same plan + seed reproduces the same injection decision sequence.

Activate a plan three ways:

* ``repro serve --chaos "seed=42;worker.kill:p=0.1,count=2"`` (CLI);
* :class:`~repro.engine.config.EngineConfig` ``chaos=`` (library);
* the ``REPRO_CHAOS`` environment variable — how *subprocess pool
  workers* pick the plan up: :func:`install` with ``propagate=True``
  exports the spec, and a worker's first :func:`fire` call lazily
  builds its own injector from the env var.

Production code calls :func:`fire` at each named point; with no plan
installed that is a single ``None`` check — the chaos layer costs
nothing when off.

Points wired through the stack today:

======================  ================================================
``worker.kill``         pool worker SIGKILLs itself mid-task
``worker.hang``         pool worker sleeps ``delay`` seconds, then
                        unknowns
``cache.put.io``        ``DiskCache.put`` raises ENOSPC
``cache.put.torn``      ``DiskCache.put`` leaves a torn entry file and
                        raises EIO (a crashed writer)
``wire.drop``           daemon drops the connection pre-dispatch
``wire.truncate``       daemon sends a truncated response frame
``wire.slow``           daemon sleeps ``delay`` seconds pre-dispatch
``auth.reject``         daemon 401s a *valid* token handshake (clients
                        retry inside their connect budget; the router
                        counts it and fails over)
``sync.drop``           daemon drops the connection on a ``sync`` pull
                        before the response (the cursor never advances,
                        so the idempotent re-pull converges anyway)
======================  ================================================
"""

from repro.faults.plan import FaultError, FaultPlan, FaultPoint
from repro.faults.injector import (
    ENV_VAR,
    FaultInjector,
    clear,
    fire,
    get_injector,
    install,
)

__all__ = [
    "ENV_VAR",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "clear",
    "fire",
    "get_injector",
    "install",
]
