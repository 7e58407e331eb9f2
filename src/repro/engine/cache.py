"""Content-addressed caches of solver verdicts.

Keys are formula fingerprints (:mod:`repro.engine.fingerprint`), values
are verdicts: a verified model for satisfiable instances, or a proven
UNSAT marker.  Successive-EC workloads revisit instances constantly —
loosening changes restore earlier formulas, benchmark suites repeat rows,
and production query streams are heavily skewed — so repeated queries
should cost a hash plus an O(clauses) revalidation, never a solver run.

Two implementations sit behind the :class:`CacheBackend` protocol:

* :class:`SolutionCache` (here) — the in-memory LRU, fastest, dies with
  the process;
* :class:`~repro.engine.diskcache.DiskCache` — fingerprint-keyed files
  with atomic writes and an mtime-based LRU sweep, shared across
  processes and daemon restarts.

Select one via :class:`~repro.engine.config.EngineConfig` (``cache=
"memory" | "disk" | "none"``) or inject any object satisfying the
protocol into :class:`~repro.engine.engine.PortfolioEngine`.

Assignments are copied on the way in and out: callers mutate assignments
freely (flips, don't-care recovery) and must not corrupt cached entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.cnf.assignment import Assignment


@dataclass
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    #: I/O failures a persistent backend absorbed (degraded-mode stores
    #: count here, not as exceptions into the solve path).
    errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class CacheEntry:
    """One cached verdict."""

    fingerprint: str
    satisfiable: bool
    assignment: Assignment | None = None   # a model when satisfiable
    solver: str = ""                       # config that produced it
    hits: int = 0                          # times this entry was served


@runtime_checkable
class CacheBackend(Protocol):
    """What the engine needs from a verdict cache.

    Implementations must copy assignments on ``put`` and hand out copies
    from ``get`` (callers mutate models freely), keep a :class:`CacheStats`
    on ``stats``, and treat a zero/absent capacity as "caching disabled"
    (every ``get`` misses, every ``put`` is a no-op).
    """

    stats: CacheStats

    def get(self, fp: str) -> CacheEntry | None:
        """Look up a verdict by fingerprint (None on a miss)."""
        ...

    def put(
        self,
        fp: str,
        satisfiable: bool,
        assignment: Assignment | None = None,
        solver: str = "",
    ) -> None:
        """Store a verdict."""
        ...

    def invalidate(self, fp: str) -> bool:
        """Drop one entry; returns whether it existed."""
        ...

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        ...

    def info(self) -> dict:
        """Introspection snapshot: ``backend`` name, ``entries`` count,
        (approximate) resident ``bytes``, and lifetime ``evictions``.
        Safe to call without the engine lock, concurrently with
        ``get``/``put``."""
        ...

    def health(self) -> dict:
        """Degraded-mode flags: ``backend`` name, ``degraded``, and the
        I/O ``errors`` absorbed (the daemon's ``health`` op)."""
        ...

    def __contains__(self, fp: str) -> bool: ...

    def __len__(self) -> int: ...


@dataclass
class SolutionCache:
    """An LRU mapping ``fingerprint -> CacheEntry``.

    Args:
        max_entries: capacity; the least recently used entry is evicted
            first.  ``0`` disables caching entirely (every get misses).
    """

    max_entries: int = 4096
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict[str, CacheEntry] = field(
        default_factory=OrderedDict, repr=False
    )

    def get(self, fp: str) -> CacheEntry | None:
        """Look up a verdict, refreshing its LRU position on a hit.

        The returned entry carries a *copy* of the cached assignment.
        """
        entry = self._entries.get(fp)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fp)
        self.stats.hits += 1
        entry.hits += 1
        return CacheEntry(
            fingerprint=entry.fingerprint,
            satisfiable=entry.satisfiable,
            assignment=entry.assignment.copy() if entry.assignment else None,
            solver=entry.solver,
            hits=entry.hits,
        )

    def put(
        self,
        fp: str,
        satisfiable: bool,
        assignment: Assignment | None = None,
        solver: str = "",
    ) -> None:
        """Store a verdict (no-op when capacity is 0)."""
        if self.max_entries <= 0:
            return
        if satisfiable and assignment is None:
            raise ValueError("a satisfiable entry requires a model")
        # Evict before inserting: an ``info`` reading without the engine
        # lock never sees more than ``max_entries`` entries.
        if fp not in self._entries:
            while len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        self._entries[fp] = CacheEntry(
            fingerprint=fp,
            satisfiable=satisfiable,
            assignment=assignment.copy() if assignment else None,
            solver=solver,
        )
        self._entries.move_to_end(fp)
        self.stats.stores += 1

    def invalidate(self, fp: str) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._entries.pop(fp, None) is not None

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def info(self) -> dict:
        """Entry count, approximate resident bytes, and evictions.

        The byte size is an estimate (per-entry object overhead plus
        ~48 bytes per assigned variable for the model's dict slots) —
        good enough to watch a cache grow toward capacity, not an
        allocator-exact audit.  The entries are copied in one C-level
        call first (no Python code runs inside it), so a concurrent
        ``get`` or ``put`` cannot break the loop.
        """
        entries = list(self._entries.values())
        size = 0
        for entry in entries:
            size += 120 + len(entry.fingerprint)
            if entry.assignment is not None:
                size += 48 * len(entry.assignment.assigned_variables())
        return {
            "backend": "memory",
            "entries": len(entries),
            "bytes": size,
            "evictions": self.stats.evictions,
        }

    def health(self) -> dict:
        """Degraded-mode flags: an in-memory cache never degrades."""
        return {"backend": "memory", "degraded": False, "errors": self.stats.errors}

    def __contains__(self, fp: str) -> bool:
        return fp in self._entries

    def __len__(self) -> int:
        return len(self._entries)
